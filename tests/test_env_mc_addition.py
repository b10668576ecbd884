"""Multi-column addition tutor: admissibility, locking, demo oracle."""

from dipl.core import PRESS_BUTTON, SAI, UPDATE_FIELD, validate_state
from dipl.env_mc_addition import McAdditionEnv, mc_action_space


def _admissible_pairs(env):
    return {(s.selection, s.input) for s in env.admissible()}


def test_379_447_fresh_admissible():
    env = McAdditionEnv(0)
    env.load_problem(379, 447)
    assert _admissible_pairs(env) == {("answer_ones", "6"), ("carry_tens", "1")}


def test_379_447_after_ones_column():
    env = McAdditionEnv(0)
    env.load_problem(379, 447)
    assert env.step(SAI("answer_ones", UPDATE_FIELD, "6"))[0] == 1
    assert env.step(SAI("carry_tens", UPDATE_FIELD, "1"))[0] == 1
    assert _admissible_pairs(env) == {("answer_tens", "2"), ("carry_hund", "1")}


def test_123_456_fresh_no_carry_admissible():
    env = McAdditionEnv(0)
    env.load_problem(123, 456)
    assert _admissible_pairs(env) == {("answer_ones", "9")}
    # the unneeded carry field is a disabled control
    assert env.state.element("carry_tens").locked
    assert env.step(SAI("carry_tens", UPDATE_FIELD, "0"))[0] == -1
    assert env.step(SAI("carry_tens", UPDATE_FIELD, "1"))[0] == -1


def test_future_columns_stay_locked_until_open():
    env = McAdditionEnv(0)
    env.load_problem(379, 447)
    assert env.state.element("answer_tens").locked
    assert env.step(SAI("answer_tens", UPDATE_FIELD, "2"))[0] == -1
    env.step(SAI("answer_ones", UPDATE_FIELD, "6"))
    # ones column still incomplete: its carry is pending
    assert env.state.element("answer_tens").locked
    env.step(SAI("carry_tens", UPDATE_FIELD, "1"))
    assert not env.state.element("answer_tens").locked


def test_intra_column_order_free():
    env = McAdditionEnv(0)
    env.load_problem(379, 447)
    assert env.step(SAI("carry_tens", UPDATE_FIELD, "1"))[0] == 1
    assert env.step(SAI("answer_ones", UPDATE_FIELD, "6"))[0] == 1


def test_answer_thou_copies_final_carry():
    env = McAdditionEnv(0)
    env.load_problem(900, 900)
    steps = []
    while not env.done:
        demo = env.request_demo()
        assert env.step(demo.sai)[0] == 1
        steps.append((demo.sai.selection, demo.sai.input))
    assert ("carry_thou", "1") in steps
    assert ("answer_thou", "1") in steps
    assert steps[-1] == ("done", "")
    assert env.answer_value() == 1800


def test_demo_annotations():
    env = McAdditionEnv(0)
    env.load_problem(379, 447)
    demo = env.request_demo()
    assert demo.sai.selection == "answer_ones"
    assert demo.arg_annotations == ["a_ones", "b_ones"]
    env.step(demo.sai)
    env.step(SAI("carry_tens", UPDATE_FIELD, "1"))
    demo = env.request_demo()
    assert demo.sai.selection == "answer_tens"
    assert demo.arg_annotations == ["carry_tens", "a_tens", "b_tens"]


def test_carry_frequency_over_10k_seeds():
    env = McAdditionEnv(0)
    with_carry = 0
    for _ in range(10_000):
        p, _ = env.new_problem()
        ah, at, ao = p.a // 100, (p.a // 10) % 10, p.a % 10
        bh, bt, bo = p.b // 100, (p.b // 10) % 10, p.b % 10
        c1 = (ao + bo) >= 10
        c2 = (at + bt + int(c1)) >= 10
        c3 = (ah + bh + int(c2)) >= 10
        with_carry += int(c1 or c2 or c3)
    assert 0.70 <= with_carry / 10_000 <= 0.80


def test_states_validate():
    env = McAdditionEnv(5)
    for _ in range(50):
        env.new_problem()
        assert validate_state(env.state) == []


def test_action_space_size():
    actions = mc_action_space()
    assert len(actions) == 71
    assert actions[-1] == SAI("done", PRESS_BUTTON, "")


def test_seeded_reproducibility():
    p1, s1 = McAdditionEnv(9).new_problem()
    p2, s2 = McAdditionEnv(9).new_problem()
    assert p1 == p2 and s1.to_text() == s2.to_text()
