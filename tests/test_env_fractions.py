"""Fraction-arithmetic tutor: distribution, staging, demo oracle."""

from collections import Counter

from dipl.core import PRESS_BUTTON, SAI, UPDATE_FIELD, validate_state
from dipl.env_fractions import (
    ADD_DIFF,
    ADD_SAME,
    MULTIPLY,
    FractionProblem,
    FractionsEnv,
    correct_values,
    fractions_action_space,
)


def test_ptype_frequencies_over_10k_seeds():
    counts = Counter()
    env = FractionsEnv(0)
    for _ in range(10_000):
        problem, _ = env.new_problem()
        counts[problem.ptype] += 1
    for ptype in (ADD_SAME, ADD_DIFF, MULTIPLY):
        assert 0.30 <= counts[ptype] / 10_000 <= 0.37, counts


def test_operand_ranges_and_adddiff_distinct_denominators():
    env = FractionsEnv(3)
    for _ in range(500):
        p, _ = env.new_problem()
        for v in (p.n1, p.d1, p.n2, p.d2):
            assert 2 <= v <= 10
        if p.ptype == ADD_SAME:
            assert p.d1 == p.d2
        if p.ptype == ADD_DIFF:
            assert p.d1 != p.d2


def test_correct_values_examples():
    p = FractionProblem(2, 3, 3, 4, "+", ADD_DIFF)
    assert correct_values(p) == {
        "check_convert": "x",
        "conv_num1": "8",
        "conv_den1": "12",
        "conv_num2": "9",
        "conv_den2": "12",
        "answer_num": "17",
        "answer_den": "12",
    }
    p = FractionProblem(2, 5, 4, 5, "+", ADD_SAME)
    assert correct_values(p) == {"answer_num": "6", "answer_den": "5"}
    p = FractionProblem(2, 3, 4, 5, "*", MULTIPLY)
    assert correct_values(p) == {"answer_num": "8", "answer_den": "15"}


def test_addsame_demo_sequence():
    env = FractionsEnv(0)
    env.load_problem(FractionProblem(2, 5, 4, 5, "+", ADD_SAME))
    sais = []
    while not env.done:
        demo = env.request_demo()
        assert env.step(demo.sai)[0] == 1
        sais.append(demo.sai)
    assert sais == [
        SAI("answer_num", UPDATE_FIELD, "6"),
        SAI("answer_den", UPDATE_FIELD, "5"),
        SAI("done", PRESS_BUTTON, ""),
    ]


def test_adddiff_staging():
    env = FractionsEnv(0)
    env.load_problem(FractionProblem(2, 3, 3, 4, "+", ADD_DIFF))
    # stage 1: only check_convert
    assert env.admissible() == [SAI("check_convert", UPDATE_FIELD, "x")]
    # conversion fields are inadmissible before the check
    assert env.step(SAI("conv_num1", UPDATE_FIELD, "8"))[0] == -1
    assert env.step(SAI("check_convert", UPDATE_FIELD, "x"))[0] == 1
    # stage 2: the four conversion fields, any order
    open_now = {s.selection for s in env.admissible()}
    assert open_now == {"conv_num1", "conv_den1", "conv_num2", "conv_den2"}
    assert env.step(SAI("answer_num", UPDATE_FIELD, "17"))[0] == -1
    assert env.step(SAI("conv_den2", UPDATE_FIELD, "12"))[0] == 1
    for sel, val in (("conv_num1", "8"), ("conv_den1", "12"), ("conv_num2", "9")):
        assert env.step(SAI(sel, UPDATE_FIELD, val))[0] == 1
    # stage 3: answers, any order
    assert {s.selection for s in env.admissible()} == {"answer_num", "answer_den"}
    assert env.step(SAI("done", PRESS_BUTTON, ""))[0] == -1
    assert env.step(SAI("answer_den", UPDATE_FIELD, "12"))[0] == 1
    assert env.step(SAI("answer_num", UPDATE_FIELD, "17"))[0] == 1
    assert env.admissible() == [SAI("done", PRESS_BUTTON, "")]


def test_states_validate():
    env = FractionsEnv(11)
    for _ in range(50):
        env.new_problem()
        assert validate_state(env.state) == []


def test_action_space_size():
    actions = fractions_action_space()
    assert len(actions) == 2702
    assert len(set(actions)) == 2702


def test_seeded_reproducibility():
    p1, s1 = FractionsEnv(42).new_problem()
    p2, s2 = FractionsEnv(42).new_problem()
    assert p1 == p2
    assert s1.to_text() == s2.to_text()
