"""Agents: one-hot schemas, skill lifecycle, action selection, baselines."""

import pytest

from dipl import agents, classifiers
from dipl.agents import (
    AttemptResult,
    DEMO_REQUEST,
    DemoReceived,
    DiplAgent,
    DtDemosAgent,
    HowLhsAgent,
    Proposal,
    fractions_schema,
    mc_addition_schema,
)
from dipl.core import SAI, UPDATE_FIELD
from dipl.env_fractions import FractionProblem, FractionsEnv, fractions_action_space
from dipl.env_mc_addition import McAdditionEnv, mc_action_space
from dipl.how_learning import FRACTIONS_FUNCS, MC_ADDITION_FUNCS
from dipl.when_learning import EQUALS, WhenPart


# ---------------------------------------------------------------------------
# one-hot schemas
# ---------------------------------------------------------------------------


def test_fractions_schema_sizes():
    schema = fractions_schema()
    assert schema.size == 2000
    assert len(schema.triples) == 752
    assert len(schema.feature_names) == 2000


def test_mc_addition_schema_sizes():
    schema = mc_addition_schema()
    assert schema.size == 240
    assert len(schema.triples) == 144


def test_mc_on_slots_fresh_problem():
    env = McAdditionEnv(0)
    env.load_problem(379, 447)
    schema = mc_addition_schema()
    on = schema.on_slots(env.state)
    # six given digits, value + filled each
    assert len(on) == 12
    assert len(set(on)) == 12 and all(0 <= i < schema.size for i in on)


def test_on_slots_tracks_updates_and_done():
    env = McAdditionEnv(0)
    env.load_problem(123, 456)
    schema = mc_addition_schema()
    base = set(schema.on_slots(env.state))
    env.step(SAI("answer_ones", UPDATE_FIELD, "9"))
    after = set(schema.on_slots(env.state))
    assert after > base and len(after - base) == 2  # value + filled
    assert schema.index[("answer_ones", "value", "9")] in after


# ---------------------------------------------------------------------------
# DiplAgent lifecycle
# ---------------------------------------------------------------------------


def _dipl_fractions():
    return DiplAgent(FRACTIONS_FUNCS, [EQUALS])


def test_fresh_agent_requests_demo():
    env = FractionsEnv(0)
    env.load_problem(FractionProblem(2, 3, 4, 3, "+", "AddSame"))
    agent = _dipl_fractions()
    agent.start_problem()
    assert agent.act(env.state) is DEMO_REQUEST


def test_demo_creates_skill_and_untrained_when_fires_half_confidence():
    env = FractionsEnv(0)
    env.load_problem(FractionProblem(4, 9, 7, 5, "*", "Multiply"))
    agent = DiplAgent(FRACTIONS_FUNCS, [EQUALS], implicit_negatives=False)
    agent.start_problem()
    demo = env.request_demo()
    agent.learn(DemoReceived(env.state, demo))
    assert len(agent.skills) == 1
    skill = agent.skills[0]
    assert skill.how.render() == "Multiply(Arg0,Arg1)"
    # when-part has one positive example; a second candidate binding on a
    # fresh problem still fires (tree predicts pos for everything)
    prop = agent.act(env.state)
    assert isinstance(prop, Proposal)
    assert prop.sai == demo.sai


def test_rejected_binding_not_retried_within_step():
    env = FractionsEnv(0)
    env.load_problem(FractionProblem(4, 9, 7, 5, "*", "Multiply"))
    agent = DiplAgent(FRACTIONS_FUNCS, [EQUALS], implicit_negatives=False)
    agent.start_problem()
    agent.learn(DemoReceived(env.state, env.request_demo()))
    prop = agent.act(env.state)
    agent.learn(
        AttemptResult(env.state, prop.sai, -1, prop.skill, prop.binding, prop.fv)
    )
    nxt = agent.act(env.state)
    assert nxt is DEMO_REQUEST or nxt.binding != prop.binding


def test_agent_completes_problem_after_demos():
    env = FractionsEnv(0)
    env.load_problem(FractionProblem(2, 5, 3, 5, "+", "AddSame"))
    agent = _dipl_fractions()
    agent.start_problem()
    for _ in range(20):
        if env.done:
            break
        prop = agent.act(env.state)
        if prop is DEMO_REQUEST:
            demo = env.request_demo()
            agent.learn(DemoReceived(env.state, demo))
            reward, _ = env.step(demo.sai)
            assert reward == 1
        else:
            reward, _ = env.step(prop.sai)
            agent.learn(
                AttemptResult(env.state, prop.sai, reward, prop.skill, prop.binding, prop.fv)
            )
    assert env.done


def test_act_prefers_higher_confidence_then_earlier_skill():
    env = FractionsEnv(0)
    env.load_problem(FractionProblem(2, 3, 4, 3, "+", "AddSame"))
    agent = DiplAgent(FRACTIONS_FUNCS, [EQUALS], implicit_negatives=False)
    agent.start_problem()
    # two demos create the numerator-sum and denominator-copy skills
    for _ in range(2):
        demo = env.request_demo()
        agent.learn(DemoReceived(env.state, demo))
        env.step(demo.sai)
    env2 = FractionsEnv(0)
    env2.load_problem(FractionProblem(3, 7, 5, 7, "+", "AddSame"))
    agent.start_problem()
    prop = agent.act(env2.state)
    assert isinstance(prop, Proposal)
    cands = agent._candidates(env2.state, skip_rejected=True)
    best = min(cands, key=lambda t: (-t[0], t[1].sid, t[2]))
    assert prop.sai == best[4]


def _train(agent, env, problems):
    for _ in range(problems):
        env.new_problem()
        agent.start_problem()
        while not env.done:
            prop = agent.act(env.state)
            if prop is DEMO_REQUEST:
                demo = env.request_demo()
                agent.learn(DemoReceived(env.state, demo))
                env.step(demo.sai)
            else:
                reward, _ = env.step(prop.sai)
                agent.learn(
                    AttemptResult(
                        env.state, prop.sai, reward, prop.skill, prop.binding, prop.fv
                    )
                )


def test_each_dipl_skill_has_its_own_when_part():
    agent = _dipl_fractions()
    _train(agent, FractionsEnv(0), 3)
    whens = [skill.when for skill in agent.skills]
    assert len(whens) >= 3
    assert all(isinstance(w, WhenPart) for w in whens)
    assert len({id(w) for w in whens}) == len(whens)
    # each was trained on at least its founding demo
    assert all(w.tree is not None for w in whens)


def test_dipl_agent_rejects_a_second_layout(monkeypatch):
    graphs = []
    adjacency_graph = agents.adjacency_graph
    monkeypatch.setattr(
        agents, "adjacency_graph", lambda state: graphs.append(state) or adjacency_graph(state)
    )
    agent = _dipl_fractions()
    env = FractionsEnv(0)
    # each problem brings a new relations list with the same layout
    _train(agent, env, 2)
    assert len(graphs) == 1
    env.new_problem()
    agent.start_problem()
    env.state.relations = env.state.relations[:-2]
    with pytest.raises(ValueError, match="layout"):
        agent.learn(DemoReceived(env.state, env.request_demo()))
    assert len(graphs) == 1


# ---------------------------------------------------------------------------
# HowLhsAgent
# ---------------------------------------------------------------------------


def test_how_lhs_skills_have_no_when_part():
    agent = HowLhsAgent(FRACTIONS_FUNCS, [EQUALS])
    _train(agent, FractionsEnv(0), 3)
    assert len(agent.skills) >= 3
    assert all(skill.when is None for skill in agent.skills)


def test_how_lhs_demo_then_predict():
    env = FractionsEnv(0)
    env.load_problem(FractionProblem(2, 3, 4, 3, "*", "Multiply"))
    agent = HowLhsAgent(FRACTIONS_FUNCS, [EQUALS])
    agent.start_problem()
    assert agent.act(env.state) is DEMO_REQUEST
    demo = env.request_demo()
    agent.learn(DemoReceived(env.state, demo))
    assert agent.tree is not None
    prop = agent.act(env.state)
    assert isinstance(prop, Proposal)
    assert prop.sai == demo.sai  # single-class tree replays the demo


def test_how_lhs_wrong_attempt_triggers_demo():
    env = FractionsEnv(0)
    env.load_problem(FractionProblem(2, 3, 4, 3, "*", "Multiply"))
    agent = HowLhsAgent(FRACTIONS_FUNCS, [EQUALS])
    agent.start_problem()
    demo = env.request_demo()
    agent.learn(DemoReceived(env.state, demo))
    prop = agent.act(env.state)
    agent.learn(
        AttemptResult(env.state, prop.sai, -1, prop.skill, prop.binding, prop.fv)
    )
    assert agent.act(env.state) is DEMO_REQUEST


def _fit_rows(monkeypatch, name, rows_of):
    """Row counts seen by each call of classifiers.<name>."""
    seen = []
    fit = getattr(classifiers, name)

    def spy(data, *rest):
        seen.append(rows_of(data))
        return fit(data, *rest)

    monkeypatch.setattr(classifiers, name, spy)
    return seen


def test_retrain_every_fits_first_then_every_kth_row(monkeypatch):
    seen = _fit_rows(monkeypatch, "fit_encoded", lambda enc: len(enc.rows))
    agent = HowLhsAgent(MC_ADDITION_FUNCS, [], retrain_every=3)
    _train(agent, McAdditionEnv(0), 4)
    assert len(seen) > 3
    assert seen == list(range(1, len(agent.encoder.rows) + 1, 3))

    seen = _fit_rows(monkeypatch, "dt_fit_binary", lambda X: X.shape[0])
    agent = DtDemosAgent(mc_action_space(), mc_addition_schema(), retrain_every=4)
    _train(agent, McAdditionEnv(0), 4)
    assert len(seen) > 3
    assert seen == list(range(1, len(agent.rows) + 1, 4))


# ---------------------------------------------------------------------------
# DtDemosAgent
# ---------------------------------------------------------------------------


def test_dt_demos_cold_start_fixed_action():
    env = McAdditionEnv(0)
    env.load_problem(379, 447)
    agent = DtDemosAgent(mc_action_space(), mc_addition_schema())
    agent.start_problem()
    prop = agent.act(env.state)
    assert prop.sai == mc_action_space()[0]


def test_dt_demos_replays_demo_action():
    env = McAdditionEnv(0)
    env.load_problem(379, 447)
    agent = DtDemosAgent(mc_action_space(), mc_addition_schema())
    agent.start_problem()
    demo = env.request_demo()
    agent.learn(DemoReceived(env.state, demo))
    prop = agent.act(env.state)
    assert prop.sai == demo.sai


def test_dt_demos_wrong_attempt_triggers_demo():
    env = McAdditionEnv(0)
    env.load_problem(379, 447)
    agent = DtDemosAgent(mc_action_space(), mc_addition_schema())
    agent.start_problem()
    prop = agent.act(env.state)
    agent.learn(AttemptResult(env.state, prop.sai, -1))
    assert agent.act(env.state) is DEMO_REQUEST


def test_action_space_lookup_covers_demo_oracle():
    # every demo the tutors can issue is inside the enumerated spaces
    idx_f = {sai for sai in fractions_action_space()}
    env = FractionsEnv(3)
    for _ in range(30):
        env.new_problem()
        while not env.done:
            demo = env.request_demo()
            assert demo.sai in idx_f
            env.step(demo.sai)
    idx_m = {sai for sai in mc_action_space()}
    env = McAdditionEnv(3)
    for _ in range(30):
        env.new_problem()
        while not env.done:
            demo = env.request_demo()
            assert demo.sai in idx_m
            env.step(demo.sai)
