"""Acceptance gate: ten criteria covering data efficiency, ablation
ordering, oracle equivalence, and reproducibility.

Each criterion prints one PASS/FAIL line.  The learning-curve criteria
share module-scoped run fixtures so the whole gate stays inside the
stated runtime caps.
"""

import json
import random
import time

import pytest

import test_how_learning as how_oracle
import test_when_learning as when_oracle

from dipl.cli import main as cli_main
from dipl.env_fractions import FractionProblem, FractionsEnv
from dipl.env_mc_addition import McAdditionEnv
from dipl.harness import RunConfig, mastery_intercept, run_training
from dipl.how_learning import FRACTIONS_FUNCS, MC_ADDITION_FUNCS, set_chaining
from dipl.when_learning import (
    EQUALS,
    MAX_PATH_STEPS,
    adjacency_graph,
    relative_featurize,
)

SEEDS = list(range(10))
WINDOW, THRESHOLD = 10, 0.1


def _report(n: int, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{tag} criterion {n}{suffix}")
    assert ok, f"criterion {n}: {detail}"


def _median(intercepts, budget=None):
    """Median with no-mastery runs ranked as >= budget (or infinity)."""
    key = lambda i: (budget if budget is not None else float("inf")) if i is None else i
    ranked = sorted(intercepts, key=key)
    n = len(ranked)
    lo, hi = ranked[(n - 1) // 2], ranked[n // 2]
    lo = key(lo) if lo is None else lo
    hi = key(hi) if hi is None else hi
    return (lo + hi) / 2


def _runs(domain, agent, problems, retrain_every=1):
    out = []
    t0 = time.time()
    for seed in SEEDS:
        cfg = RunConfig(
            domain=domain,
            agent=agent,
            problems=problems,
            seed=seed,
            window=WINDOW,
            threshold=THRESHOLD,
            retrain_every=retrain_every,
        )
        out.append(run_training(cfg))
    return out, time.time() - t0


@pytest.fixture(scope="module")
def fractions_dipl():
    return _runs("fractions", "dipl", 200)


@pytest.fixture(scope="module")
def mc_dipl():
    return _runs("mc-addition", "dipl", 120)


def _intercepts(runs):
    return [
        mastery_intercept([r.error for r in records], WINDOW, THRESHOLD)
        for records in runs
    ]


def test_criterion_1_dipl_fractions_efficiency(fractions_dipl):
    runs, elapsed = fractions_dipl
    med = _median(_intercepts(runs))
    ok = med is not None and med <= 50 and elapsed <= 300
    _report(1, ok, f"median={med}, runtime={elapsed:.0f}s")


def test_criterion_2_dipl_mc_addition_efficiency(mc_dipl):
    runs, _ = mc_dipl
    med = _median(_intercepts(runs))
    ok = med is not None and med <= 50
    _report(2, ok, f"median={med}")


def test_criterion_3_relative_features_help_mc(mc_dipl):
    dipl_med = _median(_intercepts(mc_dipl[0]))
    runs, _ = _runs("mc-addition", "dipl-norel", 120)
    norel_med = _median(_intercepts(runs), budget=120)
    ok = norel_med >= dipl_med and norel_med <= 120
    _report(3, ok, f"dipl={dipl_med}, dipl-norel={norel_med}")


def test_criterion_4_where_when_ablation(mc_dipl):
    fr_runs, _ = _runs("fractions", "how-lhs", 100)
    fr_med = _median(_intercepts(fr_runs), budget=100)
    mc_runs, _ = _runs("mc-addition", "how-lhs", 200)
    mc_med = _median(_intercepts(mc_runs), budget=200)
    dipl_mc_med = _median(_intercepts(mc_dipl[0]))
    ok = fr_med <= 60 and mc_med >= 2 * dipl_mc_med
    _report(4, ok, f"fractions={fr_med}, mc={mc_med}, 2x dipl mc={2 * dipl_mc_med}")


def test_criterion_5_dt_demos_never_masters():
    t0 = time.time()
    intercepts = {}
    for domain, retrain in (("fractions", 20), ("mc-addition", 5)):
        cfg = RunConfig(
            domain=domain,
            agent="dt-demos",
            problems=500,
            seed=0,
            window=WINDOW,
            threshold=THRESHOLD,
            retrain_every=retrain,
        )
        records = run_training(cfg)
        intercepts[domain] = mastery_intercept(
            [r.error for r in records], WINDOW, THRESHOLD
        )
    elapsed = time.time() - t0
    ok = all(i is None for i in intercepts.values()) and elapsed <= 600
    _report(5, ok, f"intercepts={intercepts}, runtime={elapsed:.0f}s")


def test_criterion_6_dipl_fractions_asymptote(fractions_dipl):
    runs, _ = fractions_dipl
    tail = [r.error for records in runs for r in records if 150 <= r.problem_idx <= 200]
    mean_err = sum(tail) / len(tail)
    ok = mean_err < 0.05
    _report(6, ok, f"mean error problems 150-200 = {mean_err:.4f}")


def test_criterion_7_set_chaining_oracle():
    rnd = random.Random(97)
    ok = True
    detail = "200 instances"
    for trial in range(200):
        funcs = FRACTIONS_FUNCS if trial % 2 == 0 else MC_ADDITION_FUNCS
        leaves = [(f"e{i}", str(rnd.randint(0, 20))) for i in range(rnd.randint(1, 6))]
        goal = str(rnd.randint(0, 40))
        got = set_chaining(goal, leaves, funcs, max_depth=2)
        want = how_oracle.oracle_chain(goal, leaves, funcs, max_depth=2)
        if (got is None) != (want is None):
            ok, detail = False, f"reachability mismatch on {leaves} -> {goal}"
            break
        if got is not None:
            if how_oracle._rendered(got) != how_oracle._rendered(want):
                ok, detail = False, f"composition set mismatch on {leaves} -> {goal}"
                break
            if len({c.depth() for c in got}) != 1:
                ok, detail = False, f"mixed depths on {leaves} -> {goal}"
                break
    _report(7, ok, detail)


def test_criterion_8_demo_oracle_completes():
    ok = True
    detail = "1000 problems per domain"
    env = FractionsEnv(11)
    for _ in range(1000):
        env.new_problem()
        while not env.done:
            demo = env.request_demo()
            if env.step(demo.sai)[0] != 1:
                ok, detail = False, f"fractions demo rejected: {demo.sai}"
                break
        if not ok:
            break
    if ok:
        env = McAdditionEnv(11)
        for _ in range(1000):
            p, _state = env.new_problem()
            while not env.done:
                demo = env.request_demo()
                if env.step(demo.sai)[0] != 1:
                    ok, detail = False, f"mc demo rejected: {demo.sai}"
                    break
            if not ok or env.answer_value() != p.a + p.b:
                if ok:
                    ok, detail = False, f"wrong sum for {p.a}+{p.b}"
                break
    _report(8, ok, detail)


def test_criterion_9_shortest_paths_and_verbatim_feature():
    ok = True
    detail = "grid + both layouts + Fig-style feature"
    # 3x3 grid vs brute-force oracle
    nav = when_oracle._grid_nav()
    sources = [("Sel", "g11"), ("Arg0", "g00"), ("Arg1", "g22")]
    if when_oracle._got(nav, sources, 4) != when_oracle._want(nav, sources, 4):
        ok, detail = False, "grid mismatch"
    # both domain layouts
    if ok:
        env = FractionsEnv(0)
        env.load_problem(FractionProblem(2, 3, 4, 3, "+", "AddSame"))
        nav = adjacency_graph(env.state)
        sources = [("Sel", "answer_num"), ("Arg0", "n1"), ("Arg1", "n2")]
        if when_oracle._got(nav, sources, MAX_PATH_STEPS) != when_oracle._want(
            nav, sources, MAX_PATH_STEPS
        ):
            ok, detail = False, "fractions layout mismatch"
    if ok:
        env_mc = McAdditionEnv(0)
        env_mc.load_problem(379, 447)
        nav = adjacency_graph(env_mc.state)
        sources = [
            ("Sel", "answer_tens"),
            ("Arg0", "carry_tens"),
            ("Arg1", "a_tens"),
            ("Arg2", "b_tens"),
        ]
        if when_oracle._got(nav, sources, MAX_PATH_STEPS) != when_oracle._want(
            nav, sources, MAX_PATH_STEPS
        ):
            ok, detail = False, "mc-addition layout mismatch"
    # verbatim pairwise feature on the numerator-sum fixture
    if ok:
        env = FractionsEnv(0)
        env.load_problem(FractionProblem(2, 3, 4, 3, "+", "AddSame"))
        fv = relative_featurize(env.state, "answer_num", ("n1", "n2"), [EQUALS])
        if fv.get("Equals(Arg0.below.value, Arg1.below.value)") != "T":
            ok, detail = False, "verbatim Equals feature missing"
    _report(9, ok, detail)


def test_criterion_10_ablate_byte_identical(tmp_path):
    config = tmp_path / "suite.json"
    config.write_text(
        json.dumps(
            {
                "domains": ["fractions", "mc-addition"],
                "agents": ["dipl"],
                "seeds": [0, 1],
                "problems": 15,
            }
        )
    )
    for sub in ("a", "b"):
        rc = cli_main(
            ["ablate", "--config", str(config), "--out-dir", str(tmp_path / sub)]
        )
        assert rc == 0
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    ok = files_a == files_b and len(files_a) == 5  # 4 CSVs + summary.json
    if ok:
        for name in files_a:
            if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
                ok = False
                break
    _report(10, ok, f"files={files_a}")
