"""Harness: error metric, mastery intercept, CSV round-trip, ablation."""

import json

import pytest

from dipl.agents import DtDemosAgent, HowLhsAgent, mc_addition_schema
from dipl.cli import main as cli_main
from dipl.env_mc_addition import mc_action_space
from dipl.harness import (
    RunConfig,
    RunRecord,
    mastery_intercept,
    read_errors_csv,
    run_ablation,
    run_training,
    write_csv,
)
from dipl.how_learning import MC_ADDITION_FUNCS


# ---------------------------------------------------------------------------
# mastery intercept
# ---------------------------------------------------------------------------


def test_intercept_after_error_drop():
    errors = [1.0] * 10 + [0.0] * 20
    # first window fully under 0.1 is problems 11..20 -> intercept 20
    assert mastery_intercept(errors, 10, 0.1) == 20


def test_intercept_immediate_for_error_free_learner():
    assert mastery_intercept([0.0] * 15, 10, 0.1) == 10


def test_intercept_none_when_never_mastered():
    assert mastery_intercept([0.5] * 50, 10, 0.1) is None


def test_intercept_requires_full_window():
    assert mastery_intercept([0.0] * 9, 10, 0.1) is None


def test_intercept_boundary_strictly_below_threshold():
    # window mean exactly at the threshold does not count
    errors = [0.2, 0.0]  # window mean is exactly the float 0.1
    assert mastery_intercept(errors, 2, 0.1) is None
    assert mastery_intercept(errors, 2, 0.1 + 1e-9) == 2


def test_intercept_monotone_in_threshold():
    errors = [1.0, 0.8, 0.5, 0.4, 0.2, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0]
    prev = None
    for t in (0.05, 0.1, 0.2, 0.4):
        cur = mastery_intercept(errors, 3, t)
        if prev is not None and cur is not None:
            assert cur <= prev
        prev = cur


def test_intercept_rejects_bad_window():
    with pytest.raises(ValueError):
        mastery_intercept([0.0], 0, 0.1)


# ---------------------------------------------------------------------------
# error metric and CSV
# ---------------------------------------------------------------------------


def test_error_is_fraction_of_steps_missed_first_try():
    r = RunRecord(1, steps=4, first_try_correct=3, demos=1)
    assert r.error == pytest.approx(0.25)
    assert RunRecord(2, 3, 3, 0).error == 0.0
    assert RunRecord(3, 3, 0, 3).error == 1.0


def test_csv_roundtrip(tmp_path):
    records = [RunRecord(1, 4, 3, 1), RunRecord(2, 3, 3, 0)]
    path = tmp_path / "run.csv"
    write_csv(records, path)
    errors = read_errors_csv(path)
    assert errors == pytest.approx([0.25, 0.0])
    lines = path.read_text().splitlines()
    assert lines[0] == "problem_idx,steps,first_try_correct,demos,error"
    assert lines[1] == "1,4,3,1,0.250000"


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(domain="algebra", agent="dipl", problems=5)
    with pytest.raises(ValueError):
        RunConfig(domain="fractions", agent="rl", problems=5)
    with pytest.raises(ValueError):
        RunConfig(domain="fractions", agent="dipl", problems=5, threshold=0.0)
    for problems in (0, -3):
        with pytest.raises(ValueError, match="problems"):
            RunConfig(domain="fractions", agent="dipl", problems=problems)
    for agent in ("how-lhs", "dt-demos"):
        with pytest.raises(ValueError, match="retrain_every"):
            RunConfig(domain="mc-addition", agent=agent, problems=5, retrain_every=0)
    # the agents reject it too, rather than clamping it to 1
    with pytest.raises(ValueError, match="retrain_every"):
        HowLhsAgent(MC_ADDITION_FUNCS, [], retrain_every=0)
    with pytest.raises(ValueError, match="retrain_every"):
        DtDemosAgent(mc_action_space(), mc_addition_schema(), retrain_every=0)


# ---------------------------------------------------------------------------
# training and ablation
# ---------------------------------------------------------------------------


def test_run_training_deterministic_per_seed():
    cfg = RunConfig(domain="mc-addition", agent="dipl", problems=8, seed=3)
    r1 = run_training(cfg)
    r2 = run_training(cfg)
    assert [r.csv_line() for r in r1] == [r.csv_line() for r in r2]
    assert all(r.steps >= 4 for r in r1)  # >= 3 answer digits + done


def test_small_ablation_outputs(tmp_path):
    suite = {
        "domains": ["mc-addition"],
        "agents": ["dipl"],
        "seeds": [0, 1],
        "problems": 6,
    }
    summary = run_ablation(suite, tmp_path / "out")
    cell = summary["mc-addition/dipl"]
    assert cell["n_runs"] == 2 and cell["n_aborted"] == 0
    csvs = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
    assert csvs == [
        "run_mc_addition_dipl_0.csv",
        "run_mc_addition_dipl_1.csv",
    ]
    on_disk = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert on_disk == summary


def test_ablation_byte_identical_across_executions(tmp_path):
    suite = {
        "domains": ["mc-addition"],
        "agents": ["dipl"],
        "seeds": [0],
        "problems": 5,
    }
    run_ablation(suite, tmp_path / "a")
    run_ablation(suite, tmp_path / "b")
    name = "run_mc_addition_dipl_0.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_ablation_rejects_suite_typo(tmp_path):
    # "problem" for "problems" used to run the 100-problem default
    suite = {"domains": ["mc-addition"], "agents": ["dipl"], "seeds": [0], "problem": 5}
    with pytest.raises(ValueError, match="problem"):
        run_ablation(suite, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_ablation_validates_every_run_before_the_first(tmp_path):
    # a bad setting in a later cell used to surface only after earlier
    # cells had written their CSVs
    suite = {
        "domains": ["mc-addition"],
        "agents": ["dipl", "how-lhs"],
        "seeds": [0],
        "problems": {"mc-addition/how-lhs": 0, "default": 3},
    }
    with pytest.raises(ValueError, match="problems"):
        run_ablation(suite, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("key", ["domains", "agents", "seeds"])
def test_ablation_rejects_empty_lists(tmp_path, key):
    suite = {"domains": ["mc-addition"], "agents": ["dipl"], "seeds": [0], "problems": 5}
    suite[key] = []
    with pytest.raises(ValueError, match=key):
        run_ablation(suite, tmp_path / "out")
    del suite[key]
    with pytest.raises(ValueError, match=key):
        run_ablation(suite, tmp_path / "out")


def test_none_median_ranking(tmp_path):
    # dt-demos with tiny budget: no mastery, median must be None
    suite = {
        "domains": ["mc-addition"],
        "agents": ["dt-demos"],
        "seeds": [0],
        "problems": 3,
        "retrain_every": 5,
    }
    summary = run_ablation(suite, tmp_path / "out")
    cell = summary["mc-addition/dt-demos"]
    assert cell["median"] is None
    assert cell["n_no_mastery"] == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_train_and_mastery(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = cli_main(
        [
            "train",
            "--domain",
            "mc-addition",
            "--agent",
            "dipl",
            "--problems",
            "5",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert out.exists()
    rc = cli_main(["mastery", "--in", str(out), "--window", "3", "--threshold", "0.5"])
    assert rc == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed[-1] == "none" or printed[-1].isdigit()


def test_cli_ablate(tmp_path, capsys):
    config = tmp_path / "suite.json"
    config.write_text(
        json.dumps(
            {
                "domains": ["mc-addition"],
                "agents": ["dipl"],
                "seeds": [0],
                "problems": 4,
            }
        )
    )
    rc = cli_main(
        ["ablate", "--config", str(config), "--out-dir", str(tmp_path / "out")]
    )
    assert rc == 0
    assert (tmp_path / "out" / "summary.json").exists()
