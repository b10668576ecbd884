"""Fast tests of the benchmark's own checks.

    python3 -m pytest -q perfbench

A transcript with one wrong +1 value, or with a problem that never
presses `done`, must fail the checks; real runs must pass them.
"""

import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dipl import classifiers, harness

import checks


def _run(tmp_path, domain, agent, problems=6, seed=0):
    cfg = harness.RunConfig(domain=domain, agent=agent, problems=problems, seed=seed)
    log = io.StringIO()
    path = tmp_path / "run.csv"
    harness.write_csv(harness.run_training(cfg, log=log), path)
    env = harness.make_env(domain, seed)
    fields = [checks.problem_fields(domain, env.new_problem()[0]) for _ in range(problems)]
    return fields, path.read_text(), log.getvalue().splitlines(keepends=True)


@pytest.mark.parametrize(
    "domain,agent", [("fractions", "dipl"), ("mc-addition", "dipl"), ("mc-addition", "how-lhs")]
)
def test_real_runs_pass(tmp_path, domain, agent):
    fields, csv, transcript = _run(tmp_path, domain, agent)
    assert checks.check_run(fields, csv, transcript) == (set(), [])


@pytest.mark.parametrize("domain", ["fractions", "mc-addition"])
def test_wrong_plus_one_value_fails(tmp_path, domain):
    fields, csv, transcript = _run(tmp_path, domain, "dipl")
    i = next(
        i for i, line in enumerate(transcript)
        if line.rstrip().endswith(",1") and line.rsplit(":", 1)[1].split(",")[0].isdigit()
    )
    head, value_and_reward = transcript[i].rsplit(":", 1)
    value, reward = value_and_reward.split(",")
    transcript[i] = f"{head}:{int(value) + 1},{reward}"
    failed, messages = checks.check_run(fields, csv, transcript)
    problem = int(transcript[i].split(",")[0])
    assert failed == {problem}
    assert any("expected" in m for m in messages)


def test_missing_done_fails(tmp_path):
    fields, csv, transcript = _run(tmp_path, "fractions", "dipl")
    done = [i for i, line in enumerate(transcript) if line.startswith("2,") and ",done:" in line]
    assert len(done) == 1
    del transcript[done[0]]
    failed, messages = checks.check_run(fields, csv, transcript)
    assert failed == {2}
    assert "problem 2: does not end with done" in messages


def test_addition_fields_work_carries_column_by_column():
    assert checks.addition_fields(123, 456) == {
        "answer_ones": "9", "answer_tens": "7", "answer_hund": "5",
    }
    assert checks.addition_fields(456, 789) == {
        "answer_ones": "5", "carry_tens": "1",
        "answer_tens": "4", "carry_hund": "1",
        "answer_hund": "2", "carry_thou": "1",
        "answer_thou": "1",
    }


def test_fraction_fields():
    assert checks.fraction_fields(2, 5, 3, 7, "*") == {"answer_num": "6", "answer_den": "35"}
    assert checks.fraction_fields(2, 5, 4, 5, "+") == {"answer_num": "6", "answer_den": "5"}
    assert checks.fraction_fields(2, 3, 3, 4, "+") == {
        "check_convert": "x",
        "conv_num1": "8", "conv_den1": "12",
        "conv_num2": "9", "conv_den2": "12",
        "answer_num": "17", "answer_den": "12",
    }


def test_suite_median_matches_summary_convention():
    assert checks.suite_median_agrees([12, 14], 13.0)
    assert checks.suite_median_agrees([12, None], None)
    assert not checks.suite_median_agrees([12, None], 12)
    assert checks.suite_median_agrees([12, 20, None], 20)


def test_tree_check_catches_a_tree_fitted_to_other_labels():
    data = [({"a": "1", "b": "x"}, "pos"), ({"a": "2", "b": "x"}, "neg"), ({"a": "3"}, "pos")]
    enc = classifiers.Encoder()
    for fv, label in data:
        enc.add(fv, label)
    tree = classifiers.fit_encoded(enc)
    assert checks.encoded_fit_errors(tree, enc, enc.labels, 3) == 0
    flipped = ["neg" if label == "pos" else "pos" for label in enc.labels]
    assert checks.encoded_fit_errors(tree, enc, flipped, 3) == 3
