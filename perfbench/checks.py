"""Correctness checks that do not take the program's word for anything.

The value each tutor field must hold comes from the benchmark's own
arithmetic on the problem operands (digit sums and carries, fraction
products and sums).  Mastery intercepts and suite medians come from the
benchmark's own trailing-window code over the written CSVs.  Trees are
checked against the rows they were fitted on.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

CSV_HEADER = "problem_idx,steps,first_try_correct,demos,error"
WINDOW = 10
THRESHOLD = 0.1


def fraction_fields(n1: int, d1: int, n2: int, d2: int, op: str) -> dict[str, str]:
    """Field -> value for one fraction problem; unequal denominators are
    converted to the common denominator d1*d2 first."""
    if op == "*":
        return {"answer_num": str(n1 * n2), "answer_den": str(d1 * d2)}
    if d1 == d2:
        return {"answer_num": str(n1 + n2), "answer_den": str(d1)}
    den = str(d1 * d2)
    return {
        "check_convert": "x",
        "conv_num1": str(n1 * d2),
        "conv_den1": den,
        "conv_num2": str(n2 * d1),
        "conv_den2": den,
        "answer_num": str(n1 * d2 + n2 * d1),
        "answer_den": den,
    }


def addition_fields(a: int, b: int) -> dict[str, str]:
    """Field -> value for a + b worked column by column with carries."""
    fields = {}
    carry = 0
    for place, nxt, scale in (("ones", "tens", 1), ("tens", "hund", 10), ("hund", "thou", 100)):
        s = a // scale % 10 + b // scale % 10 + carry
        fields[f"answer_{place}"] = str(s % 10)
        carry = s // 10
        if carry:
            fields[f"carry_{nxt}"] = str(carry)
    if carry:
        fields["answer_thou"] = str(carry)
    return fields


def problem_fields(domain: str, problem) -> dict[str, str]:
    if domain == "fractions":
        return fraction_fields(problem.n1, problem.d1, problem.n2, problem.d2, problem.op)
    return addition_fields(problem.a, problem.b)


@dataclass
class Record:
    problem_idx: int
    steps: int
    first_try_correct: int
    demos: int
    error_text: str

    @property
    def error(self) -> float:
        return 1.0 - self.first_try_correct / self.steps


def parse_csv(text: str) -> list[Record]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("run CSV has no header line")
    out = []
    for line in lines[1:]:
        idx, steps, ftc, demos, err = line.split(",")
        out.append(Record(int(idx), int(steps), int(ftc), int(demos), err))
    return out


def check_run(fields: list[dict[str, str]], csv_text: str, transcript: list[str]):
    """Check one training run, problem by problem.

    `fields[p]` is what problem p+1 must fill.  Returns the set of problem
    indices that failed a check and one message per failure.
    """
    records = parse_csv(csv_text)
    if [r.problem_idx for r in records] != list(range(1, len(fields) + 1)):
        return set(range(1, len(fields) + 1)), ["CSV does not list every problem once"]
    events = defaultdict(list)
    for line in transcript:
        pidx, step, kind, _sid, sai, reward = line.rstrip("\n").split(",")
        selection, action, value = sai.split(":", 2)
        events[int(pidx)].append((int(step), kind, selection, action, value, int(reward)))
    stray = set(events) - {r.problem_idx for r in records}
    failed, messages = set(), []
    if stray:
        messages.append(f"transcript names problems outside the run: {sorted(stray)}")
    for want, rec in zip(fields, records):
        errs = _check_problem(want, rec, events.get(rec.problem_idx, []))
        if errs:
            failed.add(rec.problem_idx)
            messages += [f"problem {rec.problem_idx}: {e}" for e in errs]
    return failed, messages


def _check_problem(want: dict[str, str], rec: Record, events) -> list[str]:
    errs = []
    filled = {}
    done = False
    first_of_step = {}
    for step, kind, selection, action, value, reward in events:
        first_of_step.setdefault(step, (kind, reward))
        if done:
            errs.append("event after done")
        if reward != 1:
            continue
        if selection == "done":
            if action != "PressButton":
                errs.append(f"done entered with {action}")
            if filled.keys() != want.keys():
                errs.append(f"done pressed with {sorted(want.keys() - filled.keys())} empty")
            done = True
        elif selection not in want:
            errs.append(f"+1 on field {selection}, which this problem does not use")
        elif value != want[selection]:
            errs.append(f"+1 on {selection}={value}, expected {want[selection]}")
        elif selection in filled:
            errs.append(f"+1 on {selection} twice")
        else:
            filled[selection] = value
    if not events or events[-1][2] != "done" or events[-1][5] != 1:
        errs.append("does not end with done")
    if rec.steps != len(want) + 1:
        errs.append(f"steps {rec.steps}, expected {len(want) + 1}")
    if sorted(first_of_step) != list(range(1, rec.steps + 1)):
        errs.append("transcript steps do not match the CSV")
    demos = sum(1 for e in events if e[1] == "demo")
    if rec.demos != demos:
        errs.append(f"CSV demos {rec.demos}, transcript {demos}")
    first_try = sum(1 for k, r in first_of_step.values() if k == "attempt" and r == 1)
    if rec.first_try_correct != first_try:
        errs.append(f"CSV first_try_correct {rec.first_try_correct}, transcript {first_try}")
    if rec.error_text != f"{rec.error:.6f}":
        errs.append(f"CSV error {rec.error_text}, expected {rec.error:.6f}")
    return errs


def intercept(errors: list[float], window: int = WINDOW, threshold: float = THRESHOLD):
    """First 1-indexed problem n >= window whose trailing mean error is
    below threshold, or None."""
    for n in range(window, len(errors) + 1):
        if sum(errors[n - window : n]) / window < threshold:
            return n
    return None


def ranked_median(intercepts: list, never: float = float("inf")) -> float:
    """Median mastery intercept, a run that never masters ranked at `never`
    (also the result when there are no runs)."""
    s = sorted(never if i is None else i for i in intercepts) or [never]
    n = len(s)
    return (s[(n - 1) // 2] + s[n // 2]) / 2


def suite_median_agrees(intercepts: list, reported) -> bool:
    """`summary.json` reports null when a middle run never masters; any
    other median must equal the one computed here."""
    med = ranked_median(intercepts)
    if med == float("inf"):
        return reported is None
    return reported == med


def _consistent_rows(keys: list, labels: list) -> list[int]:
    """Rows whose feature values never occur with another label."""
    seen = defaultdict(set)
    for key, label in zip(keys, labels):
        seen[key].add(label)
    return [i for i, key in enumerate(keys) if len(seen[key]) == 1]


def encoded_fit_errors(tree, enc, labels, n: int) -> int:
    """Rows of an `Encoder` fit whose own label the tree does not predict."""
    rows = enc.rows[:n]
    keys = [tuple(row[: max((j + 1 for j, c in enumerate(row) if c), default=0)]) for row in rows]
    bad = 0
    for i in _consistent_rows(keys, labels[:n]):
        fv = {enc.feature_names[j]: enc.value_names[j][c] for j, c in enumerate(rows[i]) if c}
        bad += tree.predict(fv)[0] != labels[i]
    return bad


class _OnSlots:
    """Feature vector of one binary row: "1" for its on slots, else "0"."""

    def __init__(self, on: set[int], slot_of: dict[str, int]):
        self.on, self.slot_of = on, slot_of

    def get(self, name, default=None):
        return "1" if self.slot_of[name] in self.on else "0"


def binary_fit_errors(tree, X, feature_names, labels, n: int) -> int:
    """Rows of a `dt_fit_binary` fit whose own label the tree does not predict."""
    slot_of = {name: j for j, name in enumerate(feature_names)}
    keys = [tuple(X.indices[X.indptr[i] : X.indptr[i + 1]]) for i in range(n)]
    bad = 0
    for i in _consistent_rows(keys, labels[:n]):
        bad += tree.predict(_OnSlots(set(keys[i]), slot_of))[0] != labels[i]
    return bad
