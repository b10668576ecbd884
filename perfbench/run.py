"""Benchmark of dipl training runs, end to end and layer by layer.

    python3 perfbench/run.py --workload fractions-dipl --seed 0 --seconds 30 --trace 0

Each workload is a closed loop: one simulated student against one tutor,
where the next action waits for the reward of the last.  One operation is
one tutor problem.  A run repeats whole rounds of the workload while
another fits in --seconds (at least two), checks every round's output, and
prints one JSON object as its last line: `correct`, `attempted`, `failed`
and the end-to-end metrics (--trace 0) or the per-layer metrics from one
untraced and one traced round (--trace 1).  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench_out"
sys.path.insert(0, str(ROOT / "src"))

from dipl import cli, harness

if not Path(harness.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"dipl was imported from {harness.__file__}, not from {ROOT / 'src'}")

import checks
import tracer


@dataclass(frozen=True)
class Workload:
    domain: str
    agents: tuple
    problems: int
    tutor_seeds: tuple = (0,)
    retrain_every: int = 1
    suite: bool = False  # run through `dipl ablate` rather than run_training
    masters: bool | None = None  # paper property: must / must not master


# The measured students are fixed: one student's cost and learning curve
# vary up to sevenfold with its tutor seed (see README), far beyond any
# bound a comparison between runs could use.  --seed draws the problems
# of a short probe student that every run checks but does not time.
WORKLOADS = {
    "fractions-dipl": Workload("fractions", ("dipl",), 200, masters=True),
    "mc-howlhs": Workload("mc-addition", ("how-lhs",), 200),
    # retrain_every 15, not 20: at 20 the refits are 1.9% of events, so p98
    # falls on the slowest ordinary events and moved by a third between runs
    "fractions-dtdemos": Workload(
        "fractions", ("dt-demos",), 200, retrain_every=15, masters=False
    ),
    "mc-ablate": Workload(
        "mc-addition", ("dipl", "dipl-norel"), 120, tuple(range(10)), suite=True
    ),
}
PROBE_PROBLEMS = 20
PROBE_SEED_BASE = 1000

LAYER_METRICS = (
    "classifiers.fit_encoded",
    "classifiers.dt_fit_binary",
    "classifiers.predict",
    "when_learning.relative_featurize",
    "when_learning.absolute_featurize",
    "when_learning.shortest_paths",
    "when_learning.predict",
    "when_learning.add",
    "where_learning.candidates",
    "where_learning.match_or_create",
    "how_learning.evaluate",
    "how_learning.set_chaining",
    "env.new_problem",
    "env.step",
    "env.request_demo",
    "agents.act",
    "agents.learn",
    "harness.run_training",
    "harness.run_ablation",
)


def since_process_start() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - started
        if 0 < elapsed < 600:
            return elapsed
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - T0


class TimedLog:
    """The `log=` stream of run_training: keeps each transcript line and
    the time it was written."""

    def __init__(self):
        self.lines: list[str] = []
        self.stamps: list[float] = []

    def write(self, line: str):
        self.stamps.append(time.perf_counter())
        self.lines.append(line)


@dataclass
class Run:
    agent: str
    tutor_seed: int
    csv: str  # empty when the run aborted
    log: TimedLog

    @property
    def aborted(self) -> bool:
        return not self.csv


def csv_name(domain: str, agent: str, seed: int) -> str:
    # the name `dipl ablate` gives each run
    return f"run_{domain.replace('-', '_')}_{agent.replace('-', '_')}_{seed}.csv"


class Bench:
    def __init__(self, name: str, seed: int):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.dir = OUT / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.messages: list[str] = []

    # -- set-up ------------------------------------------------------------
    def setup(self) -> float:
        """Build the first tutor and agent (for the suite, after reading its
        config); return seconds since process start, imports included."""
        wl = self.wl
        if wl.suite:
            self.config = self.dir / "suite.json"
            self.config.write_text(json.dumps({
                "domains": [wl.domain],
                "agents": list(wl.agents),
                "seeds": list(wl.tutor_seeds),
                "problems": wl.problems,
            }))
            suite = json.loads(self.config.read_text())
            first = (suite["domains"][0], suite["agents"][0], suite["seeds"][0])
        else:
            first = (wl.domain, wl.agents[0], wl.tutor_seeds[0])
        cfg = self.config_for(*first, wl.problems)
        harness.make_env(cfg.domain, cfg.seed)
        harness.make_agent(cfg)
        elapsed = since_process_start()
        # deleting the files an earlier run just wrote can stall for a
        # fraction of a second, so the old outputs go after set-up is timed
        for old in self.dir.iterdir():
            if old.is_dir():
                shutil.rmtree(old)
        return elapsed

    def config_for(self, domain, agent, seed, problems):
        return harness.RunConfig(
            domain=domain, agent=agent, problems=problems, seed=seed,
            retrain_every=self.wl.retrain_every,
        )

    # -- rounds --------------------------------------------------------------
    def round(self, tag: str) -> tuple[float, list[Run]]:
        """One pass over the workload's students; returns the wall time of
        the training loop (of the whole ablate call, for the suite)."""
        out = self.dir / tag
        out.mkdir()
        if self.wl.suite:
            return self._suite_round(out)
        wall, runs = 0.0, []
        for agent in self.wl.agents:
            for seed in self.wl.tutor_seeds:
                w, run = self._train(out, agent, seed, self.wl.problems)
                wall += w
                runs.append(run)
        return wall, runs

    def _train(self, out: Path, agent: str, seed: int, problems: int):
        cfg = self.config_for(self.wl.domain, agent, seed, problems)
        log = TimedLog()
        start = time.perf_counter()
        try:
            records = harness.run_training(cfg, log=log)
        except harness.StepOverrunError as e:
            records = None
            self.messages.append(str(e))
        wall = time.perf_counter() - start
        path = out / csv_name(cfg.domain, agent, seed)
        csv = ""
        if records is not None:
            harness.write_csv(records, path)
            csv = path.read_text()
        path.with_suffix(".log").write_text("".join(log.lines))
        return wall, Run(agent, seed, csv, log)

    def _suite_round(self, out: Path):
        logs = {}
        inner = harness.run_training

        def with_log(cfg, log=None):
            logs[cfg.agent, cfg.seed] = log = TimedLog()
            return inner(cfg, log=log)

        harness.run_training = with_log
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["ablate", "--config", str(self.config), "--out-dir", str(out)])
            wall = time.perf_counter() - start
        finally:
            harness.run_training = inner
        runs = []
        for agent in self.wl.agents:
            for seed in self.wl.tutor_seeds:
                path = out / csv_name(self.wl.domain, agent, seed)
                csv = path.read_text() if path.exists() else ""
                runs.append(Run(agent, seed, csv, logs[agent, seed]))
                path.with_suffix(".log").write_text("".join(logs[agent, seed].lines))
        self.summary = json.loads((out / "summary.json").read_text())
        return wall, runs

    # -- checks --------------------------------------------------------------
    def failed_problems(self, runs: list[Run], problems: int) -> int:
        """Problems that failed: every problem of an aborted run, and each
        problem whose steps fail a check."""
        failed = 0
        for run in runs:
            if run.aborted:
                failed += problems
                continue
            env = harness.make_env(self.wl.domain, run.tutor_seed)
            fields = [
                checks.problem_fields(self.wl.domain, env.new_problem()[0])
                for _ in range(problems)
            ]
            bad, msgs = checks.check_run(fields, run.csv, run.log.lines)
            failed += len(bad)
            self.messages += [f"{run.agent} seed {run.tutor_seed}: {m}" for m in msgs]
        return failed

    def paper_properties(self, runs: list[Run]) -> bool:
        ok = True
        intercepts = {}
        for run in runs:
            if not run.aborted:
                errors = [r.error for r in checks.parse_csv(run.csv)]
                intercepts.setdefault(run.agent, []).append(checks.intercept(errors))
        if self.wl.masters is not None:
            for run_intercepts in intercepts.values():
                for i in run_intercepts:
                    if (i is not None) != self.wl.masters:
                        ok = False
                        self.messages.append(
                            f"mastery intercept {i}: the paper's "
                            f"{'agent masters' if self.wl.masters else 'baseline never masters'}"
                        )
        if self.wl.suite:
            med = {}
            for agent in self.wl.agents:
                cell = self.summary[f"{self.wl.domain}/{agent}"]
                med[agent] = checks.ranked_median(intercepts.get(agent, []))
                if not checks.suite_median_agrees(intercepts.get(agent, []), cell["median"]):
                    ok = False
                    self.messages.append(f"{agent}: summary median {cell['median']}, CSVs give {med[agent]}")
            if not med["dipl"] <= 50:
                ok = False
                self.messages.append(f"dipl median {med['dipl']} > 50")
            if not med["dipl-norel"] >= med["dipl"]:
                ok = False
                self.messages.append(f"dipl-norel median {med['dipl-norel']} < dipl {med['dipl']}")
        self.intercepts = intercepts
        return ok

    def probe(self) -> tuple[int, int]:
        """Train and check a short student on tutor problems drawn from
        --seed; returns (attempted, failed)."""
        out = self.dir / "probe"
        out.mkdir()
        seed = PROBE_SEED_BASE + self.seed
        _, run = self._train(out, self.wl.agents[0], seed, PROBE_PROBLEMS)
        return PROBE_PROBLEMS, self.failed_problems([run], PROBE_PROBLEMS)

    # -- metrics -------------------------------------------------------------
    def mastery_problem(self) -> float:
        """Median mastery intercept of the dipl students (all students when
        there is no dipl), a student that never masters ranked at the
        problem budget (the budget itself when every run aborted)."""
        agent = "dipl" if "dipl" in self.wl.agents else self.wl.agents[0]
        return checks.ranked_median(self.intercepts.get(agent, []), self.wl.problems)


def step_latencies_ms(rounds) -> list[float]:
    """Latency of each tutor event (agent act, tutor step, agent learn):
    the time between consecutive transcript writes, the lower of its two
    timings in the first two rounds.  Every round replays the same events,
    and other work on a shared host only ever adds time."""
    out = []
    for a, b in zip(rounds[0][1], rounds[1][1]):
        sa, sb = a.log.stamps, b.log.stamps
        out += [
            min(a1 - a0, b1 - b0) * 1000.0
            for a0, a1, b0, b1 in zip(sa, sa[1:], sb, sb[1:])
        ]
    return out


def same_output(a: list[Run], b: list[Run]) -> bool:
    return [(r.csv, r.log.lines) for r in a] == [(r.csv, r.log.lines) for r in b]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, seconds: float) -> dict:
    setup_s = bench.setup()
    wl = bench.wl
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(bench.round(f"round{len(rounds) + 1}"))
        elapsed = time.perf_counter() - start
        if len(rounds) >= 2 and elapsed + elapsed / len(rounds) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_round = len(wl.agents) * len(wl.tutor_seeds) * wl.problems
    first = rounds[0][1]
    failed = bench.failed_problems(first, wl.problems) * len(rounds)
    correct = bench.paper_properties(first)
    for _, runs in rounds[1:]:
        if not same_output(first, runs):
            correct = False
            bench.messages.append("rounds of the same inputs gave different outputs")
    probe_attempted, probe_failed = bench.probe()

    steps = step_latencies_ms(rounds)
    if len(steps) < 2:  # only when the runs abort at once
        steps = [0.0, 0.0]
    q = statistics.quantiles(steps, n=50)
    return {
        "correct": correct,
        "attempted": per_round * len(rounds) + probe_attempted,
        "failed": failed + probe_failed,
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "run_s": metric(statistics.median(w for w, _ in rounds), "s"),
            "step_ms_p50": metric(statistics.median(steps), "ms"),
            "step_ms_p98": metric(q[48], "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "mastery_problem": metric(bench.mastery_problem(), "problems"),
            "demos_requested": metric(
                sum(rec.demos for r in first if not r.aborted for rec in checks.parse_csv(r.csv)),
                "count",
            ),
        },
    }


def per_layer(bench: Bench) -> dict:
    bench.setup()
    wl = bench.wl
    plain_s, plain = bench.round("untraced")
    tr = tracer.Tracer()
    tr.install()
    try:
        traced_s, traced = bench.round("traced")
    finally:
        tr.uninstall()
    tr.save(bench.dir / "spans.npz")

    per_round = len(wl.agents) * len(wl.tutor_seeds) * wl.problems
    failed = bench.failed_problems(plain, wl.problems) * 2
    correct = bench.paper_properties(plain)
    if not same_output(plain, traced):
        correct = False
        bench.messages.append("traced and untraced rounds gave different CSVs or transcripts")

    table = tr.layer_table()
    (bench.dir / "layers.json").write_text(json.dumps(table, indent=1) + "\n")
    records = [rec for r in traced if not r.aborted for rec in checks.parse_csv(r.csv)]
    steps, demos = sum(r.steps for r in records), sum(r.demos for r in records)
    if tr.counts["rewarded"] != steps:
        correct = False
        bench.messages.append(f"env.step gave +1 {tr.counts['rewarded']} times; CSVs hold {steps} steps")
    if table["env.request_demo"]["calls"] != demos:
        correct = False
        bench.messages.append(f"{table['env.request_demo']['calls']} demo requests; CSVs hold {demos}")
    bad_trees = 0
    for tree, data, labels, n in tr.fits:
        if isinstance(data, tuple):
            bad_trees += checks.binary_fit_errors(tree, data[0], data[1], labels, n) > 0
        else:
            bad_trees += checks.encoded_fit_errors(tree, data, labels, n) > 0
    if bad_trees:
        correct = False
        bench.messages.append(f"{bad_trees} of {len(tr.fits)} trees mispredict a consistent training row")
    probe_attempted, probe_failed = bench.probe()

    metrics = {}
    for layer in LAYER_METRICS:
        row = table[layer]
        metrics[f"{layer}.calls"] = metric(row["calls"], "count")
        metrics[f"{layer}.total_s"] = metric(row["total_s"], "s")
        metrics[f"{layer}.self_s"] = metric(row["self_s"], "s")
    c = tr.counts
    predicts = table["when_learning.predict"]["calls"]
    matches = table["where_learning.match_or_create"]["calls"]
    metrics.update({
        "classifiers.fit_encoded.rows": metric(c["fit_rows"], "count"),
        "classifiers.dt_fit_binary.rows": metric(c["binary_rows"], "count"),
        "where_learning.candidates.bindings": metric(c["bindings"], "count"),
        "env.step.rewarded": metric(c["rewarded"], "count"),
        "when_learning.fire_ratio": metric(c["fired"] / predicts if predicts else 0.0, "ratio"),
        "where_learning.explained_ratio": metric(
            c["explained"] / matches if matches else 0.0, "ratio"
        ),
        "trace.spans": metric(tr.n_spans, "count"),
        "trace.overhead_s": metric(traced_s - plain_s, "s"),
    })
    return {
        "correct": correct,
        "attempted": 2 * per_round + probe_attempted,
        "failed": failed + probe_failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    bench = Bench(args.workload, args.seed)
    result = per_layer(bench) if args.trace else end_to_end(bench, args.seconds)
    for message in bench.messages:
        print(message, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
