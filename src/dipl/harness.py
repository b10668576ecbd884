"""Training loop, learning-curve metrics, and ablation orchestration.

Per-problem error follows the ITS convention: a step counts as correct
only when the agent's first emission for that step is an action that
earns +1.  Demo requests and wrong attempts mark the step incorrect, even
if the agent recovers within the step.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

from .agents import (
    AttemptResult,
    DEMO_REQUEST,
    DemoReceived,
    DiplAgent,
    DtDemosAgent,
    HowLhsAgent,
    fractions_schema,
    mc_addition_schema,
)
from .env_fractions import FractionsEnv, fractions_action_space
from .env_mc_addition import McAdditionEnv, mc_action_space
from .how_learning import FRACTIONS_FUNCS, MC_ADDITION_FUNCS
from .when_learning import EQUALS

MAX_ATTEMPTS_PER_STEP = 50

DOMAINS = ("fractions", "mc-addition")
AGENTS = ("dipl", "dipl-norel", "how-lhs", "dt-demos")
SUITE_LISTS = ("domains", "agents", "seeds")
# RunConfig settings a suite may give, as scalars or per-"domain/agent"
# dicts; a given value is converted to the type of its default
SUITE_SETTINGS = {
    "problems": 100, "window": 10, "threshold": 0.1,
    "implicit_negatives": True, "retrain_every": 1,
}

CSV_HEADER = "problem_idx,steps,first_try_correct,demos,error"


@dataclass
class RunRecord:
    problem_idx: int
    steps: int
    first_try_correct: int
    demos: int

    @property
    def error(self) -> float:
        return 1.0 - self.first_try_correct / self.steps

    def csv_line(self) -> str:
        return (
            f"{self.problem_idx},{self.steps},{self.first_try_correct},"
            f"{self.demos},{self.error:.6f}"
        )


@dataclass
class RunConfig:
    domain: str
    agent: str
    problems: int
    seed: int = 0
    window: int = 10
    threshold: float = 0.1
    implicit_negatives: bool = True
    retrain_every: int = 1

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain: {self.domain}")
        if self.agent not in AGENTS:
            raise ValueError(f"unknown agent: {self.agent}")
        if self.problems < 1:
            raise ValueError("problems must be >= 1")
        if self.retrain_every < 1:
            raise ValueError("retrain_every must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must be in (0, 1)")


def make_env(domain: str, seed: int):
    if domain == "fractions":
        return FractionsEnv(seed)
    return McAdditionEnv(seed)


def make_agent(cfg: RunConfig):
    if cfg.domain == "fractions":
        funcs, feature_funcs = FRACTIONS_FUNCS, [EQUALS]
    else:
        funcs, feature_funcs = MC_ADDITION_FUNCS, []
    if cfg.agent in ("dipl", "dipl-norel"):
        return DiplAgent(
            funcs,
            feature_funcs,
            relative=(cfg.agent == "dipl"),
            implicit_negatives=cfg.implicit_negatives,
        )
    if cfg.agent == "how-lhs":
        return HowLhsAgent(funcs, feature_funcs, retrain_every=cfg.retrain_every)
    if cfg.domain == "fractions":
        return DtDemosAgent(
            fractions_action_space(), fractions_schema(), cfg.retrain_every
        )
    return DtDemosAgent(mc_action_space(), mc_addition_schema(), cfg.retrain_every)


class StepOverrunError(RuntimeError):
    pass


def run_training(cfg: RunConfig, log=None) -> list[RunRecord]:
    env = make_env(cfg.domain, cfg.seed)
    agent = make_agent(cfg)
    records = []
    for pidx in range(1, cfg.problems + 1):
        env.new_problem()
        agent.start_problem()
        steps = first_try = demos = 0
        while not env.done:
            steps += 1
            first_attempt = True
            attempts = 0
            while True:
                attempts += 1
                if attempts > MAX_ATTEMPTS_PER_STEP:
                    raise StepOverrunError(
                        f"{cfg.domain}/{cfg.agent} seed {cfg.seed}: problem "
                        f"{pidx} step {steps} exceeded {MAX_ATTEMPTS_PER_STEP} attempts"
                    )
                out = agent.act(env.state)
                if out is DEMO_REQUEST:
                    demos += 1
                    demo = env.request_demo()
                    agent.learn(DemoReceived(env.state, demo))
                    env.step(demo.sai)
                    if log:
                        log.write(f"{pidx},{steps},demo,,{_sai_str(demo.sai)},1\n")
                    break
                reward, _ = env.step(out.sai)
                agent.learn(
                    AttemptResult(
                        env.state, out.sai, reward, out.skill, out.binding, out.fv
                    )
                )
                if log:
                    sid = out.skill.sid if out.skill else ""
                    log.write(
                        f"{pidx},{steps},attempt,{sid},{_sai_str(out.sai)},{reward}\n"
                    )
                if reward > 0:
                    if first_attempt:
                        first_try += 1
                    break
                first_attempt = False
        records.append(RunRecord(pidx, steps, first_try, demos))
    return records


def _sai_str(sai) -> str:
    return f"{sai.selection}:{sai.action}:{sai.input}"


def mastery_intercept(
    errors: list[float], window: int, threshold: float
) -> int | None:
    """Smallest 1-indexed n >= window whose trailing window mean is below
    the threshold; None if mastery is never reached."""
    if window < 1:
        raise ValueError("window must be >= 1")
    for n in range(window, len(errors) + 1):
        if sum(errors[n - window : n]) / window < threshold:
            return n
    return None


def write_csv(records: list[RunRecord], path):
    lines = [CSV_HEADER] + [r.csv_line() for r in records]
    Path(path).write_text("\n".join(lines) + "\n")


def read_errors_csv(path) -> list[float]:
    lines = Path(path).read_text().strip().splitlines()
    return [float(line.split(",")[4]) for line in lines[1:]]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    s = sorted(values)
    med = statistics.median(s)
    half = len(s) // 2
    q1 = statistics.median(s[:half]) if half else s[0]
    q3 = statistics.median(s[-half:]) if half else s[-1]
    return q1, med, q3


def run_ablation(suite: dict, out_dir) -> dict:
    """Run domains x agents x seeds, write per-run CSVs and summary.json.

    Suite keys: domains[], agents[], seeds[], problems, and optional
    window/threshold/implicit_negatives/retrain_every (scalars or
    per-"domain/agent" dicts).  Aborted runs become marked cells.  Unknown
    keys, empty or missing lists and invalid run settings raise ValueError
    before anything is written.
    """
    unknown = sorted(set(suite) - set(SUITE_LISTS) - set(SUITE_SETTINGS))
    if unknown:
        raise ValueError(f"unknown suite keys: {unknown}")
    for key in SUITE_LISTS:
        if not suite.get(key):
            raise ValueError(f"suite needs a non-empty {key!r} list")

    def setting(key, default, cell):
        v = suite.get(key, default)
        if isinstance(v, dict):
            return v.get(cell, v.get("default", default))
        return v

    # every run's config is built, and so validated, before any output
    cells = {}
    for domain in suite["domains"]:
        for agent in suite["agents"]:
            cell = f"{domain}/{agent}"
            settings = {
                key: type(default)(setting(key, default, cell))
                for key, default in SUITE_SETTINGS.items()
            }
            cells[cell] = [
                RunConfig(domain, agent, seed=seed, **settings)
                for seed in suite["seeds"]
            ]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = {}
    for cell, cfgs in cells.items():
        intercepts = []
        aborted = 0
        for cfg in cfgs:
            name = (
                f"run_{cfg.domain.replace('-', '_')}_"
                f"{cfg.agent.replace('-', '_')}_{cfg.seed}.csv"
            )
            try:
                records = run_training(cfg)
            except StepOverrunError:
                aborted += 1
                continue
            write_csv(records, out_dir / name)
            intercepts.append(
                mastery_intercept(
                    [r.error for r in records], cfg.window, cfg.threshold
                )
            )
        finite = [i for i in intercepts if i is not None]
        n_no_mastery = sum(1 for i in intercepts if i is None)
        ranked = sorted(intercepts, key=lambda i: float("inf") if i is None else i)
        med = ranked[(len(ranked) - 1) // 2] if ranked else None
        if len(ranked) % 2 == 0 and ranked and med is not None:
            other = ranked[len(ranked) // 2]
            med = (med + other) / 2 if other is not None else None
        q1 = q3 = None
        if finite and n_no_mastery == 0:
            q1, _, q3 = _quartiles(finite)
        summary[cell] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "n_runs": len(intercepts),
            "n_no_mastery": n_no_mastery,
            "n_aborted": aborted,
        }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary
