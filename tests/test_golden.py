"""Behaviour fingerprints: md5 of the CSV and of the `log=` transcript of a
30-problem, seed-0 training run for every domain x agent.

The digests were recorded before the two tree builders were merged into
one.  Any change that moves a learning curve, a demo, a proposal or a
reward changes a digest, so a refactor or speed change that must leave
behaviour alone fails here in seconds rather than in the acceptance gate.
"""

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dipl.harness import RunConfig, run_training, write_csv

PROBLEMS, SEED = 30, 0

# (domain, agent) -> (md5 of write_csv output, md5 of the transcript)
GOLDEN = {
    ("fractions", "dipl"): ("c3549c6b4a79612c59a5ae571d63da28", "6485eb8ddaf3ac3f51b587536510c360"),
    ("fractions", "dipl-norel"): ("a9936693fd2619b76bd1c3528eecd404", "c7cf3bb8cc63cc8789773fe9d41814eb"),
    ("fractions", "how-lhs"): ("8488a5cbb1c88fa86fefa739ce0db338", "097c812518c2558cdb5221ed3c1159f0"),
    ("fractions", "dt-demos"): ("5c1c45a3ad1d16e00c5a0c941392f90b", "0b64a6153d6ad67a76b75db52ff1390b"),
    ("mc-addition", "dipl"): ("267ab4b0b84f4bea2b835592e319e31a", "37a2bd882ff0bdb6060b5f2adfeab16b"),
    ("mc-addition", "dipl-norel"): ("45da4472047447f51ad7644a4ff62c26", "7bb3edbc9a49e1652c0ac5ab9add7a5d"),
    ("mc-addition", "how-lhs"): ("532493051aa24397aa13b6a8b7a00a54", "b6778379030c3365e860c8caacd21e4c"),
    ("mc-addition", "dt-demos"): ("7c771250835424745c264aba69f0ae70", "19f7bd5f6f9eb6d1e9b02350cd80ccca"),
}


def fingerprint(domain: str, agent: str, tmp_dir) -> tuple[str, str]:
    log = io.StringIO()
    records = run_training(
        RunConfig(domain=domain, agent=agent, problems=PROBLEMS, seed=SEED), log=log
    )
    path = Path(tmp_dir) / "run.csv"
    write_csv(records, path)
    return (
        hashlib.md5(path.read_bytes()).hexdigest(),
        hashlib.md5(log.getvalue().encode()).hexdigest(),
    )


@pytest.mark.parametrize("domain,agent", sorted(GOLDEN))
def test_golden_fingerprint(domain, agent, tmp_path):
    assert fingerprint(domain, agent, tmp_path) == GOLDEN[(domain, agent)]


@pytest.mark.parametrize("hash_seed", ["1", "12345"])
def test_golden_fingerprint_across_hash_seeds(hash_seed, tmp_path):
    """String hashing must not reach the learner: a fresh interpreter with
    another PYTHONHASHSEED reproduces the pinned digests."""
    tests_dir = Path(__file__).resolve().parent
    src_dir = tests_dir.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), str(tests_dir), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys; from test_golden import fingerprint; "
        "print(*fingerprint('fractions', 'dipl', sys.argv[1]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert tuple(out) == GOLDEN[("fractions", "dipl")]
