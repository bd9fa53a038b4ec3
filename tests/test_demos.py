import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout
DEMO_STDOUT = {
    "01_graphs_and_neighborhoods.py": "a5afe5f5a2eb4bbf06a8faa3d0bd5db72d956f15c37c38e3c18d0a69829f1ed3",
    "02_local_maximum_stable_sets.py": "4b6b537bdd0a03414c9dc105ba7f4ccf952bae64e936c6389393d974fd54253f",
    "03_matchings_and_alternating_cycles.py": "64f803c57b84e31fd4a6f02459fa6b6b718c9b051b404a685c068d65a485ede5",
    "04_greedoid_decision.py": "0982ddaaba781fc0dc30dcf0243a0b9a565f0e8518200db4645f8ac8454354ac",
    "05_corpus_sweeps.py": "e7db968689dcc9fb7832753339c15d95efab3fad1e1789f538735c23664afb67",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT))
def test_demo_prints_its_pinned_stdout(demo):
    # under -O asserts and `if __debug__` blocks vanish; the stdout must not change
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-W", "error", str(ROOT / "demos" / demo)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert (proc.returncode, proc.stderr) == (0, b""), flags
        assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT[demo], flags
