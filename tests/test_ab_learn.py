"""Smoke test of ``scripts/ab_learn.py``: one round of the repository against itself."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_round_of_the_repository_against_itself():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_learn.py"), str(ROOT), str(ROOT),
         "--workload", "learn-small", "--rounds", "1"],
        capture_output=True, text=True, timeout=120, check=True)
    last = result.stdout.splitlines()[-1]
    assert re.fullmatch(r"learn-small: median time ratio change/parent \d+\.\d{4}, "
                        r"change won [01] of 1 rounds, block ms quartiles "
                        r"parent (\d+\.\d/){2}\d+\.\d change (\d+\.\d/){2}\d+\.\d, "
                        r"traced peak MiB parent \d+\.\d\d change \d+\.\d\d", last), last
