"""The report contract: the digest of every run `tools/report_digests.py` makes,
committed as `tests/report_digests.txt` and compared with a fresh run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ROOT / "tests" / "report_digests.txt"
REGENERATE = "python3 tools/report_digests.py . --jobs 20 --seed 1 --write"


def _by_label(text: str) -> dict:
    return {label: digest for digest, label in (line.split("  ", 1) for line in text.splitlines())}


def test_report_digests_match_the_committed_file():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digests.py"), str(ROOT),
         "--jobs", "20", "--seed", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    committed = COMMITTED.read_text(encoding="utf-8")
    if done.stdout == committed:
        return
    got, want = _by_label(done.stdout), _by_label(committed)
    moved = [label for label in {**want, **got} if got.get(label) != want.get(label)]
    named = "\n  ".join(moved) if moved else "(none: the same lines in another order)"
    raise AssertionError(
        f"{len(moved)} report digest lines moved:\n  {named}\n"
        f"If the report bytes changed on purpose, regenerate the file with `{REGENERATE}` "
        "and review its diff as a golden change. The file digests perfbench jobs too, "
        "so a change to perfbench/workloads.py regenerates it as well."
    )
