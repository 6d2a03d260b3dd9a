"""Every benchmark file has a row in the per-file guide of docs/benchmarks.md."""

from __future__ import annotations

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[2]


def documented_benches() -> set[str]:
    guide = (REPO / "docs" / "benchmarks.md").read_text(encoding="utf-8")
    return set(re.findall(r"^\| `(bench_\w+\.py)` \|", guide, flags=re.MULTILINE))


def test_every_bench_file_has_a_guide_row():
    benches = {path.name for path in (REPO / "benchmarks").glob("bench_*.py")}
    assert benches, "no benchmarks/bench_*.py found"
    missing = sorted(benches - documented_benches())
    assert not missing, f"docs/benchmarks.md has no per-file row for {missing}"


def test_guide_rows_name_existing_files():
    stale = sorted(
        name for name in documented_benches()
        if not (REPO / "benchmarks" / name).exists()
    )
    assert not stale, f"docs/benchmarks.md documents missing files {stale}"
