"""Count the net source lines of ``src/tagweaver``, module by module.

A line counts when it is not blank and its first non-blank character is
not ``#``; docstrings count.  This is the ``src_loc`` of the ``BENCH_*.json``
records.  Run from anywhere::

    python tools/src_loc.py
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tagweaver"


def net_lines(path: Path) -> int:
    stripped = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in stripped if line and not line.startswith("#"))


def main() -> int:
    counts = {path.name: net_lines(path) for path in sorted(SRC.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
