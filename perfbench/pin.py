"""Regenerate ``pinned.json``: the digests every run is checked against.

Usage, from the root of a checkout::

    python3 perfbench/pin.py

For each of the ``PINNED_SEEDS`` input seeds it records one digest per
``measure_large`` cell (rate, ticks and beta bracket) and per
``saturate`` family (both sweep curves and the many-seed batch), at
full and at smoke size.  Re-pin only on purpose, when a change is meant
to alter results, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from common import digest  # noqa: E402
from inproc import (  # noqa: E402
    LARGE_CELLS,
    PINNED,
    PINNED_SEEDS,
    SAT_FAMILIES,
    SAT_SIZE,
    SMOKE_LARGE_CELLS,
    SMOKE_SAT_SIZE,
    large_cell,
    saturate_family,
)


def tables(smoke: bool) -> dict:
    cells = SMOKE_LARGE_CELLS if smoke else LARGE_CELLS
    size = SMOKE_SAT_SIZE if smoke else SAT_SIZE
    large, sat = {}, {}
    for seed in range(PINNED_SEEDS):
        large[str(seed)] = [digest(large_cell(f, n, seed)) for f, n in cells]
        sat[str(seed)] = [digest(saturate_family(f, size, seed)[0]) for f in SAT_FAMILIES]
        print(f"pinned seed {seed}", file=sys.stderr, flush=True)
    return {"measure_large": large, "saturate": sat}


def main() -> None:
    pinned: dict = {}
    for mode in ("smoke", "full"):
        for workload, table in tables(mode == "smoke").items():
            pinned.setdefault(workload, {})[mode] = table
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
