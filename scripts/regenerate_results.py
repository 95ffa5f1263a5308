"""Regenerate every committed table in results/ from one recipe list.

Each table that a tagspot command makes is a (file name, argv) recipe in
RECIPES, run through the CLI at seed 20260819. The time-domain leakage
cross-check, which no command makes, is written last: its measure,
tagspot.scenario.measured_offset_leak, spins random tags by random
fractional carrier offsets and measures the power that lands outside each
tag's own carriers, within Monte Carlo noise of the expectation integral.

Takes no options: a new committed table is a new recipe, and other
parameters are explored with tagspot directly. From the repository root:

    python3 scripts/regenerate_results.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tagspot.analysis import expected_offset_leak
from tagspot.cli import _lines, _rows, main as cli_main
from tagspot.scenario import LEAK_TRIALS, measured_offset_leak

RESULTS = Path(__file__).resolve().parents[1] / "results"

SEED = 20260819

RECIPES = [
    ("leakage-closed-form.txt", ["leakage", "--max-offset", "8"]),
    ("carrier-sweep.txt",
     ["sweep", "--carriers", "56", "--snr", "0.0", "--trials", "100000", "--seed", str(SEED)]),
    *(
        # = form: a grid starting with a negative number is no option string
        (f"curves-{fading}.txt",
         ["curves", "--snr=-4,-2,-1,0,1,2,4,6", "--gamma=0.5,0.55,0.58,0.6,0.62,0.64,0.66,0.7",
          "--fading", fading, "--trials", "200000", "--seed", str(SEED)])
        for fading in ("wideband", "narrowband")
    ),
]

TIME_DOMAIN = "leakage-time-domain.txt"


def main() -> int:
    if sys.argv[1:]:
        print(f"takes no options, got {' '.join(sys.argv[1:])}\n{__doc__}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    for name, argv in RECIPES:
        out = RESULTS / name
        rc = cli_main([*argv, "--out", str(out)])
        if rc != 0:
            return rc
        print(f"wrote {out}")

    # the CLI's writers, with no config_version line: no command makes this table
    header = _lines([("command", "leakage time-domain cross-check"), ("trials", LEAK_TRIALS),
                     ("seed", SEED), ("columns", "max_offset expected measured")], "# ")
    rows = [(k, expected_offset_leak(k), measured_offset_leak(k, SEED)) for k in (1, 2, 4)]
    check = RESULTS / TIME_DOMAIN
    check.write_text(header + _rows(rows))
    print(f"wrote {check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
