"""Regenerate every committed table in results/ from one recipe list.

Each table that a tagspot command makes is a (file name, argv) recipe in
RECIPES, run through the CLI at seed 20260819. The time-domain leakage
cross-check, which no command makes, is written last: it spins random tags
by random fractional carrier offsets and measures the power that lands
outside each tag's own carriers, which should sit within Monte Carlo noise
of the expectation integral.

Takes no options: a new committed table is a new recipe, and other
parameters are explored with tagspot directly. From the repository root:

    python3 scripts/regenerate_results.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tagspot.analysis import expected_offset_leak
from tagspot.carriers import REFERENCE_LAYOUT
from tagspot.cli import _lines, _rows, main as cli_main
from tagspot.codebook import builtin_codebook, codeword_to_mask
from tagspot.channel import apply_cfo
from tagspot.detector import fold_spectrum
from tagspot.waveform import build_tag_spectrum, spectrum_of_body, synthesize_tag

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
TIME_DOMAIN_TRIALS = 2000


def measured_leak(max_offset: float, trials: int, seed: int) -> float:
    """Mean out-of-own-carrier power fraction over random words and offsets."""
    layout = REFERENCE_LAYOUT
    codebook = builtin_codebook()
    rng = np.random.default_rng(seed)
    lost = 0.0
    for _ in range(trials):
        word = codebook.words[int(rng.integers(codebook.size))]
        mask = codeword_to_mask(word, layout)
        tag = synthesize_tag(build_tag_spectrum(mask, layout, 1.0, rng), layout)
        shifted = apply_cfo(tag, float(rng.uniform(0.0, max_offset)), layout)
        body = shifted.samples[layout.cp_len :]
        wide = fold_spectrum(np.abs(spectrum_of_body(body, layout)) ** 2, layout)
        own = wide[mask].sum()
        lost += 1.0 - own / wide.sum()
    return lost / trials


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
    header = _lines([("command", "leakage time-domain cross-check"), ("trials", TIME_DOMAIN_TRIALS),
                     ("seed", SEED), ("columns", "max_offset expected measured")], "# ")
    rows = [(k, expected_offset_leak(k), measured_leak(k, TIME_DOMAIN_TRIALS, SEED)) for k in (1, 2, 4)]
    check = RESULTS / TIME_DOMAIN
    check.write_text(header + _rows(rows))
    print(f"wrote {check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
