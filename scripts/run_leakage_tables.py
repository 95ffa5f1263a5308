"""Regenerate the frequency-offset leakage tables.

Two outputs: the closed-form table from the leakage calculators, and a
time-domain cross-check that synthesizes random tags, spins them by random
fractional carrier offsets, and measures how much power actually lands
outside each tag's own active carriers. The measured column should sit
within Monte Carlo noise of the expectation integral.

Run from the repository root:

    python scripts/run_leakage_tables.py [--trials N] [--seed S]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tagspot.analysis import expected_offset_leak
from tagspot.carriers import REFERENCE_LAYOUT
from tagspot.cli import main as cli_main
from tagspot.codebook import builtin_codebook, codeword_to_mask
from tagspot.channel import apply_cfo
from tagspot.detector import fold_spectrum
from tagspot.waveform import build_tag_spectrum, spectrum_of_body, synthesize_tag

RESULTS = Path(__file__).resolve().parents[1] / "results"


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
        wide = fold_spectrum(spectrum_of_body(body, layout), layout)
        own = wide[mask].sum()
        lost += 1.0 - own / wide.sum()
    return lost / trials


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-offset", type=int, default=8)
    parser.add_argument("--trials", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=20260819)
    args = parser.parse_args()

    RESULTS.mkdir(exist_ok=True)
    table = RESULTS / "leakage-closed-form.txt"
    rc = cli_main(["leakage", "--max-offset", str(args.max_offset), "--out", str(table)])
    if rc != 0:
        return rc
    print(f"wrote {table}")

    check = RESULTS / "leakage-time-domain.txt"
    lines = [
        "# command: leakage time-domain cross-check",
        f"# trials: {args.trials}",
        f"# seed: {args.seed}",
        "# columns: max_offset expected measured",
    ]
    for k in (1, 2, 4):
        expected = expected_offset_leak(k)
        measured = measured_leak(k, args.trials, args.seed)
        lines.append(f"{k} {expected:.9g} {measured:.9g}")
        print(f"max offset {k}: expected {expected:.5f}, measured {measured:.5f}")
    check.write_text("\n".join(lines) + "\n")
    print(f"wrote {check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
