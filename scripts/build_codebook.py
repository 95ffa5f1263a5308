"""Regenerate the codebook file shipped in src/tagspot/data/.

Construction: a skew-symmetric conference matrix C of order 28 built from
the quadratic character of GF(27) (Paley's method, bordered). For skew C
with C C^T = 27 I, the rows of C + I and of -C + I, mapped {+1 -> 1,
-1 -> 0}, form 56 binary words of length 28 whose pairwise Hamming
distances live in {13, 14, 15, 27}, so the family has minimum distance
exactly 13.

An exhaustive scan over all 2^28 binary words shows that no further word
lies at distance >= 13 from all 56, so this family cannot be extended.
Pass --prove-maximal to rerun that scan (a few minutes).

Run from the repository root:

    python scripts/build_codebook.py [--prove-maximal]
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tagspot.codebook import Codebook, serialize_codebook

OUT = Path(__file__).resolve().parents[1] / "src" / "tagspot" / "data"
NAME = "conference-28-56-13"


def gf27_elements_and_mul():
    """GF(27) as GF(3)[x] / (x^3 - x - 1); elements are coefficient triples."""
    elements = list(itertools.product(range(3), repeat=3))

    def mul(u, v):
        c = [0] * 5
        for i in range(3):
            for j in range(3):
                c[i + j] = (c[i + j] + u[i] * v[j]) % 3
        # reduce with x^3 = x + 1 (hence x^4 = x^2 + x)
        c[0] = (c[0] + c[3]) % 3
        c[1] = (c[1] + c[3] + c[4]) % 3
        c[2] = (c[2] + c[4]) % 3
        return (c[0], c[1], c[2])

    return elements, mul


def conference_matrix_28() -> np.ndarray:
    elements, mul = gf27_elements_and_mul()
    squares = {mul(e, e) for e in elements if e != (0, 0, 0)}

    def chi(e):
        if e == (0, 0, 0):
            return 0
        return 1 if e in squares else -1

    q = 27
    quad = np.zeros((q, q), dtype=int)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            diff = tuple((y - x) % 3 for x, y in zip(a, b))
            quad[i, j] = chi(diff)
    c = np.zeros((28, 28), dtype=int)
    c[0, 1:] = 1
    c[1:, 0] = -1
    c[1:, 1:] = quad
    assert np.array_equal(c.T, -c), "matrix must be skew-symmetric"
    assert np.array_equal(c @ c.T, 27 * np.eye(28, dtype=int)), "C C^T must be 27 I"
    return c


def build_words() -> list[str]:
    c = conference_matrix_28()
    eye = np.eye(28, dtype=int)
    rows = np.vstack([c + eye, -c + eye])
    bits = (rows > 0).astype(np.uint8)
    return ["".join(str(b) for b in row) for row in bits]


def prove_maximal(words: list[str]) -> None:
    packed = np.array([int(w, 2) for w in words], dtype=np.uint32)
    total = 0
    n = 1 << 28
    chunk = 1 << 23
    for lo in range(0, n, chunk):
        cand = np.arange(lo, min(lo + chunk, n), dtype=np.uint32)
        ok = np.ones(cand.size, dtype=bool)
        for w in packed:
            ok &= np.bitwise_count(cand ^ w) >= 13
            if not ok.any():
                break
        total += int(ok.sum())
    print(f"words at distance >= 13 from all {len(words)}: {total}")
    assert total == 0, "family unexpectedly extendable"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prove-maximal", action="store_true")
    args = parser.parse_args()

    words = build_words()
    cb = Codebook(name=NAME, word_length=28, min_distance=13, words=tuple(sorted(words)))
    print(f"{len(words)} words, verified min distance {cb.measured_distance}")
    assert cb.measured_distance == 13

    if args.prove_maximal:
        prove_maximal(words)

    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"{NAME}.txt"
    out_path.write_text(serialize_codebook(cb))
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
