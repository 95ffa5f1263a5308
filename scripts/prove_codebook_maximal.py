"""Prove that the built-in codebook cannot be extended.

Scans all 2^28 binary words of length 28 and counts those at Hamming
distance >= 13 from every word of builtin_codebook(). The count is 0, so no
word can join the family without lowering its minimum distance. The scan
takes about 30 s on a 2-core Xeon. Run from the repository root:

    python scripts/prove_codebook_maximal.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tagspot.codebook import builtin_codebook


def main() -> int:
    cb = builtin_codebook()
    packed = np.array([int(w, 2) for w in cb.words], dtype=np.uint32)
    total = 0
    n = 1 << cb.word_length
    chunk = 1 << 23
    for lo in range(0, n, chunk):
        cand = np.arange(lo, min(lo + chunk, n), dtype=np.uint32)
        ok = np.ones(cand.size, dtype=bool)
        for w in packed:
            ok &= np.bitwise_count(cand ^ w) >= cb.min_distance
            if not ok.any():
                break
        total += int(ok.sum())
    print(f"words at distance >= {cb.min_distance} from all {cb.size}: {total}")
    assert total == 0, "family unexpectedly extendable"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
