"""Constant-distance code families and their mapping onto carrier masks.

A codebook is a set of binary words, one bit per carrier group. Bit g of a
word selects which of group g's two carriers is activated, so two codewords
at Hamming distance d produce masks that differ in 2*d wide carriers.

Codebook file format: a small header followed by one bit string per line.

    name: conference-28-56-13
    word_length: 28
    min_distance: 13
    0000110100101001011011100011
    ...

Blank lines and lines starting with '#' are ignored when reading. The
canonical serialization emits exactly the three header fields above followed
by the words in lexicographic order, which makes load -> serialize a
byte-identical round trip for canonical files. Loading always re-verifies
the declared minimum distance by brute force over all word pairs.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .carriers import CarrierLayout, WideCarrierMask

BUILTIN_CODEBOOK = "conference-28-56-13.txt"


class CodebookError(ValueError):
    """Raised for malformed or internally inconsistent codebook data."""


@dataclass(frozen=True)
class Codebook:
    """An ordered family of binary codewords with a declared distance floor.

    The word order is meaningful: detection events refer to codewords by
    their index in this order.
    """

    name: str
    word_length: int
    min_distance: int
    words: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise CodebookError("codebook name must be nonempty")
        if self.word_length <= 0:
            raise CodebookError("word_length must be positive")
        if not 1 <= self.min_distance <= self.word_length:
            raise CodebookError(
                f"min_distance {self.min_distance} out of range for "
                f"word_length {self.word_length}"
            )
        if not self.words:
            raise CodebookError("codebook contains no words")
        for i, w in enumerate(self.words):
            if len(w) != self.word_length:
                raise CodebookError(
                    f"word {i} has length {len(w)}, expected {self.word_length}"
                )
            if set(w) - {"0", "1"}:
                raise CodebookError(f"word {i} contains non-binary characters")
        seen: dict[str, int] = {}
        for i, w in enumerate(self.words):
            if w in seen:
                raise CodebookError(f"duplicate word at indices {seen[w]} and {i}")
            seen[w] = i

    @property
    def size(self) -> int:
        return len(self.words)


def _word_bits(words: "Sequence[str]") -> np.ndarray:
    """Equal-length words of '0' and '1' characters as a (words, length)
    uint8 array of bits."""
    if len({len(w) for w in words}) > 1:
        raise CodebookError("words differ in length")
    # bytes below '0' wrap around, so one comparison catches every non-bit
    bits = np.frombuffer("".join(words).encode(), dtype=np.uint8) - ord("0")
    if np.any(bits > 1):
        raise CodebookError("words contain non-binary characters")
    return bits.reshape(len(words), -1)


def _closest_pair(words: "Sequence[str]") -> "tuple[int, int, int]":
    """Minimum pairwise Hamming distance and the indices (i, j) of a pair
    of words at that distance, brute forced over all pairs."""
    if len(words) < 2:
        raise CodebookError("need at least two words to measure a distance")
    bits = _word_bits(words).astype(np.int64)
    weights = bits.sum(axis=1)
    gram = bits @ bits.T
    dist = weights[:, None] + weights[None, :] - 2 * gram
    np.fill_diagonal(dist, np.iinfo(np.int64).max)
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    return int(dist[i, j]), int(i), int(j)


def verify_min_distance(words: "Sequence[str]") -> int:
    """Minimum pairwise Hamming distance, brute forced over all pairs."""
    return _closest_pair(words)[0]


def parse_codebook(text: str) -> Codebook:
    """Parse codebook file content and verify the declared distance."""
    header: dict[str, str] = {}
    words: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" in line and not set(line) <= {"0", "1"}:
            key, _, value = line.partition(":")
            key = key.strip()
            if key in header:
                raise CodebookError(f"line {lineno}: repeated header field {key!r}")
            if words:
                raise CodebookError(f"line {lineno}: header field after words")
            header[key] = value.strip()
        else:
            words.append(line)
    missing = {"name", "word_length", "min_distance"} - set(header)
    if missing:
        raise CodebookError(f"missing header fields: {sorted(missing)}")
    try:
        word_length = int(header["word_length"])
        min_distance = int(header["min_distance"])
    except ValueError as exc:
        raise CodebookError(f"non-integer header field: {exc}") from exc
    cb = Codebook(
        name=header["name"],
        word_length=word_length,
        min_distance=min_distance,
        words=tuple(words),
    )
    if cb.size >= 2:
        distance, i, j = _closest_pair(cb.words)
        if distance < cb.min_distance:
            raise CodebookError(
                f"declared min_distance {cb.min_distance} violated by words "
                f"{i} and {j} at distance {distance}"
            )
    return cb


def load_codebook(path: "str | Path") -> Codebook:
    return parse_codebook(Path(path).read_text())


def serialize_codebook(cb: Codebook) -> str:
    """Canonical text form: fixed header order, words sorted."""
    lines = [
        f"name: {cb.name}",
        f"word_length: {cb.word_length}",
        f"min_distance: {cb.min_distance}",
    ]
    lines.extend(sorted(cb.words))
    return "\n".join(lines) + "\n"


def save_codebook(cb: Codebook, path: "str | Path") -> None:
    Path(path).write_text(serialize_codebook(cb))


def builtin_codebook() -> Codebook:
    """The codebook shipped with the package."""
    ref = importlib.resources.files("tagspot").joinpath("data", BUILTIN_CODEBOOK)
    return parse_codebook(ref.read_text())


def codeword_to_mask(word: str, layout: CarrierLayout) -> WideCarrierMask:
    """Map one codeword to its wide-carrier mask.

    Bit g selects a carrier from group g: '0' the lower-frequency carrier,
    '1' the higher one. The resulting mask has weight layout.groups.
    """
    if len(word) != layout.groups:
        raise CodebookError(
            f"word length {len(word)} != layout groups {layout.groups}"
        )
    if set(word) - {"0", "1"}:
        raise CodebookError("word contains non-binary characters")
    active = frozenset(
        pair[int(bit)] for bit, pair in zip(word, layout.group_map)
    )
    mask = WideCarrierMask(active)
    mask.validate(layout)
    return mask


def mask_matrix(cb: Codebook, layout: CarrierLayout) -> np.ndarray:
    """Stacked masks as a (size, wide_total) boolean array.

    Row t is True on the wide carriers activated by codeword t. Shared by
    the detector and the analysis Monte Carlo code.
    """
    if cb.word_length != layout.groups:
        raise CodebookError(
            f"codebook word length {cb.word_length} != layout groups "
            f"{layout.groups}"
        )
    bits = _word_bits(cb.words)
    pairs = np.array(layout.group_map)
    out = np.zeros((cb.size, layout.wide_total), dtype=bool)
    out[np.arange(cb.size)[:, None], pairs[np.arange(layout.groups), bits]] = True
    return out


def generate_fallback_family(
    word_length: int,
    target_distance: int,
    rng_seed: int,
    max_words: int = 64,
) -> Codebook:
    """Greedy random code family with verified distance >= target_distance.

    Used when no better family is available for a given geometry. Candidates
    are drawn from a seeded generator (complements of accepted words are
    tried first, which handles the extreme target_distance == word_length
    case); a candidate is kept when it clears the target distance against
    every accepted word, and the search stops after 200,000 candidates. The
    resulting size depends on the target and seed and is reported honestly
    in the name; it may be far below max_words.
    """
    if word_length <= 0:
        raise CodebookError("word_length must be positive")
    if not 1 <= target_distance <= word_length:
        raise CodebookError("target_distance out of range")
    if max_words < 2:
        raise CodebookError("max_words must be at least 2")
    rng = np.random.default_rng(rng_seed)
    accepted: list[np.ndarray] = [rng.integers(0, 2, word_length, dtype=np.uint8)]
    pending_complements = [1 - accepted[0]]
    tried = 0
    while len(accepted) < max_words and tried < 200_000:
        if pending_complements:
            cand = pending_complements.pop(0)
        else:
            cand = rng.integers(0, 2, word_length, dtype=np.uint8)
        tried += 1
        stacked = np.array(accepted, dtype=np.int64)
        dists = np.abs(stacked - cand.astype(np.int64)).sum(axis=1)
        if dists.min() >= target_distance:
            accepted.append(cand)
            pending_complements.append(1 - cand)
    words = tuple(sorted("".join(str(int(b)) for b in w) for w in accepted))
    if len(accepted) >= 2:
        verified = verify_min_distance(words)
    else:
        verified = target_distance
    name = f"fallback-{word_length}-{len(words)}-{verified}"
    return Codebook(
        name=name,
        word_length=word_length,
        min_distance=verified,
        words=words,
    )
