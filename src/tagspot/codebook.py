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
byte-identical round trip for canonical files. Every Codebook, loaded or
built in code, verifies its declared minimum distance on construction.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .carriers import CarrierLayout

BUILTIN_CODEBOOK = "conference-28-56-13.txt"


class CodebookError(ValueError):
    """Raised for malformed or internally inconsistent codebook data."""


@dataclass(frozen=True)
class Codebook:
    """An ordered family of binary codewords with a verified distance floor.

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
        length = _word_bits(self.words).shape[1]
        if length != self.word_length:
            raise CodebookError(
                f"words have length {length}, expected {self.word_length}"
            )
        # a repeated word is at distance 0, below every legal min_distance
        if len(self.words) >= 2:
            distance, i, j = _closest_pair(self.words)
            if distance < self.min_distance:
                raise CodebookError(
                    f"declared min_distance {self.min_distance} violated by words "
                    f"{i} and {j} at distance {distance}"
                )

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
    return Codebook(
        name=header["name"],
        word_length=word_length,
        min_distance=min_distance,
        words=tuple(words),
    )


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


def _masks(words: "Sequence[str]", layout: CarrierLayout) -> np.ndarray:
    """The map from codeword bits to carriers, as a (words, wide_total)
    boolean array: row t is True on the wide carriers word t activates.

    Bit g selects a carrier from group g: '0' the lower-frequency carrier,
    '1' the higher one, so every row has weight layout.groups.
    """
    bits = _word_bits(words)
    if bits.shape[1] != layout.groups:
        raise CodebookError(
            f"word length {bits.shape[1]} != layout groups {layout.groups}"
        )
    pairs = np.array(layout.group_map)
    out = np.zeros((len(words), layout.wide_total), dtype=bool)
    out[np.arange(len(words))[:, None], pairs[np.arange(layout.groups), bits]] = True
    return out


def codeword_to_mask(word: str, layout: CarrierLayout) -> np.ndarray:
    """One codeword's mask: a boolean row over the wide carriers."""
    return _masks((word,), layout)[0]


def mask_matrix(cb: Codebook, layout: CarrierLayout) -> np.ndarray:
    """Stacked masks as a (size, wide_total) boolean array.

    Row t is codeword t's mask. Shared by the detector and the analysis
    Monte Carlo code.
    """
    return _masks(cb.words, layout)
