"""Constant-distance code families and their mapping onto carrier masks.

A codebook is a set of binary words, one bit per carrier group. Bit g of a
word selects which of group g's two carriers is activated, so two codewords
at Hamming distance d produce masks that differ in 2*d wide carriers.

The built-in family, conference-28-56-13, is built here from a skew
conference matrix C of order 28: Paley's construction from the quadratic
character of GF(27) = GF(3)[x] / (x^3 - x - 1), bordered. C is skew and
C C^T = 27 I, so the rows of C + I and of -C + I, mapped {+1 -> 1, -1 -> 0},
are 56 words of length 28 whose pairwise Hamming distances lie in
{13, 14, 15, 27}: the minimum distance is exactly 13. An exhaustive scan of
all 2^28 words finds none at distance >= 13 from all 56, so the family is
maximal; scripts/prove_codebook_maximal.py reruns that scan.

Codebook file format: a small header followed by one bit string per line.

    name: conference-28-56-13
    word_length: 28
    min_distance: 13
    0000110100101001011011100011
    ...

Blank lines and lines starting with '#' are ignored when reading. The
canonical serialization emits exactly the three header fields above followed
by the words in lexicographic order, which makes load -> serialize a
byte-identical round trip for canonical files. The word_length header must
match the words. Every Codebook verifies its claimed distance on creation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .carriers import CarrierLayout

_HEADER_FIELDS = ("name", "word_length", "min_distance")  # each exactly once, before the words


@dataclass(frozen=True)
class Codebook:
    """An ordered family of binary codewords with a verified distance floor.

    The word order is meaningful: detection events refer to codewords by
    their index in this order. word_length and measured_distance, the
    closest pair's Hamming distance (None for one word), follow from the
    words, so equality and hashing leave them out.
    """

    name: str
    min_distance: int
    words: tuple[str, ...]
    word_length: int = field(init=False, compare=False)
    measured_distance: "int | None" = field(default=None, init=False, compare=False)

    def __post_init__(self) -> None:
        # a set or generator has no fixed order for events to index
        if not (isinstance(self.words, (tuple, list)) and all(isinstance(w, str) for w in self.words)):
            raise ValueError(f"words must be a tuple or list of strings, got {self.words!r}")
        object.__setattr__(self, "words", tuple(self.words))  # a copy: hashable, and frozen
        if not self.name:
            raise ValueError("codebook name must be nonempty")
        object.__setattr__(self, "word_length", _word_bits(self.words).shape[1] if self.words else 0)
        if not self.word_length:
            raise ValueError(f"codebook needs one or more nonempty words, got {self.words!r}")
        if not 1 <= self.min_distance <= self.word_length:
            raise ValueError(f"min_distance {self.min_distance} out of range for "
                             f"word_length {self.word_length}")
        # a repeated word is at distance 0, below every legal min_distance
        if len(self.words) >= 2:
            distance, i, j = _closest_pair(self.words)
            if distance < self.min_distance:
                raise ValueError(f"declared min_distance {self.min_distance} violated by words "
                                 f"{i} and {j} at distance {distance}")
            object.__setattr__(self, "measured_distance", distance)

    @property
    def size(self) -> int:
        return len(self.words)


def _word_bits(words: "Sequence[str]") -> np.ndarray:
    """Equal-length words of '0' and '1' characters as a (words, length)
    uint8 array of bits."""
    if len({len(w) for w in words}) > 1:
        raise ValueError("words differ in length")
    # bytes below '0' wrap around, so one comparison catches every non-bit
    bits = np.frombuffer("".join(words).encode(), dtype=np.uint8) - ord("0")
    if np.any(bits > 1):
        raise ValueError("words contain non-binary characters")
    return bits.reshape(len(words), -1)


def _closest_pair(words: "Sequence[str]") -> "tuple[int, int, int]":
    """Minimum pairwise Hamming distance of two or more words and the
    indices (i, j) of a pair at that distance, brute forced over all pairs."""
    bits = _word_bits(words).astype(np.int64)
    weights = bits.sum(axis=1)
    gram = bits @ bits.T
    dist = weights[:, None] + weights[None, :] - 2 * gram
    np.fill_diagonal(dist, np.iinfo(np.int64).max)
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    return int(dist[i, j]), int(i), int(j)


def parse_codebook(text: str) -> Codebook:
    """Parse codebook file content, naming any unknown, repeated or missing
    header field, and verify the declared length and distance."""
    header: dict[str, str] = {}
    words: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            key = key.strip()
            if key not in _HEADER_FIELDS:
                raise ValueError(f"line {lineno}: unknown header field {key!r}")
            if key in header:
                raise ValueError(f"line {lineno}: repeated header field {key!r}")
            if words:
                raise ValueError(f"line {lineno}: header field after words")
            header[key] = value.strip()
        else:
            words.append(line)
    missing = set(_HEADER_FIELDS) - set(header)
    if missing:
        raise ValueError(f"missing header fields: {sorted(missing)}")
    try:
        word_length = int(header["word_length"])
        min_distance = int(header["min_distance"])
    except ValueError as exc:
        raise ValueError(f"non-integer header field: {exc}") from exc
    # before the Codebook checks, which name the words' own length
    if words and len(words[0]) != word_length:
        raise ValueError(f"word_length {word_length} differs from the words' length {len(words[0])}")
    return Codebook(header["name"], min_distance, words)


def load_codebook(path: "str | Path") -> Codebook:
    """Read and parse a codebook file; every ValueError names the path."""
    try:
        return parse_codebook(Path(path).read_text())
    except ValueError as exc:  # a malformed file or a UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from exc


def serialize_codebook(cb: Codebook) -> str:
    """Canonical text form: fixed header order, words sorted."""
    lines = [f"{key}: {getattr(cb, key)}" for key in _HEADER_FIELDS]
    lines.extend(sorted(cb.words))
    return "\n".join(lines) + "\n"


def _conference_matrix() -> np.ndarray:
    """The 28x28 skew conference matrix: the quadratic character chi(b - a)
    of GF(27) = GF(3)[x] / (x^3 - x - 1), bordered by a row of +1 and a
    column of -1. Elements a are coefficient triples of 1, x, x^2, indexed
    in itertools.product order."""
    coef = np.array(list(itertools.product(range(3), repeat=3)))
    index = np.array([9, 3, 1])
    square = np.zeros((27, 5), dtype=int)
    for i, j in itertools.product(range(3), repeat=2):
        square[:, i + j] += coef[:, i] * coef[:, j]
    # reduce with x^3 = x + 1, hence x^4 = x^2 + x
    square = (square[:, :3] + square[:, 3:4] * [1, 1, 0] + square[:, 4:] * [0, 1, 1]) % 3
    chi = np.full(27, -1)
    chi[square @ index] = 1
    chi[0] = 0
    c = np.zeros((28, 28), dtype=int)
    c[0, 1:], c[1:, 0] = 1, -1
    c[1:, 1:] = chi[((coef[None, :] - coef[:, None]) % 3) @ index]
    return c


def builtin_codebook() -> Codebook:
    """The built-in family: the rows of C + I and -C + I as bits, sorted."""
    c, eye = _conference_matrix(), np.eye(28, dtype=int)
    bits = (np.vstack([c + eye, eye - c]) > 0).astype(np.uint8)
    # each row's 28 ASCII digits, read as one bytes string
    words = (bits + ord("0")).view("S28").ravel()
    return Codebook("conference-28-56-13", 13, sorted(w.decode() for w in words))


def _masks(words: "Sequence[str]", layout: CarrierLayout) -> np.ndarray:
    """The map from codeword bits to carriers, as a (words, wide_total)
    boolean array: row t is True on the wide carriers word t activates.

    Bit g selects a carrier from group g: '0' the lower-frequency carrier,
    '1' the higher one, so every row has weight layout.groups.
    """
    bits = _word_bits(words)
    if bits.shape[1] != layout.groups:
        raise ValueError(f"word length {bits.shape[1]} != layout groups {layout.groups}")
    out = np.zeros((len(words), layout.wide_total), dtype=bool)
    out[np.arange(len(words))[:, None], layout.group_map[np.arange(layout.groups), bits]] = True
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
