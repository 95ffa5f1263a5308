"""Carrier geometry shared by the waveform, detector, and analysis code.

Frequency indexing convention, used everywhere in this package: spectra are
arrays in ascending frequency order, so index 0 is the most negative
frequency and DC sits at ``fft_size // 2``. Thin carrier ``j`` belongs to
wide carrier ``j // thin_per_wide``. The DC wide carrier is therefore
``wide_total // 2``.

Signaling occupies wide carriers. A handful of wide carriers are kept
permanently silent (the DC carrier plus guard bands at both spectrum edges,
mirroring common OFDM practice); the remaining ones are paired into groups
of two adjacent carriers, and a transmitted tag activates exactly one
carrier of every group. Its mask is a boolean row over the wide carriers,
True on the activated ones; codebook builds it from a codeword.

A strength convention names the carriers that divide a tag strength: "band"
the non-null ones, "all" every wide carrier. Only CarrierLayout.denominator_wide
maps a name to its carriers, and only check_gamma checks a strength threshold.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

STRENGTH_DENOMINATORS = ("band", "all")


def check_gamma(gamma: float) -> None:
    """Rejects a strength threshold outside (0, 1), NaN included."""
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie strictly between 0 and 1")


@dataclass(frozen=True)
class CarrierLayout:
    """Static description of the carrier grid.

    thin_per_wide: thin carriers folded into one wide carrier.
    active_thin_per_wide: thin carriers that actually carry tones inside an
        active wide carrier (the central block; the rest act as guards).
    groups: number of two-carrier groups available for signaling.
    wide_total: number of wide carriers across the whole band.
    null_wide: wide carrier indices that are never activated.
    fft_size: transform length in thin-carrier bins.
    cp_fraction: cyclic prefix length as a fraction of fft_size, at most 1.

    Construction checks each field's type; bools are not counts. The
    derived geometry (band_wide, group_map, active_thin_offsets,
    centered_wide) is cached on first access, immutable, and ignored by
    equality and hashing.
    """

    thin_per_wide: int = 8
    active_thin_per_wide: int = 4
    groups: int = 28
    wide_total: int = 64
    null_wide: frozenset[int] = field(
        default_factory=lambda: frozenset({0, 1, 2, 32, 60, 61, 62, 63})
    )
    fft_size: int = 512
    cp_fraction: float = 0.25

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "int" and type(getattr(self, f.name)) is not int:
                raise ValueError(f"{f.name} must be an integer, got {getattr(self, f.name)!r}")
        null_wide = tuple(self.null_wide)  # a generator is read once
        if not all(type(w) is int for w in null_wide):
            raise ValueError(f"null_wide must hold integers, got {list(null_wide)}")
        if len(set(null_wide)) != len(null_wide):
            raise ValueError(f"null_wide repeats a carrier: {sorted(null_wide)}")
        object.__setattr__(self, "null_wide", frozenset(null_wide))
        # a bound, not math.isfinite, which overflows on an int past float range
        if not (type(self.cp_fraction) in (int, float) and abs(self.cp_fraction) <= sys.float_info.max):
            raise ValueError(f"cp_fraction must be a finite number, got {self.cp_fraction!r}")
        if min(self.thin_per_wide, self.fft_size, self.wide_total, self.groups) <= 0:
            raise ValueError("carrier counts and groups must be positive")
        if not 0 < self.active_thin_per_wide <= self.thin_per_wide:
            raise ValueError(
                "active_thin_per_wide must lie in [1, thin_per_wide], got "
                f"{self.active_thin_per_wide} of {self.thin_per_wide}"
            )
        if self.wide_total * self.thin_per_wide != self.fft_size:
            raise ValueError(
                f"wide_total * thin_per_wide = {self.wide_total * self.thin_per_wide}"
                f" must equal fft_size = {self.fft_size}"
            )
        if 2 * self.groups + len(self.null_wide) != self.wide_total:
            raise ValueError(
                "2 * groups + null carriers must cover all wide carriers: "
                f"2*{self.groups} + {len(self.null_wide)} != {self.wide_total}"
            )
        if any(not 0 <= w < self.wide_total for w in self.null_wide):
            raise ValueError("null_wide contains out-of-range indices")
        cp = self.fft_size * self.cp_fraction
        if not 0 < cp <= self.fft_size or cp != int(cp):  # at most one body; int(inf) overflows
            raise ValueError(
                f"cp_fraction {self.cp_fraction} must yield a whole number of "
                f"samples in 1..fft_size for fft_size {self.fft_size}"
            )

    @property
    def cp_len(self) -> int:
        """Cyclic prefix length in samples."""
        return int(self.fft_size * self.cp_fraction)

    @property
    def tones(self) -> int:
        """Tones in one tag: the active thin carriers of its one carrier per group."""
        return self.active_thin_per_wide * self.groups

    @property
    def frame_len(self) -> int:
        """Samples in one tag frame (prefix plus transform body)."""
        return self.fft_size + self.cp_len

    @functools.cached_property
    def band_wide(self) -> tuple[int, ...]:
        """Non-null wide carrier indices in ascending frequency order."""
        return tuple(w for w in range(self.wide_total) if w not in self.null_wide)

    def denominator_wide(self, denominator: str) -> tuple[int, ...]:
        """Wide carriers whose power divides a tag strength under the named
        convention; both conventions contain the whole band."""
        if denominator == "band":
            return self.band_wide
        if denominator == "all":
            return tuple(range(self.wide_total))
        raise ValueError(
            f"denominator must be one of {STRENGTH_DENOMINATORS}, got {denominator!r}"
        )

    @functools.cached_property
    def group_map(self) -> np.ndarray:
        """Two-carrier groups as a read-only (groups, 2) integer array:
        consecutive non-null carriers, paired in ascending frequency order.
        Row g holds (first, second); a codeword bit of 0 activates the
        first carrier, 1 the second."""
        pairs = np.array(self.band_wide).reshape(self.groups, 2)
        pairs.flags.writeable = False
        return pairs

    @functools.cached_property
    def active_thin_offsets(self) -> np.ndarray:
        """Offsets of the active (central) thin carriers inside a wide
        carrier's span of thin_per_wide bins, as a read-only integer array."""
        start = (self.thin_per_wide - self.active_thin_per_wide) // 2
        offsets = np.arange(start, start + self.active_thin_per_wide)
        offsets.flags.writeable = False
        return offsets

    @functools.cached_property
    def centered_wide(self) -> np.ndarray:
        """Wide-carrier positions relative to the carrier array's midpoint, read-only."""
        centered = np.arange(self.wide_total) - (self.wide_total - 1) / 2.0
        centered.flags.writeable = False
        return centered


#: The layout used by every numeric claim in this package's docs and tests.
REFERENCE_LAYOUT = CarrierLayout()


def layout_to_dict(layout: CarrierLayout) -> dict:
    """Plain-data form for config documents and IQ sidecar metadata."""
    data = asdict(layout)
    data["null_wide"] = sorted(layout.null_wide)
    return data


def layout_from_dict(data: object) -> CarrierLayout:
    """The layout a config document or IQ sidecar describes. Only the JSON
    shape (an object of known fields, null_wide a list) is checked here;
    CarrierLayout checks the types, so malformed outside data raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"layout must be an object, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in fields(CarrierLayout)}
    if unknown:
        raise ValueError(f"unknown layout fields: {sorted(unknown)}")
    if not isinstance(data.get("null_wide", []), list):
        raise ValueError(f"null_wide must be a list, got {data['null_wide']!r}")
    return CarrierLayout(**data)
