"""The sliding-window tag spotter.

Detection intervals are fft_size samples long and start every cp_len
samples, so a tag frame fully contained in the stream always covers at
least one interval completely (the cyclic prefix absorbs the residual
misalignment, leaving a cyclic rotation of the transform body with an
identical power spectrum).

Per interval the pipeline is: carrier-sense gate on total power against a
tracked noise floor, unitary FFT, fold to wide-carrier powers, tag strength
for every codeword, then a candidate requires max strength above gamma and
a valid center of mass. Most windows of a monitoring capture hold only
noise and stop at gamma, so the center of mass is computed only for the
windows above it. A candidate becomes an event only when no
overlapping interval produced a candidate of strictly larger strength
(ties resolve to the earliest interval, then the lowest codeword index).

DetectorConfig.denominator names the strength convention (see carriers):
"band" divides in-mask power by the non-null carriers' power, "all" by
every wide carrier's. The null carriers contribute pure noise to the ratio,
so "band" reaches a given detection probability at a lower SNR; it is the
operational default. The analysis module models both under the same name.

Cost is linear in the stream. The front end takes the windows in chunks of
_CHUNK_WINDOWS: one strided view, one vectorized power pass and one batched
FFT per chunk, so memory stays bounded by the chunk whatever the stream
length. A scalar pass over the chunk then runs the gate and noise-tracker
recurrence, which is sequential in time, and folds and scores each window
that passes the gate. Overlap suppression is a forward scan over the
candidates, sorted by start: each candidate is compared only with those
less than fft_size samples after it, O(C * fft_size / cp_len) for C
candidates instead of comparing every pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .carriers import CarrierLayout
from .codebook import Codebook, mask_matrix
from .waveform import IqFrame, ascending

#: Windows per batched power and FFT pass in spot_report. It bounds the
#: working set to _CHUNK_WINDOWS * fft_size complex samples whatever the
#: stream length; 64 and 256 ran equally fast.
_CHUNK_WINDOWS = 64

#: Weight of each new interval power in the noise floor's moving average.
_NOISE_SMOOTHING = 0.05


@dataclass(frozen=True)
class DetectorConfig:
    layout: CarrierLayout
    codebook: Codebook
    gamma: float = 0.62
    carrier_sense_snr_db: float = -1.0
    denominator: str = "band"

    def __post_init__(self) -> None:
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie strictly between 0 and 1")
        if self.codebook.word_length != self.layout.groups:
            raise ValueError("codebook word length does not match layout groups")
        self.layout.denominator_wide(self.denominator)  # rejects unknown names

    @property
    def com_bound(self) -> float:
        """Largest accepted |center of mass|: the central quarter of the band."""
        return self.layout.wide_total / 8.0

    @functools.cached_property
    def masks(self) -> np.ndarray:
        """The codebook's (codewords, wide carriers) masks as floats, built
        on first use and shared, read-only, by every run with this config."""
        masks = mask_matrix(self.codebook, self.layout).astype(np.float64)
        masks.flags.writeable = False
        return masks

    @functools.cached_property
    def denominator_wide(self) -> np.ndarray:
        """The denominator carriers of this config's convention, read-only."""
        carriers = np.asarray(self.layout.denominator_wide(self.denominator))
        carriers.flags.writeable = False
        return carriers


@dataclass(frozen=True)
class DetectionEvent:
    interval_start: int
    codeword_index: int
    strength: float
    com_position: float
    com_valid: bool
    snr_estimate_db: float

    def to_line(self) -> str:
        return (
            f"{self.interval_start}\t{self.codeword_index}\t"
            f"{self.strength:.9g}\t{self.com_position:.9g}\t"
            f"{self.snr_estimate_db:.9g}\t{int(self.com_valid)}"
        )

    @staticmethod
    def from_line(line: str) -> "DetectionEvent":
        parts = line.split("\t")
        if len(parts) != 6:
            raise ValueError(f"malformed event line: {line!r}")
        return DetectionEvent(
            interval_start=int(parts[0]),
            codeword_index=int(parts[1]),
            strength=float(parts[2]),
            com_position=float(parts[3]),
            snr_estimate_db=float(parts[4]),
            com_valid=bool(int(parts[5])),
        )


def fold_spectrum(fft_bins: np.ndarray, layout: CarrierLayout) -> np.ndarray:
    """Wide-carrier powers from one FFT, natural (numpy) bin order in,
    ascending frequency order out. Sums are exact regroupings, so total
    power is conserved bit for bit up to float summation order."""
    bins = np.asarray(fft_bins)
    if bins.shape != (layout.fft_size,):
        raise ValueError(f"expected {layout.fft_size} bins, got {bins.shape}")
    power = ascending(np.abs(bins) ** 2)
    return power.reshape(layout.wide_total, layout.thin_per_wide).sum(axis=1)


def strengths(wide: np.ndarray, config: DetectorConfig) -> np.ndarray:
    """Every codeword's tag strength for one window's wide-carrier powers
    under the config's convention. Masks lie in the band, so a window with
    no power in the denominator carriers scores 0 for every codeword."""
    numerators = config.masks @ wide
    denominator = wide[config.denominator_wide].sum()
    return numerators / denominator if denominator > 0 else numerators


@functools.cache
def _centered_positions(wide_total: int) -> np.ndarray:
    """Wide-carrier positions relative to the band midpoint, read-only."""
    centered = np.arange(wide_total) - (wide_total - 1) / 2.0
    centered.flags.writeable = False
    return centered


def center_of_mass(wide_powers: np.ndarray, layout: CarrierLayout) -> float:
    """Power-weighted mean carrier position, centered on the band midpoint.
    The spotter accepts a candidate only within DetectorConfig.com_bound."""
    powers = np.asarray(wide_powers, dtype=np.float64)
    total = powers.sum()
    if total == 0:
        raise ValueError("center of mass undefined for all-zero powers")
    centered = _centered_positions(layout.wide_total)
    return float((centered * powers).sum() / total)


def noise_tracker_update(current_estimate: "float | None", interval_power: float) -> float:
    """Exponential moving average of interval power; None seeds directly."""
    if current_estimate is None:
        return interval_power
    return (1.0 - _NOISE_SMOOTHING) * current_estimate + _NOISE_SMOOTHING * interval_power


@dataclass(frozen=True)
class SpotReport:
    """Events plus interval accounting from one spotter run."""

    events: "tuple[DetectionEvent, ...]"
    windows_total: int
    windows_gated: int


def spot_report(samples: IqFrame, config: DetectorConfig) -> SpotReport:
    """Run the spotter over a sample stream.

    The noise floor stays unset until the first interval that is gated or
    at or below gamma, which seeds it. Until then every interval's SNR
    estimate is inf, so only an all-zero interval is gated, and a stream
    that opens with a tag reports it at inf dB whatever the carrier-sense
    threshold. From then on the floor is updated by every interval at or
    below gamma (including carrier-sense-gated ones, whose power is already
    in hand); one above gamma leaves it frozen, center of mass valid or
    not, so neither tags nor off-center interferers lift the floor. Each
    window that passes the gate is folded and scored once; its center of
    mass is computed only when its best strength is above gamma, since a
    window at or below gamma fails the candidate test whatever its
    position.
    """
    layout = config.layout
    n = layout.fft_size
    hop = layout.cp_len
    if len(samples) < n:
        raise ValueError(f"need at least {n} samples, got {len(samples)}")
    stream = samples.samples
    gamma = config.gamma
    com_bound = config.com_bound
    gate_db = config.carrier_sense_snr_db
    root_n = np.sqrt(n)
    windows_total = (len(stream) - n) // hop + 1

    candidates: "list[tuple[int, int, float, float, float]]" = []
    noise_estimate: "float | None" = None
    windows_gated = 0
    for first in range(0, windows_total, _CHUNK_WINDOWS):
        count = min(_CHUNK_WINDOWS, windows_total - first)
        lo = first * hop
        views = sliding_window_view(stream[lo : lo + (count - 1) * hop + n], n)[::hop]
        powers = np.mean(np.abs(views) ** 2, axis=1).tolist()
        spectra = np.fft.fft(views, axis=1) / root_n
        for k, power in enumerate(powers):
            if noise_estimate is None or noise_estimate == 0:
                # no floor yet, or a floor seeded by pure silence
                snr_estimate_db = np.inf
            elif power == 0:
                snr_estimate_db = -np.inf
            else:
                # carrier-sense SNR estimate: interval power over tracked floor
                snr_estimate_db = 10.0 * np.log10(power / noise_estimate)
            if snr_estimate_db <= gate_db or power == 0:
                windows_gated += 1
                noise_estimate = noise_tracker_update(noise_estimate, power)
                continue
            wide = fold_spectrum(spectra[k], layout)
            scores = strengths(wide, config)
            best = int(scores.argmax())
            strength = float(scores[best])
            if strength > gamma:
                position = center_of_mass(wide, layout)
                if abs(position) <= com_bound:
                    candidates.append(
                        (lo + k * hop, best, strength, position, snr_estimate_db)
                    )
                continue
            noise_estimate = noise_tracker_update(noise_estimate, power)

    events = tuple(
        DetectionEvent(
            interval_start=start,
            codeword_index=idx,
            strength=strength,
            com_position=position,
            com_valid=True,
            snr_estimate_db=snr_db,
        )
        for start, idx, strength, position, snr_db in _suppress(candidates, n)
    )
    return SpotReport(
        events=events,
        windows_total=windows_total,
        windows_gated=windows_gated,
    )


def _suppress(
    candidates: "list[tuple[int, int, float, float, float]]", n: int
) -> "list[tuple[int, int, float, float, float]]":
    """Candidates that no overlapping candidate outranks.

    Candidates are (start, codeword, strength, ...) tuples sorted by unique
    start. Candidate i is dropped when an earlier one less than n samples
    away has strength >= its own, or a later one that close has strength >
    its own. The rule is not transitive: a dropped candidate still drops
    its weaker neighbours. Each overlapping pair is compared once in a
    forward scan, and starts lie at least one hop apart, so the cost is
    O(C * n / hop), linear in the number of candidates C.
    """
    dropped = [False] * len(candidates)
    for i, (start, _, strength, *_) in enumerate(candidates):
        for j in range(i + 1, len(candidates)):
            later = candidates[j]
            if later[0] - start >= n:
                break
            if later[2] > strength:
                dropped[i] = True
            else:
                dropped[j] = True
    return [c for c, gone in zip(candidates, dropped) if not gone]


def serialize_events(events: "list[DetectionEvent]") -> str:
    """Line-delimited event stream with a column header comment."""
    lines = ["# interval_start\tcodeword_index\tstrength\tcom_position\t"
             "snr_estimate_db\tcom_valid"]
    lines.extend(e.to_line() for e in events)
    return "\n".join(lines) + "\n"


def parse_events(text: str) -> "list[DetectionEvent]":
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        events.append(DetectionEvent.from_line(line))
    return events
