"""The sliding-window tag spotter.

Detection intervals are fft_size samples long and start every cp_len
samples, so a tag frame fully contained in the stream always covers at
least one interval completely (the cyclic prefix absorbs the residual
misalignment, leaving a cyclic rotation of the transform body with an
identical power spectrum).

Per interval the pipeline is: carrier-sense gate on total power against a
tracked noise floor, unitary FFT to an ascending-order spectrum
(waveform.spectrum_of_body), thin-bin powers |bin|^2, fold to wide-carrier
powers, tag strength for every codeword, then a candidate requires max
strength above gamma and a valid center of mass, so each window is gated,
at or below gamma, rejected by its center of mass, or a candidate. Most
windows hold only noise and stop at gamma, so the center of mass is
computed only above it. A candidate is kept, as a DetectionEvent, only when
no overlapping interval produced a candidate of strictly larger strength
(ties resolve to the earliest interval, then the lowest codeword index).

DetectorConfig.denominator names the strength convention (see carriers):
"band" divides in-mask power by the non-null carriers' power, "all" by
every wide carrier's. The null carriers contribute pure noise to the ratio,
so "band" reaches a given detection probability at a lower SNR; it is the
operational default. The analysis module models both under the same name.

Cost is linear in the stream. The windows are taken in chunks of
_CHUNK_WINDOWS, each chunk one read-only strided view of the stream
(_windows), so memory stays bounded by the chunk whatever the stream length.
Each chunk makes each pass once: it squares the magnitudes of the samples
its windows span, averages the same view of those squares into window
powers, transforms its windows in one spectrum_of_body call and squares the
magnitudes of those spectra. A scalar pass over the chunk then runs the
gate and noise-tracker recurrence, which is sequential in time, and folds
and scores each window that passes the gate. A window above gamma freezes
the floor whatever its center of mass, so the chunk's windows above gamma
wait for its end: one center_of_mass call over their stacked wide powers
sorts them, in window order, into candidates and center-of-mass rejects.
Overlap suppression is a forward scan over the candidates, plain tuples
sorted by start: each candidate is compared only with those less than
fft_size samples after it, O(C * fft_size / cp_len) for C candidates
instead of comparing every pair. Only the survivors become DetectionEvents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .carriers import CarrierLayout, check_gamma
from .codebook import Codebook, mask_matrix
from .waveform import IqFrame, spectrum_of_body

#: Windows per batched power and FFT pass in spot_report. It bounds the
#: working set to _CHUNK_WINDOWS * fft_size complex samples whatever the
#: stream length; 64 and 256 ran equally fast.
_CHUNK_WINDOWS = 64

#: Weight of each new interval power in the noise floor's moving average.
_NOISE_SMOOTHING = 0.05


@dataclass(frozen=True)
class DetectorConfig:
    """One operating point of the spotter. Construction builds the read-only
    arrays every run shares, the codebook's masks as floats (so a codebook
    that does not fit the layout fails) and the convention's carriers."""

    layout: CarrierLayout
    codebook: Codebook
    gamma: float = 0.62
    carrier_sense_snr_db: float = -1.0
    denominator: str = "band"
    masks: np.ndarray = field(init=False, compare=False, repr=False)
    denominator_wide: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_gamma(self.gamma)
        if np.isnan(self.carrier_sense_snr_db):  # -inf switches the gate off
            raise ValueError("carrier_sense_snr_db must not be NaN")
        masks = mask_matrix(self.codebook, self.layout).astype(np.float64)
        carriers = np.asarray(self.layout.denominator_wide(self.denominator))
        for name, array in (("masks", masks), ("denominator_wide", carriers)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def com_bound(self) -> float:
        """Largest accepted |center of mass|: a quarter of all carriers about their midpoint, not of the band."""
        return self.layout.wide_total / 8.0


class DetectionEvent(NamedTuple):
    """A candidate that overlap suppression kept; each passed the
    center-of-mass test."""

    interval_start: int
    codeword_index: int
    strength: float
    com_position: float
    snr_estimate_db: float


def fold_spectrum(thin_powers: np.ndarray, layout: CarrierLayout) -> np.ndarray:
    """Wide-carrier powers from one spectrum's thin-bin powers, |bin|^2 in
    ascending frequency order (np.abs(spectrum) ** 2 of what
    waveform.spectrum_of_body returns). Complex input is refused, so a
    spectrum cannot be folded unsquared. Sums are exact regroupings, so
    total power is conserved bit for bit up to float summation order."""
    power = np.asarray(thin_powers)
    if power.shape != (layout.fft_size,):
        raise ValueError(f"expected {layout.fft_size} bins, got {power.shape}")
    if power.dtype.kind == "c":
        raise ValueError("fold_spectrum takes thin-bin powers, not complex bins")
    return np.add.reduce(power.reshape(layout.wide_total, layout.thin_per_wide), axis=1)


def strengths(wide: np.ndarray, config: DetectorConfig) -> np.ndarray:
    """Every codeword's tag strength for one window's wide-carrier powers
    under the config's convention. Masks lie in the band, so a window with
    no power in the denominator carriers scores 0 for every codeword."""
    # .dot and /= skip matmul's ufunc dispatch and a temporary: same dgemv, same quotients
    numerators = config.masks.dot(wide)
    denominator = np.add.reduce(wide[config.denominator_wide])
    if denominator > 0:
        numerators /= denominator
    return numerators


def center_of_mass(wide_powers: np.ndarray, layout: CarrierLayout) -> "float | np.ndarray":
    """Power-weighted mean carrier position on layout.centered_wide, so
    centered on the carrier array's midpoint, of powers shaped
    (..., wide_total): a float for one row, an array of one position per
    row for a stack, each row's bit for bit its own call's. Any all-zero
    row raises. The spotter passes each chunk's windows above gamma as
    one stack and accepts a candidate only within
    DetectorConfig.com_bound."""
    powers = np.asarray(wide_powers, dtype=np.float64)
    total = powers.sum(axis=-1)
    if not np.all(total):
        raise ValueError("center of mass undefined for all-zero powers")
    position = (layout.centered_wide * powers).sum(axis=-1) / total
    return float(position) if powers.ndim == 1 else position


def noise_tracker_update(current_estimate: "float | None", interval_power: float) -> float:
    """Exponential moving average of interval power; None seeds directly."""
    if current_estimate is None:
        return interval_power
    return (1.0 - _NOISE_SMOOTHING) * current_estimate + _NOISE_SMOOTHING * interval_power


@dataclass(frozen=True)
class SpotReport:
    """Events plus interval accounting from one spotter run: each window is
    gated, at or below gamma, rejected by its center of mass, or a
    candidate, so those four counts sum to windows_total, and overlap
    suppression keeps at most `candidates` events."""

    events: "tuple[DetectionEvent, ...]"
    windows_total: int
    windows_gated: int
    windows_below_gamma: int
    windows_com_rejected: int
    candidates: int


def spot_report(samples: IqFrame, config: DetectorConfig) -> SpotReport:
    """Run the spotter over a sample stream.

    The noise floor stays unset until the first interval that is gated or
    at or below gamma, which seeds it. An all-zero interval's SNR estimate
    is -inf, so it is always gated. Until the floor is set, or while it is
    0, every other estimate is inf, so a stream that opens with a tag
    reports it at inf dB whatever the carrier-sense threshold. From then
    on the floor is updated by every interval at or below gamma (including
    carrier-sense-gated ones, whose power is already in hand); one above
    gamma leaves it frozen, center of mass valid or not, so neither tags
    nor off-center interferers lift the floor. Each window that passes the
    gate is folded and scored once. Its center of mass is computed only
    when its best strength is above gamma, since a window at or below
    gamma fails the candidate test whatever its position, and then in one
    center_of_mass call per chunk over the stacked wide powers of that
    chunk's windows above gamma. Candidates stay tuples until overlap
    suppression; a DetectionEvent is built for each one it keeps.
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
    windows_total = (len(stream) - n) // hop + 1

    candidates: "list[tuple]" = []
    noise_estimate: "float | None" = None
    windows_gated = windows_below_gamma = windows_com_rejected = 0
    for first in range(0, windows_total, _CHUNK_WINDOWS):
        count = min(_CHUNK_WINDOWS, windows_total - first)
        lo = first * hop
        # each sample and each bin is squared once; a window's power sums
        # the same squares in the same order as squaring the window itself
        span = np.abs(stream[lo : lo + (count - 1) * hop + n])
        np.square(span, out=span)
        # np.mean's arithmetic: one sum per window, then one division
        powers = np.add.reduce(_windows(span, 0, count, n, hop), axis=1)
        powers /= n
        thin = np.abs(spectrum_of_body(_windows(stream, lo, count, n, hop), layout))
        np.square(thin, out=thin)
        above: "list[tuple]" = []
        above_wide: "list[np.ndarray]" = []
        for k, power in enumerate(powers.tolist()):
            # carrier-sense SNR estimate: interval power over tracked floor
            if power == 0:
                snr_estimate_db = -np.inf
            elif not noise_estimate:  # no floor yet, or one seeded by pure silence
                snr_estimate_db = np.inf
            else:
                snr_estimate_db = 10.0 * np.log10(power / noise_estimate)
            if snr_estimate_db <= gate_db:
                windows_gated += 1
            else:
                wide = fold_spectrum(thin[k], layout)
                scores = strengths(wide, config)
                best = int(scores.argmax())
                strength = float(scores[best])
                if strength <= gamma:
                    windows_below_gamma += 1
                else:
                    # the floor stays frozen whatever the center of mass
                    above.append((lo + k * hop, best, strength, snr_estimate_db))
                    above_wide.append(wide)
                    continue
            noise_estimate = noise_tracker_update(noise_estimate, power)
        if above:
            positions = center_of_mass(np.stack(above_wide), layout).tolist()
            for (start, best, strength, snr_db), position in zip(above, positions):
                if abs(position) <= com_bound:
                    candidates.append((start, best, strength, position, snr_db))
                else:
                    windows_com_rejected += 1

    events = tuple(DetectionEvent._make(kept) for kept in _suppress(candidates, n))
    return SpotReport(events, windows_total, windows_gated, windows_below_gamma,
                      windows_com_rejected, len(candidates))


def _windows(x: np.ndarray, start: int, count: int, n: int, hop: int) -> np.ndarray:
    """A read-only (count, n) view of the 1-D array x whose row k is
    x[start + k * hop : start + k * hop + n], whatever x's stride.

    Bounds: count >= 1, n >= 1, hop >= 1, start >= 0 and
    start + (count - 1) * hop + n <= len(x), so every row lies inside x;
    anything else raises ValueError rather than view memory outside x.
    """
    if min(count, n, hop) < 1 or start < 0 or start + (count - 1) * hop + n > len(x):
        raise ValueError(f"{count} windows of {n} every {hop} from {start} overrun {len(x)} samples")
    step = x.strides[0]
    return as_strided(x[start:], shape=(count, n), strides=(hop * step, step), writeable=False)


def _suppress(candidates: "list[tuple]", n: int) -> "list[tuple]":
    """Candidates that no overlapping candidate outranks.

    Candidates are tuples with the start at [0] and the strength at [2],
    sorted by unique start. Candidate i is dropped when an earlier one less
    than n samples away has strength >= its own, or a later one that close
    has strength > its own. The rule is not transitive: a dropped candidate
    still drops its weaker neighbours. Each overlapping pair is compared
    once in a forward scan, and starts lie at least one hop apart, so C
    candidates cost O(C * n / hop), linear in C.
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

