"""Time-domain synthesis of tags and of data-like interference.

Transform convention, relied on by the detector and all power accounting:
spectra are arrays in ascending frequency order (see carriers), and the
forward/inverse transform pair is unitary, so the sum of |amplitude|^2 over
a spectrum equals the sum of |sample|^2 over the transform body (Parseval
with unit factor). ``total_power`` arguments below always mean that spectral
sum for one frame.

A tag frame is the unitary inverse transform of its spectrum with the last
``cp_len`` samples repeated in front as a cyclic prefix. Any window of
``fft_size`` consecutive samples taken from within one frame therefore holds
a cyclic rotation of the transform body and has the same power spectrum.

This module is the only place that knows the order and the framing:
``spectrum_of_body`` is the forward transform, and ``_ofdm_frames`` turns
spectra into frames for tags and interference alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .carriers import CarrierLayout


@dataclass(frozen=True, eq=False)
class IqFrame:
    """A finite run of complex baseband samples; a capture's sample rate is sidecar metadata."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=np.complex128)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("samples must be a nonempty 1-D array")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", s)

    def __len__(self) -> int:
        return self.samples.size


def _ascending(x: np.ndarray) -> np.ndarray:
    """Natural (numpy) transform order to ascending frequency order on the
    last axis: numpy's fftshift as one slice-and-concatenate."""
    h = x.shape[-1] - x.shape[-1] // 2
    return np.concatenate((x[..., h:], x[..., :h]), axis=-1)


def _natural(x: np.ndarray) -> np.ndarray:
    """Inverse of _ascending (numpy's ifftshift on the last axis)."""
    h = x.shape[-1] // 2
    return np.concatenate((x[..., h:], x[..., :h]), axis=-1)


def _ofdm_frames(spectra: np.ndarray, cp_len: int) -> np.ndarray:
    """Frames of ascending-order spectra on the last axis: the unitary
    inverse transform of each, with its last cp_len samples repeated in
    front as a cyclic prefix."""
    n = spectra.shape[-1]
    bodies = np.fft.ifft(_natural(spectra), axis=-1) * np.sqrt(n)
    return np.concatenate((bodies[..., n - cp_len :], bodies), axis=-1)


def mean_power(frame: IqFrame) -> float:
    """Mean per-sample power of a frame."""
    return float(np.mean(np.abs(frame.samples) ** 2))


def active_thin_bins(mask: np.ndarray, layout: CarrierLayout) -> np.ndarray:
    """Thin-carrier indices carrying tones for a mask (a boolean row over
    the wide carriers), ascending."""
    offsets = np.asarray(layout.active_thin_offsets)
    wides = np.flatnonzero(mask)
    return (wides[:, None] * layout.thin_per_wide + offsets[None, :]).ravel()


def build_tag_spectrum(
    mask: np.ndarray,
    layout: CarrierLayout,
    total_power: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """A tag spectrum: fft_size complex amplitudes in ascending order, with
    equal-magnitude tones of independent uniform phases on the mask's
    central thin carriers; the squared magnitudes sum to total_power."""
    if len(mask) != layout.wide_total:
        raise ValueError(f"mask length {len(mask)} != wide_total {layout.wide_total}")
    if total_power < 0:
        raise ValueError("total_power must be nonnegative")
    bins = active_thin_bins(mask, layout)
    amplitude = np.sqrt(total_power / bins.size)
    phases = rng.random(bins.size) * (2.0 * np.pi)
    amplitudes = np.zeros(layout.fft_size, dtype=np.complex128)
    amplitudes[bins] = amplitude * np.exp(1j * phases)
    return amplitudes


def synthesize_tag(spectrum: np.ndarray, layout: CarrierLayout) -> IqFrame:
    """The tag frame of an ascending-order spectrum of fft_size finite amplitudes."""
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    if spectrum.shape != (layout.fft_size,):
        raise ValueError(
            f"spectrum shape {spectrum.shape} != ({layout.fft_size},)"
        )
    if not np.all(np.isfinite(spectrum)):
        raise ValueError("spectrum must be finite")
    return IqFrame(_ofdm_frames(spectrum, layout.cp_len))


def spectrum_of_body(body: np.ndarray, layout: CarrierLayout) -> np.ndarray:
    """Forward unitary transform of transform bodies stacked on the last
    axis, each spectrum in ascending order; one body gives one spectrum.

    Inverse of synthesize_tag restricted to the body samples.
    """
    body = np.asarray(body, dtype=np.complex128)
    if body.shape[-1:] != (layout.fft_size,):
        raise ValueError(f"body shape {body.shape} does not end in fft_size {layout.fft_size}")
    return _ascending(np.fft.fft(body)) / np.sqrt(layout.fft_size)


def papr(frame: IqFrame) -> float:
    """Peak-to-average power ratio in dB."""
    power = np.abs(frame.samples) ** 2
    mean = power.mean()
    if mean == 0:
        raise ValueError("PAPR undefined for an all-zero frame")
    return float(10.0 * np.log10(power.max() / mean))


@dataclass(frozen=True)
class PaprLimitedTag:
    """Result of the redraw-until-compliant synthesis loop."""

    frame: IqFrame
    papr_db: float
    attempts: int
    met_cap: bool


def synthesize_tag_papr_limited(
    mask: np.ndarray,
    layout: CarrierLayout,
    total_power: float,
    papr_cap_db: float,
    rng: np.random.Generator,
    max_attempts: int = 100,
) -> PaprLimitedTag:
    """Redraw tag phases until the frame PAPR is at or below the cap.

    After max_attempts draws the lowest-PAPR attempt is returned with
    met_cap False. total_power must be positive (PAPR is undefined at zero).
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    if not total_power > 0:
        raise ValueError("total_power must be positive")
    best_frame = None
    best_papr = np.inf
    for attempt in range(1, max_attempts + 1):
        frame = synthesize_tag(
            build_tag_spectrum(mask, layout, total_power, rng), layout
        )
        value = papr(frame)
        if value < best_papr:
            best_frame, best_papr = frame, value
        if value <= papr_cap_db:
            return PaprLimitedTag(frame, value, attempt, True)
    return PaprLimitedTag(best_frame, best_papr, max_attempts, False)


def interference_occupied_carriers(layout: CarrierLayout) -> tuple[int, ...]:
    """Wide carriers occupied by the data-like interferer: 48 of 64 for the
    reference layout, symmetric around the silent DC carrier."""
    occupied = 3 * layout.wide_total // 4
    dc = layout.wide_total // 2
    half = occupied // 2
    return tuple(range(dc - half, dc)) + tuple(range(dc + 1, dc + 1 + half))


def interference_frame_len(layout: CarrierLayout) -> int:
    """Samples in one data-like interference frame: wide_total plus its
    cyclic prefix, the tags' prefix fraction of wide_total rounded down in
    integers; 80 for the reference layout."""
    return layout.wide_total + layout.cp_len * layout.wide_total // layout.fft_size


def synthesize_data_interference(
    layout: CarrierLayout,
    n_frames: int,
    total_power: float,
    rng: np.random.Generator,
) -> IqFrame:
    """A stream of payload-like frames with a flat occupied spectrum.

    Each frame rides the wide-carrier grid directly: a transform of length
    wide_total (one bin per wide carrier), 4-point constellation symbols of
    equal magnitude on the occupied carriers, and the tags' cyclic prefix
    fraction. total_power is the spectral power of ONE frame; a frame is
    interference_frame_len(layout) samples, so on the reference layout 8
    frames span exactly one tag frame.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be at least 1")
    if total_power < 0:
        raise ValueError("total_power must be nonnegative")
    body_len = layout.wide_total
    cp = interference_frame_len(layout) - body_len
    occupied = np.asarray(interference_occupied_carriers(layout))
    if occupied.size == 0:
        raise ValueError("a two-carrier layout leaves the data-like interferer no carrier")
    amplitude = np.sqrt(total_power / occupied.size)
    # one row per frame; the symbols are drawn in the same order as a
    # frame-by-frame loop would draw them
    symbols = rng.integers(0, 4, (n_frames, occupied.size))
    phases = symbols * (np.pi / 2) + np.pi / 4
    spectra = np.zeros((n_frames, body_len), dtype=np.complex128)
    spectra[:, occupied] = amplitude * np.exp(1j * phases)
    return IqFrame(_ofdm_frames(spectra, cp).ravel())
