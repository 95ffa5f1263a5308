"""Calibrated channel impairments: noise, frequency offset, fading, mixing.

SNR convention, used by every dB figure in this package: with per-tone
signal power p on the beta active thin carriers of each active wide carrier
and per-thin-carrier noise power n,

    SNR = beta * p / (alpha * n)

i.e. signal and noise powers are both accounted per wide carrier. For the
reference layout (beta 4, alpha 8) this makes p/n = 2 * 10^(snr_db/10).
Noise is calibrated per FFT bin: under the unitary transform, adding
complex Gaussian samples of variance n puts expected power n in every thin
carrier.
"""

from __future__ import annotations

import numpy as np

from .carriers import CarrierLayout, REFERENCE_LAYOUT
from .waveform import IqFrame, spectrum_of_body, synthesize_tag

FADING_MODELS = ("none", "narrowband", "wideband-rayleigh")


def noise_power_for_snr(
    snr_db: float, per_active_thin_power: float, layout: CarrierLayout
) -> float:
    """Per-thin-carrier noise power n giving the requested SNR."""
    if not per_active_thin_power > 0:
        raise ValueError("per-tone signal power must be positive")
    beta = layout.active_thin_per_wide
    alpha = layout.thin_per_wide
    return beta * per_active_thin_power / (alpha * 10.0 ** (snr_db / 10.0))


def apply_awgn(frame: IqFrame, n: float, rng: np.random.Generator) -> IqFrame:
    """Add circular complex Gaussian noise with per-thin-carrier power n."""
    if n < 0:
        raise ValueError("noise power must be nonnegative")
    if n == 0:
        return frame
    scale = np.sqrt(n / 2.0)
    noise = rng.normal(scale=scale, size=(len(frame), 2))
    samples = frame.samples + noise[:, 0] + 1j * noise[:, 1]
    return IqFrame(samples)


def apply_cfo(
    frame: IqFrame, cfo: float, layout: CarrierLayout = REFERENCE_LAYOUT
) -> IqFrame:
    """Rotate sample k by exp(2j pi cfo k / fft_size); cfo in thin widths.

    A pure per-sample phase spin, so power is preserved exactly; integer
    cfo shifts every thin carrier by that many bins.
    """
    if cfo == 0:
        return frame
    k = np.arange(len(frame))
    rotation = np.exp(2j * np.pi * cfo * k / layout.fft_size)
    return IqFrame(frame.samples * rotation)


def apply_fading(
    frame: IqFrame,
    model: str,
    rng: np.random.Generator,
    layout: CarrierLayout = REFERENCE_LAYOUT,
) -> IqFrame:
    """Apply a fading draw in the frequency domain.

    narrowband: one circularly uniform phase common to all carriers, so
    every sample turns by it. wideband-rayleigh: an independent unit-mean-
    square complex Gaussian gain per thin carrier, on exactly one tag frame;
    the body is transformed, scaled and transformed back, and the prefix is
    rebuilt from the faded body so the prefix property survives.
    """
    if model not in FADING_MODELS:
        raise ValueError(f"fading must be one of {FADING_MODELS}, got {model!r}")
    if model == "none":
        return frame
    if model == "narrowband":
        phase = rng.random() * 2.0 * np.pi
        return IqFrame(frame.samples * np.exp(1j * phase))
    if len(frame) != layout.frame_len:
        raise ValueError(
            f"frame length {len(frame)} != one tag frame ({layout.frame_len}); "
            "wideband fading is defined per tag frame"
        )
    spectrum = spectrum_of_body(frame.samples[layout.cp_len :], layout)
    pairs = rng.normal(scale=np.sqrt(0.5), size=(layout.fft_size, 2))
    return synthesize_tag(spectrum * (pairs[:, 0] + 1j * pairs[:, 1]), layout)


def mix(frames: "list[tuple[IqFrame, int, complex]]") -> IqFrame:
    """Sample-wise sum of gain-scaled frames placed at sample offsets.

    The result is zero-padded to the longest extent.
    """
    if not frames:
        raise ValueError("nothing to mix")
    total = 0
    for frame, offset, _ in frames:
        if offset < 0:
            raise ValueError("offsets must be nonnegative")
        total = max(total, offset + len(frame))
    out = np.zeros(total, dtype=np.complex128)
    for frame, offset, gain in frames:
        out[offset : offset + len(frame)] += gain * frame.samples
    return IqFrame(out)


def gain_for_sir(
    signal: IqFrame,
    interference: IqFrame,
    interference_offset: int,
    sir_db: float,
) -> float:
    """Scale factor for the interference so the signal-to-interference power
    ratio over the overlapping time support equals sir_db.

    interference_offset is the interferer's start relative to the signal's
    start and may be negative.
    """
    lo = max(0, interference_offset)
    hi = min(len(signal), interference_offset + len(interference))
    if hi <= lo:
        raise ValueError("signal and interference do not overlap")
    p_sig = float(np.mean(np.abs(signal.samples[lo:hi]) ** 2))
    seg = interference.samples[lo - interference_offset : hi - interference_offset]
    p_int = float(np.mean(np.abs(seg) ** 2))
    if p_int == 0 or p_sig == 0:
        raise ValueError("zero power in the overlap region")
    return float(np.sqrt(p_sig / (p_int * 10.0 ** (sir_db / 10.0))))
