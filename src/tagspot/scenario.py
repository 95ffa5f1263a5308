"""Seeded tag scenarios shared by the acceptance criteria, the spotter tests
and scripts/regenerate_results.py. Each draws in one fixed order, so a seed
names one outcome; the trial and the two measurements use the reference
layout and the built-in codebook. No other module of the package imports
this one."""

from __future__ import annotations

import functools

import numpy as np

from .carriers import CarrierLayout, REFERENCE_LAYOUT as LAY
from .channel import apply_awgn, apply_cfo, apply_fading, mix, noise_power_for_snr
from .codebook import Codebook, builtin_codebook, codeword_to_mask
from .detector import fold_spectrum
from .waveform import IqFrame, build_tag_spectrum, spectrum_of_body, synthesize_data_interference, synthesize_tag

LEAK_TRIALS = 2000  # tags per measured_offset_leak


@functools.cache
def _codebook() -> Codebook:
    return builtin_codebook()  # built on first use, not on import


def tag_frame(word: str, layout: CarrierLayout, rng: np.random.Generator) -> IqFrame:
    """One tag frame for codeword `word` with power 1 on each tone."""
    mask = codeword_to_mask(word, layout)
    return synthesize_tag(build_tag_spectrum(mask, layout, float(layout.tones), rng), layout)


def tagged_stream(layout: CarrierLayout, tags: "list[tuple[int, str]]", total: int, snr_db: float,
                  rng: np.random.Generator) -> IqFrame:
    """`total` samples with the tag_frame of each (offset, word) in `tags`,
    drawn in turn, then noise at snr_db for that per-tone power."""
    parts = [(IqFrame(np.zeros(total, dtype=complex)), 0, 1.0)]
    parts += [(tag_frame(word, layout, rng), offset, 1.0) for offset, word in tags]
    return apply_awgn(mix(parts), noise_power_for_snr(snr_db, 1.0, layout), rng)


def short_stream_trial(rng: np.random.Generator, noise: float, fading: str = "none",
                       cfo_limit: float = 0.0, interferer_power: "float | None" = None,
                       ) -> "tuple[IqFrame, int, int, float]":
    """A random word's tag at an offset below 1,280 in 2,560 samples: drawn
    word, tag, fading (a channel model name), CFO uniform on (-cfo_limit,
    cfo_limit) thin widths (none at 0), offset, optional 32 data-like
    interference frames over the whole stream, then noise of power `noise`
    per thin carrier. Returns (stream, word index, offset, cfo)."""
    book = _codebook()
    word = int(rng.integers(book.size))
    frame = tag_frame(book.words[word], LAY, rng)
    frame = apply_fading(frame, fading, rng, LAY)  # "none" draws nothing
    cfo = float(rng.uniform(-cfo_limit, cfo_limit)) if cfo_limit > 0 else 0.0
    frame = apply_cfo(frame, cfo, LAY)  # a CFO of 0 returns the frame
    offset = int(rng.integers(0, 1280))
    parts = [(IqFrame(np.zeros(2560, dtype=complex)), 0, 1.0), (frame, offset, 1.0)]
    if interferer_power is not None:
        parts.append((synthesize_data_interference(LAY, 32, interferer_power, rng), 0, 1.0))
    return apply_awgn(mix(parts), noise, rng), word, offset, cfo


def interferer_band_density() -> float:
    """Mean folded in-band power per thin bin per unit interferer frame
    power, over the spotter's interval grid of 128 interference frames
    drawn at seed 85."""
    stream = synthesize_data_interference(LAY, 128, 1.0, np.random.default_rng(85)).samples
    band = np.asarray(LAY.band_wide)
    bins = band.size * LAY.thin_per_wide
    densities = []
    for start in range(0, len(stream) - LAY.fft_size + 1, LAY.cp_len):
        window = stream[start : start + LAY.fft_size]
        wide = fold_spectrum(np.abs(spectrum_of_body(window, LAY)) ** 2, LAY)
        densities.append(float(wide[band].sum()) / bins)
    return float(np.mean(densities))


def measured_offset_leak(max_offset: float, seed: int) -> float:
    """The time-domain check of analysis.expected_offset_leak: the mean share
    of a tag's power outside its own carriers, over LEAK_TRIALS random words
    and offsets uniform on (0, max_offset) thin widths, drawn word, tag,
    offset."""
    book = _codebook()
    rng = np.random.default_rng(seed)
    lost = 0.0
    for _ in range(LEAK_TRIALS):
        word = book.words[int(rng.integers(book.size))]
        mask = codeword_to_mask(word, LAY)
        tag = synthesize_tag(build_tag_spectrum(mask, LAY, 1.0, rng), LAY)
        shifted = apply_cfo(tag, float(rng.uniform(0.0, max_offset)), LAY)
        wide = fold_spectrum(np.abs(spectrum_of_body(shifted.samples[LAY.cp_len :], LAY)) ** 2, LAY)
        lost += 1.0 - wide[mask].sum() / wide.sum()
    return lost / LEAK_TRIALS
