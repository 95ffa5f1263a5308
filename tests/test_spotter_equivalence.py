"""The chunked, linear-time spotter against the per-window loop it replaced.

``_reference_spot_report`` and ``_reference_suppress`` are the spotter as it
was before the window front end was batched and overlap suppression made
linear: one FFT per window, ``np.fft.fftshift`` in the fold, and every
candidate compared with every other one. They are kept here only as oracles.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from tagspot.carriers import REFERENCE_LAYOUT
from tagspot.channel import apply_awgn, mix, noise_power_for_snr
from tagspot.codebook import Codebook, codeword_to_mask, mask_matrix
from tagspot.detector import (
    _CHUNK_WINDOWS,
    DetectionEvent,
    DetectorConfig,
    _suppress,
    center_of_mass,
    fold_spectrum,
    noise_tracker_update,
    spot_report,
)
from tagspot.waveform import IqFrame, build_tag_spectrum, synthesize_tag
from layouts import ODD

LAY = REFERENCE_LAYOUT


def _reference_fold(fft_bins, layout):
    ascending = np.fft.fftshift(np.asarray(fft_bins))
    power = np.abs(ascending) ** 2
    return power.reshape(layout.wide_total, layout.thin_per_wide).sum(axis=1)


def _reference_suppress(candidates, n):
    kept = []
    for i, (start, _, strength, *_) in enumerate(candidates):
        suppressed = False
        for j, other in enumerate(candidates):
            if j == i or abs(other[0] - start) >= n:
                continue
            if other[2] > strength or (other[2] == strength and other[0] < start):
                suppressed = True
                break
        if not suppressed:
            kept.append(candidates[i])
    return kept


def _reference_spot_report(samples, config):
    """Events, windows_total and windows_gated of the per-window loop, and
    the number of windows above gamma that failed the center-of-mass test."""
    layout = config.layout
    n = layout.fft_size
    stream = samples.samples
    masks = mask_matrix(config.codebook, layout).astype(np.float64)
    band = np.asarray(layout.band_wide)
    root_n = np.sqrt(n)
    candidates = []
    noise_estimate = None
    windows_total = 0
    windows_gated = 0
    com_rejects = 0
    for start in range(0, len(stream) - n + 1, layout.cp_len):
        windows_total += 1
        window = stream[start : start + n]
        power = float(np.mean(np.abs(window) ** 2))
        if noise_estimate is None or noise_estimate == 0:
            snr_estimate_db = np.inf
        elif power == 0:
            snr_estimate_db = -np.inf
        else:
            snr_estimate_db = 10.0 * np.log10(power / noise_estimate)
        if snr_estimate_db <= config.carrier_sense_snr_db or power == 0:
            windows_gated += 1
            noise_estimate = noise_tracker_update(noise_estimate, power)
            continue
        wide = _reference_fold(np.fft.fft(window) / root_n, layout)
        numerators = masks @ wide
        denominator = wide.sum() if config.denominator == "all" else wide[band].sum()
        best = int(np.argmax(numerators))
        strength = float(numerators[best] / denominator)
        position = center_of_mass(wide, layout)
        if strength <= config.gamma:
            noise_estimate = noise_tracker_update(noise_estimate, power)
        elif abs(position) <= config.com_bound:
            candidates.append((start, best, strength, position, snr_estimate_db))
        else:
            com_rejects += 1
    events = tuple(
        DetectionEvent(start, idx, strength, position, True, snr_db)
        for start, idx, strength, position, snr_db in _reference_suppress(candidates, n)
    )
    return events, windows_total, windows_gated, com_rejects


def _assert_same_as_reference(stream, config):
    report = spot_report(stream, config)
    events, total, gated, _ = _reference_spot_report(stream, config)
    assert report.windows_total == total
    assert report.windows_gated == gated
    assert report.events == events  # dataclass equality: floats bit for bit
    return report


def _tagged_stream(layout, codebook, total, tags, snr_db, seed, zero=()):
    """Calibrated noise over `total` samples with (offset, word) tags mixed
    in, then every (lo, hi) stretch in `zero` set to exactly 0."""
    rng = np.random.default_rng(seed)
    power = float(layout.active_thin_per_wide * layout.groups)
    parts = [(IqFrame(np.zeros(total, dtype=complex)), 0, 1.0)]
    for offset, word in tags:
        mask = codeword_to_mask(codebook.words[word], layout)
        tag = synthesize_tag(build_tag_spectrum(mask, layout, power, rng), layout)
        parts.append((tag, offset, 1.0))
    stream = apply_awgn(mix(parts), noise_power_for_snr(snr_db, 1.0, layout), rng)
    samples = stream.samples[:total].copy()
    for lo, hi in zero:
        samples[lo:hi] = 0
    return IqFrame(samples)


def _length_for_windows(layout, windows, extra=0):
    return layout.fft_size + (windows - 1) * layout.cp_len + extra


def test_window_counts_around_the_chunk_size(codebook):
    config = DetectorConfig(layout=LAY, codebook=codebook)
    hop = LAY.cp_len
    for windows in (1, _CHUNK_WINDOWS - 1, _CHUNK_WINDOWS, _CHUNK_WINDOWS + 1):
        for extra in (0, hop - 1):
            total = _length_for_windows(LAY, windows, extra)
            # the last tag's prefix and body fill the last two windows
            last = total - extra - LAY.frame_len
            tags = [(o, (o // 640) % codebook.size) for o in range(300, last - 640, 2000)]
            if last >= 0:
                tags.append((last, 11))
            stream = _tagged_stream(LAY, codebook, total, tags, 3.0, seed=windows + extra)
            report = _assert_same_as_reference(stream, config)
            assert report.windows_total == windows
            if last >= 0:
                assert report.events[-1].interval_start >= last


def test_zero_stretches_leading_and_in_the_middle(codebook):
    config = DetectorConfig(layout=LAY, codebook=codebook)
    total = _length_for_windows(LAY, 3 * _CHUNK_WINDOWS + 5)
    tags = [(1500, 4), (9000, 21), (20000, 40)]
    zero = [(0, 1100), (12000, 15000)]
    stream = _tagged_stream(LAY, codebook, total, tags, 2.0, seed=70, zero=zero)
    report = _assert_same_as_reference(stream, config)
    assert report.windows_gated > 20
    # a stream that is silent from the first sample to the last
    silent = IqFrame(np.zeros(_length_for_windows(LAY, _CHUNK_WINDOWS + 1), dtype=complex))
    report = _assert_same_as_reference(silent, config)
    assert report.windows_gated == report.windows_total and not report.events


def test_back_to_back_tags(codebook):
    frame = LAY.frame_len
    count = 40
    tags = [(k * frame, (7 * k) % codebook.size) for k in range(count)]
    for denominator in ("band", "all"):
        config = DetectorConfig(layout=LAY, codebook=codebook, denominator=denominator)
        for snr_db, seed in ((6.0, 71), (30.0, 72)):
            stream = _tagged_stream(LAY, codebook, count * frame, tags, snr_db, seed)
            report = _assert_same_as_reference(stream, config)
            assert len(report.events) > count // 2


def test_center_of_mass_rejects_leave_the_noise_floor_frozen(codebook):
    # a burst of one strong tone on the lowest band carrier, a band edge:
    # every codeword holding that carrier scores near 1, far above gamma,
    # while the center of mass sits near -28.5, beyond com_bound = 8
    config = DetectorConfig(layout=LAY, codebook=codebook)
    total = _length_for_windows(LAY, 2 * _CHUNK_WINDOWS + 40)
    tags = [(o, (o // 640) % codebook.size) for o in (900, 14000, 17000, 21000)]
    stream = _tagged_stream(LAY, codebook, total, tags, 2.0, seed=75)
    edge = LAY.band_wide[0] * LAY.thin_per_wide + LAY.active_thin_offsets[0]
    lo, hi = 3000, 9000
    t = np.arange(hi - lo)
    tone = 3.0 * np.exp(2j * np.pi * (edge - LAY.fft_size // 2) * t / LAY.fft_size)
    samples = stream.samples.copy()
    samples[lo:hi] += tone
    stream = IqFrame(samples)

    report = _assert_same_as_reference(stream, config)
    *_, com_rejects = _reference_spot_report(stream, config)
    assert com_rejects > 10
    # the rejected tone windows leave the floor frozen, so nothing after the
    # tone is gated and the 2 dB tag after it is found
    assert report.windows_gated == 0
    assert any(e.interval_start == 14080 and e.codeword_index == 21 for e in report.events)


def test_odd_fft_size_layout():
    codebook = Codebook(
        name="odd-9-8-3",
        word_length=ODD.groups,
        min_distance=3,
        words=("001001010", "001100101", "001110110", "010000000",
               "101111111", "110001001", "110011010", "110110101"),
    )
    config = DetectorConfig(layout=ODD, codebook=codebook, gamma=0.5)
    rng = np.random.default_rng(73)
    for _ in range(20):
        bins = rng.normal(size=ODD.fft_size) + 1j * rng.normal(size=ODD.fft_size)
        assert np.array_equal(fold_spectrum(bins, ODD), _reference_fold(bins, ODD))
    total = _length_for_windows(ODD, 2 * _CHUNK_WINDOWS + 1)
    spacing = ODD.frame_len + 3
    tags = [(k * spacing, k % codebook.size) for k in range(total // spacing)]
    stream = _tagged_stream(ODD, codebook, total, tags, 10.0, seed=74, zero=[(0, 50)])
    report = _assert_same_as_reference(stream, config)
    assert report.events


@given(
    gaps=st.lists(st.integers(min_value=1, max_value=6), max_size=40),
    strengths=st.lists(st.sampled_from([0.7, 0.75, 0.8]), min_size=40, max_size=40),
)
def test_suppress_matches_the_quadratic_loop(gaps, strengths):
    hop, n = LAY.cp_len, LAY.fft_size
    starts = np.cumsum(gaps) * hop
    candidates = [
        (int(start), k, strengths[k], 0.0, 1.0) for k, start in enumerate(starts)
    ]
    assert _suppress(candidates, n) == _reference_suppress(candidates, n)
