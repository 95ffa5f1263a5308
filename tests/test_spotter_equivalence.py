"""The chunked, linear-time spotter against the per-window loop it replaced.

``_reference_spot_report`` and ``_reference_suppress`` are the spotter as it
was before the window front end was batched and overlap suppression made
linear: one FFT per window, ``np.fft.fftshift`` in the fold, its own score
and center of mass per window, and every candidate compared with every
other one. They are kept here only as oracles.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tagspot import detector
from tagspot.carriers import REFERENCE_LAYOUT
from tagspot.codebook import Codebook, mask_matrix
from tagspot.detector import (
    _CHUNK_WINDOWS,
    DetectionEvent,
    DetectorConfig,
    _suppress,
    fold_spectrum,
    noise_tracker_update,
    spot_report,
)
from tagspot.scenario import tagged_stream
from tagspot.waveform import IqFrame, _ascending
from layouts import ODD, VALID_LAYOUTS

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
    """Events of the per-window loop, and its window counts under the names
    of the SpotReport fields: every window, then one count per outcome."""
    layout = config.layout
    n = layout.fft_size
    stream = samples.samples
    masks = mask_matrix(config.codebook, layout).astype(np.float64)
    band = np.asarray(layout.band_wide)
    root_n = np.sqrt(n)
    candidates = []
    noise_estimate = None
    counts = dict.fromkeys(("windows_total", "windows_gated", "windows_below_gamma",
                            "windows_com_rejected", "candidates"), 0)
    for start in range(0, len(stream) - n + 1, layout.cp_len):
        counts["windows_total"] += 1
        window = stream[start : start + n]
        power = float(np.mean(np.abs(window) ** 2))
        if noise_estimate is None or noise_estimate == 0:
            snr_estimate_db = np.inf
        elif power == 0:
            snr_estimate_db = -np.inf
        else:
            snr_estimate_db = 10.0 * np.log10(power / noise_estimate)
        if snr_estimate_db <= config.carrier_sense_snr_db or power == 0:
            counts["windows_gated"] += 1
            noise_estimate = noise_tracker_update(noise_estimate, power)
            continue
        wide = _reference_fold(np.fft.fft(window) / root_n, layout)
        numerators = masks @ wide
        denominator = wide.sum() if config.denominator == "all" else wide[band].sum()
        best = int(np.argmax(numerators))
        strength = float(numerators[best] / denominator)
        if strength <= config.gamma:
            counts["windows_below_gamma"] += 1
            noise_estimate = noise_tracker_update(noise_estimate, power)
            continue
        position = float((layout.centered_wide * wide).sum() / wide.sum())
        if abs(position) <= config.com_bound:
            counts["candidates"] += 1
            candidates.append((start, best, strength, position, snr_estimate_db))
        else:
            counts["windows_com_rejected"] += 1
    events = tuple(
        DetectionEvent(start, idx, strength, position, snr_db)
        for start, idx, strength, position, snr_db in _reference_suppress(candidates, n)
    )
    return events, counts


def _assert_same_as_reference(stream, config):
    report = spot_report(stream, config)
    events, counts = _reference_spot_report(stream, config)
    assert {name: getattr(report, name) for name in counts} == counts
    assert report.events == events  # tuple equality: floats bit for bit
    return report


def _tagged_stream(layout, total, tags, snr_db, seed, zero=()):
    """Calibrated noise over `total` samples with (offset, word) tags mixed
    in, then every (lo, hi) stretch in `zero` set to exactly 0."""
    stream = tagged_stream(layout, tags, total, snr_db, np.random.default_rng(seed))
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
            tags = [(o, codebook.words[(o // 640) % codebook.size]) for o in range(300, last - 640, 2000)]
            if last >= 0:
                tags.append((last, codebook.words[11]))
            stream = _tagged_stream(LAY, total, tags, 3.0, seed=windows + extra)
            report = _assert_same_as_reference(stream, config)
            assert report.windows_total == windows
            if last >= 0:
                assert report.events[-1].interval_start >= last


def test_zero_stretches_leading_and_in_the_middle(codebook):
    config = DetectorConfig(layout=LAY, codebook=codebook)
    total = _length_for_windows(LAY, 3 * _CHUNK_WINDOWS + 5)
    tags = [(1500, codebook.words[4]), (9000, codebook.words[21]), (20000, codebook.words[40])]
    zero = [(0, 1100), (12000, 15000)]
    stream = _tagged_stream(LAY, total, tags, 2.0, seed=70, zero=zero)
    report = _assert_same_as_reference(stream, config)
    assert report.windows_gated > 20
    # a stream that is silent from the first sample to the last
    silent = IqFrame(np.zeros(_length_for_windows(LAY, _CHUNK_WINDOWS + 1), dtype=complex))
    report = _assert_same_as_reference(silent, config)
    assert report.windows_gated == report.windows_total and not report.events


def test_back_to_back_tags(codebook):
    frame = LAY.frame_len
    count = 40
    tags = [(k * frame, codebook.words[(7 * k) % codebook.size]) for k in range(count)]
    for denominator in ("band", "all"):
        config = DetectorConfig(layout=LAY, codebook=codebook, denominator=denominator)
        for snr_db, seed in ((6.0, 71), (30.0, 72)):
            stream = _tagged_stream(LAY, count * frame, tags, snr_db, seed)
            report = _assert_same_as_reference(stream, config)
            assert len(report.events) > count // 2


def _burst_stream(codebook, zero=()):
    """Four 2 dB tags over 168 windows, and from sample 3000 to 9000 a
    strong tone on the lowest band carrier, a band edge: every codeword
    holding that carrier scores near 1, far above gamma, while the center
    of mass sits near -28.5, beyond com_bound = 8."""
    total = _length_for_windows(LAY, 2 * _CHUNK_WINDOWS + 40)
    tags = [(o, codebook.words[(o // 640) % codebook.size]) for o in (900, 14000, 17000, 21000)]
    stream = _tagged_stream(LAY, total, tags, 2.0, seed=75, zero=zero)
    edge = LAY.band_wide[0] * LAY.thin_per_wide + LAY.active_thin_offsets[0]
    lo, hi = 3000, 9000
    t = np.arange(hi - lo)
    tone = 3.0 * np.exp(2j * np.pi * (edge - LAY.fft_size // 2) * t / LAY.fft_size)
    samples = stream.samples.copy()
    samples[lo:hi] += tone
    return IqFrame(samples)


def test_center_of_mass_rejects_leave_the_noise_floor_frozen(codebook):
    config = DetectorConfig(layout=LAY, codebook=codebook)
    report = _assert_same_as_reference(_burst_stream(codebook), config)
    assert report.windows_com_rejected > 10
    # the rejected tone windows leave the floor frozen, so nothing after the
    # tone is gated and the 2 dB tag after it is found
    assert report.windows_gated == 0
    assert any(e.interval_start == 14080 and e.codeword_index == 21 for e in report.events)


def test_fold_and_center_of_mass_call_counts(codebook, monkeypatch):
    """fold_spectrum runs once per window that passes the gate, and
    center_of_mass at most once per chunk, over a stack of the chunk's
    windows above gamma. CI's traced benchmark step checks the fold
    identity on every detector workload; items 6b and 7 of the ROADMAP,
    which score whole chunks, change it together with this test."""
    calls = {"fold_spectrum": [], "center_of_mass": []}
    for name, log in calls.items():
        original = getattr(detector, name)

        def counted(powers, layout, original=original, log=log):
            log.append(np.shape(powers))
            return original(powers, layout)

        monkeypatch.setattr(detector, name, counted)
    config = DetectorConfig(layout=LAY, codebook=codebook)
    # a silent stretch after the tone gives gated windows too
    report = _assert_same_as_reference(_burst_stream(codebook, zero=[(10000, 12000)]), config)
    assert min(report.windows_gated, report.windows_below_gamma,
               report.windows_com_rejected, report.candidates) > 0
    assert len(calls["fold_spectrum"]) == report.windows_total - report.windows_gated
    chunks = -(-report.windows_total // _CHUNK_WINDOWS)
    assert 0 < len(calls["center_of_mass"]) <= chunks
    assert all(len(shape) == 2 for shape in calls["center_of_mass"])
    assert sum(rows for rows, _ in calls["center_of_mass"]) == (
        report.windows_com_rejected + report.candidates)


def test_odd_fft_size_layout():
    codebook = Codebook(
        name="odd-9-8-3",
        min_distance=3,
        words=("001001010", "001100101", "001110110", "010000000",
               "101111111", "110001001", "110011010", "110110101"),
    )
    config = DetectorConfig(layout=ODD, codebook=codebook, gamma=0.5)
    rng = np.random.default_rng(73)
    for _ in range(20):
        bins = rng.normal(size=ODD.fft_size) + 1j * rng.normal(size=ODD.fft_size)
        assert np.array_equal(fold_spectrum(np.abs(_ascending(bins)) ** 2, ODD), _reference_fold(bins, ODD))
    total = _length_for_windows(ODD, 2 * _CHUNK_WINDOWS + 1)
    spacing = ODD.frame_len + 3
    tags = [(k * spacing, codebook.words[k % codebook.size]) for k in range(total // spacing)]
    stream = _tagged_stream(ODD, total, tags, 10.0, seed=74, zero=[(0, 50)])
    report = _assert_same_as_reference(stream, config)
    assert report.events


@settings(max_examples=200)
@given(layout=VALID_LAYOUTS, data=st.data())
def test_the_spotter_matches_its_oracle_on_drawn_layouts_and_gates(layout, data):
    groups = layout.groups
    words = data.draw(st.lists(st.integers(0, 2**groups - 1), min_size=1, max_size=6,
                               unique=True))
    codebook = Codebook(name="drawn", min_distance=1,
                        words=tuple(format(word, f"0{groups}b") for word in words))
    config = DetectorConfig(
        layout=layout,
        codebook=codebook,
        gamma=data.draw(st.floats(0.05, 0.95)),
        carrier_sense_snr_db=data.draw(st.sampled_from([-np.inf, -1.0, 3.0, np.inf])),
        denominator=data.draw(st.sampled_from(["band", "all"])),
    )
    windows = data.draw(st.integers(1, 2 * _CHUNK_WINDOWS + 2))
    total = _length_for_windows(layout, windows, data.draw(st.integers(0, layout.cp_len - 1)))
    tags = data.draw(st.lists(st.tuples(st.integers(0, total - 1), st.sampled_from(codebook.words)),
                              max_size=4))
    lo = data.draw(st.integers(0, total))
    zero = [(lo, data.draw(st.integers(lo, total)))]
    snr_db = data.draw(st.sampled_from([-3.0, 3.0, 20.0]))
    stream = _tagged_stream(layout, total, tags, snr_db,
                            seed=data.draw(st.integers(0, 2**32 - 1)), zero=zero)
    report = _assert_same_as_reference(stream, config)
    outcomes = (report.windows_gated + report.windows_below_gamma
                + report.windows_com_rejected + report.candidates)
    assert outcomes == report.windows_total
    assert len(report.events) <= report.candidates


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
