"""Acceptance gate: one test per release criterion.

Each test pins an external behavior contract of the package: closed-form
reference values, calibrated Monte Carlo agreement, end-to-end detection
through the full waveform chain, and reproducibility. Monte Carlo tests run
with fixed seeds so a pass is a stable, rerunnable fact. The terminal
summary hook in conftest prints one PASS/FAIL line per criterion.
"""

import math
import time

import numpy as np
import pytest

from tagspot.analysis import (
    AnalysisModel,
    expected_offset_leak,
    gamma_equivalent_snr_db,
    leakage_block,
    leakage_single,
    overhead,
    pf_family_mc,
    pf_pairs_bound,
    pf_single,
    pm_mc,
    range_gain,
    sweep_active_carriers,
)
from tagspot.carriers import REFERENCE_LAYOUT
from tagspot.channel import apply_awgn, apply_cfo, apply_fading, mix, noise_power_for_snr
from tagspot.cli import main as cli_main
from tagspot.codebook import Codebook, codeword_to_mask
from tagspot.detector import DetectorConfig, fold_spectrum, spot_report, strengths
from tagspot.waveform import (
    IqFrame,
    build_tag_spectrum,
    spectrum_of_body,
    synthesize_data_interference,
    synthesize_tag,
)

LAY = REFERENCE_LAYOUT
TAG_POWER = float(LAY.active_thin_per_wide * LAY.groups)  # per-tone power 1


def _tag_frame(word_index, codebook, rng):
    mask = codeword_to_mask(codebook.words[word_index], LAY)
    return synthesize_tag(build_tag_spectrum(mask, LAY, TAG_POWER, rng), LAY)


def _detection_trial(codebook, config, rng, noise, fading=None, cfo_limit=0.0,
                     interferer_power=None):
    """One stream trial: random word and offset, optional fading/cfo, then
    noise and (optionally) data-like interference. True when some event
    decodes the transmitted word."""
    word = int(rng.integers(codebook.size))
    frame = _tag_frame(word, codebook, rng)
    if fading is not None:
        frame = apply_fading(frame, fading, rng, LAY)
    if cfo_limit > 0:
        frame = apply_cfo(frame, float(rng.uniform(-cfo_limit, cfo_limit)), LAY)
    offset = int(rng.integers(0, 1280))
    parts = [(IqFrame(np.zeros(2560, dtype=complex)), 0, 1.0), (frame, offset, 1.0)]
    if interferer_power is not None:
        interferer = synthesize_data_interference(LAY, 32, interferer_power, rng)
        parts.append((interferer, 0, 1.0))
    stream = apply_awgn(mix(parts), noise, rng)
    events = spot_report(stream, config).events
    return any(e.codeword_index == word for e in events)


def test_criterion_01_threshold_snr_consistency():
    # equal-noise-per-bin strength balance at the operating threshold
    value = gamma_equivalent_snr_db(0.62)
    assert 0.40 - 0.05 <= value <= 0.40 + 0.05


def _measured_offset_leak(max_offset, trials, seed):
    """Time-domain cross-check: fraction of tag power leaving the tag's own
    active carriers under a random frequency offset, random codewords."""
    rng = np.random.default_rng(seed)
    lost = 0.0
    for _ in range(trials):
        word = "".join("01"[b] for b in rng.integers(0, 2, LAY.groups))
        mask = codeword_to_mask(word, LAY)
        tag = synthesize_tag(build_tag_spectrum(mask, LAY, 1.0, rng), LAY)
        shifted = apply_cfo(tag, float(rng.uniform(0.0, max_offset)), LAY)
        wide = fold_spectrum(np.abs(spectrum_of_body(shifted.samples[LAY.cp_len :], LAY)) ** 2, LAY)
        own = wide[mask].sum()
        lost += 1.0 - own / wide.sum()
    return lost / trials


def test_criterion_02_leakage_closed_forms():
    start = time.monotonic()
    assert leakage_block(1) == np.pi**2 / 6.0
    for k in (1, 2, 3, 7):
        # integer spacings: exact zeros up to float rounding of sin(pi k)
        assert float(leakage_single(k, 0.0)) < 1e-30
    closed = expected_offset_leak(2.0)
    assert 0.020 <= closed <= 0.026
    measured = _measured_offset_leak(2.0, trials=2000, seed=81)
    assert abs(measured - closed) < 0.003
    assert time.monotonic() - start < 60.0


def test_criterion_03_false_alarm_closed_form_vs_monte_carlo(codebook):
    # the symmetric band statistic has an exact median
    assert pf_single(0.5) == 0.5
    single = Codebook("single", LAY.groups, 13, (codebook.words[0],))
    trials = 1_000_000
    for gamma in (0.45, 0.5, 0.55, 0.6):
        closed = pf_single(gamma)
        estimate, _ = pf_family_mc(gamma, single, LAY, trials, seed=82)
        sigma = math.sqrt(closed * (1.0 - closed) / trials)
        assert abs(estimate - closed) <= 3.0 * sigma, (gamma, estimate, closed)


def test_criterion_04_end_to_end_detection_at_one_db(codebook):
    start = time.monotonic()
    config = DetectorConfig(layout=LAY, codebook=codebook, gamma=0.62)
    noise = noise_power_for_snr(1.0, 1.0, LAY)
    trials = 10_000
    detected = 0
    for t in range(trials):
        rng = np.random.default_rng([83, t])
        detected += _detection_trial(
            codebook, config, rng, noise,
            fading="wideband-rayleigh", cfo_limit=2.0,
        )
    assert detected / trials >= 0.9, detected
    # noise-only event rate stays below one per million intervals
    assert pf_single(0.62) < 1e-6
    assert time.monotonic() - start < 600.0


def test_criterion_05_misclassification_floor(codebook):
    [(estimate, _)] = pm_mc([0.0], codebook, LAY, "wideband", trials=10_000, seed=84)
    assert estimate < 1e-3


def _interferer_band_density(seed):
    """Mean folded in-band power per thin bin per unit interferer frame
    power, measured over the detector's interval grid."""
    rng = np.random.default_rng(seed)
    stream = synthesize_data_interference(LAY, 128, 1.0, rng)
    band = np.asarray(LAY.band_wide)
    bins = band.size * LAY.thin_per_wide
    densities = []
    for offset in range(0, len(stream) - LAY.fft_size + 1, LAY.cp_len):
        window = stream.samples[offset : offset + LAY.fft_size]
        wide = fold_spectrum(np.abs(spectrum_of_body(window, LAY)) ** 2, LAY)
        densities.append(float(wide[band].sum()) / bins)
    return float(np.mean(densities))


def test_criterion_06_interference_equivalence(codebook):
    # arm A: all the disturbance is thermal noise at 0 dB SNR; arm B swaps a
    # third of that in-band disturbance density for data-like interference,
    # holding the folded signal-to-disturbance ratio at 0 dB
    config = DetectorConfig(layout=LAY, codebook=codebook, gamma=0.62)
    n_ref = noise_power_for_snr(0.0, 1.0, LAY)
    density = _interferer_band_density(seed=85)
    interferer_power = (n_ref / 3.0) / density
    trials = 10_000

    hits_a = sum(
        _detection_trial(codebook, config, np.random.default_rng([86, t]), n_ref)
        for t in range(trials)
    )
    hits_b = sum(
        _detection_trial(
            codebook, config, np.random.default_rng([87, t]),
            n_ref * (2.0 / 3.0), interferer_power=interferer_power,
        )
        for t in range(trials)
    )
    p_a, p_b = hits_a / trials, hits_b / trials
    pooled = (hits_a + hits_b) / (2 * trials)
    z = (p_a - p_b) / math.sqrt(pooled * (1.0 - pooled) * 2.0 / trials)
    assert abs(z) < 2.576, (p_a, p_b, z)


def test_criterion_07_active_carrier_sweep_interior_minimum():
    q, *_ = min(sweep_active_carriers(56, 0.0), key=lambda row: row[2])
    assert 14 < q < 28


def test_criterion_08_deterministic_calculators():
    assert abs(range_gain(20.0, 3.0) - 4.642) <= 0.01
    assert abs(range_gain(20.0, 6.0) - 2.154) <= 0.01
    assert abs(overhead(1500) - 0.0611) <= 0.0001


def test_criterion_09_family_ordering_and_pairs_bound(codebook):
    trials, seed, gamma = 300_000, 88, 0.55
    sizes = (1, 8, 28, 56)
    estimates = []
    for size in sizes:
        family = Codebook(f"prefix-{size}", LAY.groups, 13, codebook.words[:size])
        estimates.append(pf_family_mc(gamma, family, LAY, trials, seed)[0])
    # nested prefixes on one seed share draws, so growth is pointwise
    assert all(a < b for a, b in zip(estimates, estimates[1:])), estimates
    closed = pf_single(gamma)
    sigma = math.sqrt(closed * (1.0 - closed) / trials)
    assert abs(estimates[0] - closed) <= 3.0 * sigma
    bound, bound_ci = pf_pairs_bound(gamma, LAY, trials, seed)
    assert bound >= estimates[-1]


def test_criterion_10_property_suite(tmp_path, codebook):
    # Parseval round trip
    rng = np.random.default_rng(89)
    mask = codeword_to_mask(codebook.words[5], LAY)
    spectrum = build_tag_spectrum(mask, LAY, 2.0, rng)
    frame = synthesize_tag(spectrum, LAY)
    body_power = float(np.sum(np.abs(frame.samples[LAY.cp_len :]) ** 2))
    spectral_power = float(np.sum(np.abs(spectrum) ** 2))
    assert abs(body_power - spectral_power) < 1e-9 * spectral_power

    # cyclic prefix equality is exact
    assert np.array_equal(frame.samples[: LAY.cp_len], frame.samples[LAY.fft_size :])

    # tag strength is exactly invariant under power-of-two scaling
    powers = np.random.default_rng(90).chisquare(16, size=LAY.wide_total)
    config = DetectorConfig(layout=LAY, codebook=codebook, denominator="all")
    assert np.array_equal(strengths(4.0 * powers, config), strengths(powers, config))

    # folding conserves power
    bins = rng.normal(size=LAY.fft_size) + 1j * rng.normal(size=LAY.fft_size)
    total = float(np.sum(np.abs(bins) ** 2))
    assert abs(float(fold_spectrum(np.abs(bins) ** 2, LAY).sum()) - total) < 1e-12 * total

    # reruns are byte-identical end to end
    first, second = tmp_path / "a.iq", tmp_path / "b.iq"
    for path in (first, second):
        assert cli_main(["modulate", "--word", "4", "--seed", "17",
                         "--out", str(path)]) == 0
    assert first.read_bytes() == second.read_bytes()

    table_a, table_b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["curves", "--snr", "0,1", "--gamma", "0.55,0.62",
            "--trials", "2000", "--seed", "19"]
    for path in (table_a, table_b):
        assert cli_main(argv + ["--out", str(path)]) == 0
    assert table_a.read_bytes() == table_b.read_bytes()
