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

from tagspot.analysis import (
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
from tagspot.channel import noise_power_for_snr
from tagspot.cli import main as cli_main
from tagspot.codebook import Codebook, codeword_to_mask
from tagspot.detector import DetectorConfig, fold_spectrum, spot_report, strengths
from tagspot.scenario import interferer_band_density, measured_offset_leak, short_stream_trial
from tagspot.waveform import build_tag_spectrum, synthesize_tag

LAY = REFERENCE_LAYOUT


def _decoded(config, seed, noise, **channel):
    """True when some event of one short-stream trial decodes its word."""
    stream, word, _, _ = short_stream_trial(np.random.default_rng(seed), noise, **channel)
    return any(e.codeword_index == word for e in spot_report(stream, config).events)


def test_criterion_01_threshold_snr_consistency():
    # equal-noise-per-bin strength balance at the operating threshold
    value = gamma_equivalent_snr_db(0.62)
    assert 0.40 - 0.05 <= value <= 0.40 + 0.05


def test_criterion_02_leakage_closed_forms():
    start = time.monotonic()
    assert leakage_block(1) == np.pi**2 / 6.0
    for k in (1, 2, 3, 7):
        # integer spacings: exact zeros up to float rounding of sin(pi k)
        assert float(leakage_single(k, 0.0)) < 1e-30
    closed = expected_offset_leak(2.0)
    assert 0.020 <= closed <= 0.026
    measured = measured_offset_leak(2.0, seed=81)
    assert abs(measured - closed) < 0.003
    assert time.monotonic() - start < 60.0


def test_criterion_03_false_alarm_closed_form_vs_monte_carlo(codebook):
    # the symmetric band statistic has an exact median
    assert pf_single(0.5) == 0.5
    single = Codebook("single", 13, (codebook.words[0],))
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
        detected += _decoded(config, [83, t], noise, fading="wideband-rayleigh", cfo_limit=2.0)
    assert detected / trials >= 0.9, detected
    # noise-only event rate stays below one per million intervals
    assert pf_single(0.62) < 1e-6
    assert time.monotonic() - start < 600.0


def test_criterion_05_misclassification_floor(codebook):
    [(estimate, _)] = pm_mc([0.0], codebook, LAY, "wideband", trials=10_000, seed=84)
    assert estimate < 1e-3


def test_criterion_06_interference_equivalence(codebook):
    # arm A: all the disturbance is thermal noise at 0 dB SNR; arm B swaps a
    # third of that in-band disturbance density for data-like interference,
    # holding the folded signal-to-disturbance ratio at 0 dB
    config = DetectorConfig(layout=LAY, codebook=codebook, gamma=0.62)
    n_ref = noise_power_for_snr(0.0, 1.0, LAY)
    interferer_power = (n_ref / 3.0) / interferer_band_density()
    trials = 10_000

    hits_a = sum(_decoded(config, [86, t], n_ref) for t in range(trials))
    hits_b = sum(
        _decoded(config, [87, t], n_ref * (2.0 / 3.0), interferer_power=interferer_power)
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
        family = Codebook(f"prefix-{size}", 13, codebook.words[:size])
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
