"""Channel impairments: calibration and invariants."""

import numpy as np
import pytest

from tagspot.carriers import REFERENCE_LAYOUT
from tagspot.channel import (
    apply_awgn,
    apply_cfo,
    apply_fading,
    gain_for_sir,
    mix,
    noise_power_for_snr,
)
from tagspot.codebook import codeword_to_mask
from tagspot.waveform import (
    IqFrame,
    active_thin_bins,
    build_tag_spectrum,
    mean_power,
    spectrum_of_body,
    synthesize_tag,
)

LAY = REFERENCE_LAYOUT
MASK = codeword_to_mask("0011" * 7, LAY)


def _tag(seed, power=1.0):
    rng = np.random.default_rng(seed)
    return synthesize_tag(build_tag_spectrum(MASK, LAY, power, rng), LAY)


def test_noise_power_reference_point():
    # unit tone power at 0 dB: n = beta / alpha = 0.5
    assert noise_power_for_snr(0.0, 1.0, LAY) == 0.5
    assert noise_power_for_snr(10.0, 1.0, LAY) == pytest.approx(0.05, rel=1e-12)
    with pytest.raises(ValueError):
        noise_power_for_snr(0.0, 0.0, LAY)


def test_awgn_calibration_and_determinism():
    quiet = IqFrame(np.zeros(200_000, dtype=complex))
    rng = np.random.default_rng(11)
    noisy = apply_awgn(quiet, 2.0, rng)
    # mean power is n within 5 sigma of the 200k-sample average
    assert abs(mean_power(noisy) - 2.0) < 5 * 2.0 / np.sqrt(200_000)
    again = apply_awgn(quiet, 2.0, np.random.default_rng(11))
    assert np.array_equal(noisy.samples, again.samples)
    assert apply_awgn(quiet, 0.0, rng) is quiet
    with pytest.raises(ValueError):
        apply_awgn(quiet, -1.0, rng)


def test_cfo_preserves_power_and_zero_is_identity():
    frame = _tag(21)
    shifted = apply_cfo(frame, 1.37, LAY)
    assert mean_power(shifted) == pytest.approx(mean_power(frame), rel=1e-12)
    assert apply_cfo(frame, 0.0, LAY) is frame


def test_integer_cfo_shifts_every_tone_by_whole_bins():
    # all-zeros word: active carriers are two apart, so a one-carrier shift
    # never lands a tone on another tone's old bins
    mask = codeword_to_mask("0" * 28, LAY)
    rng = np.random.default_rng(22)
    frame = synthesize_tag(build_tag_spectrum(mask, LAY, 1.0, rng), LAY)
    bins = active_thin_bins(mask, LAY)
    shifted = apply_cfo(frame, 8.0, LAY)
    spectrum = spectrum_of_body(shifted.samples[LAY.cp_len :], LAY)
    power = np.abs(spectrum) ** 2
    original = spectrum_of_body(frame.samples[LAY.cp_len :], LAY)
    assert np.allclose(power[bins + 8], np.abs(original[bins]) ** 2, rtol=1e-9)
    assert float(power[bins].sum()) < 1e-18  # old positions fully vacated


def test_half_bin_cfo_leak_matches_the_closed_form():
    # single tone at half-bin offset keeps sinc^2(0.5) of its power in place
    spectrum = np.zeros(LAY.fft_size, dtype=complex)
    spectrum[300] = 1.0
    frame = synthesize_tag(spectrum, LAY)
    shifted = apply_cfo(frame, 0.5, LAY)
    measured = np.abs(spectrum_of_body(shifted.samples[LAY.cp_len :], LAY)) ** 2
    assert measured[300] == pytest.approx((2.0 / np.pi) ** 2, abs=1e-4)


def test_narrowband_fading_is_a_common_phase():
    frame = _tag(23)
    rng = np.random.default_rng(5)
    faded = apply_fading(frame, "narrowband", rng, LAY)
    assert np.allclose(np.abs(faded.samples), np.abs(frame.samples), rtol=1e-12)
    ratio = faded.samples[frame.samples != 0] / frame.samples[frame.samples != 0]
    assert np.allclose(ratio, ratio[0], rtol=1e-9)


def test_wideband_fading_keeps_the_prefix_and_unit_mean_gain():
    gains = []
    for seed in range(100):
        frame = _tag(24)
        faded = apply_fading(frame, "wideband-rayleigh", np.random.default_rng(seed), LAY)
        assert np.array_equal(
            faded.samples[: LAY.cp_len], faded.samples[LAY.fft_size :]
        )
        gains.append(mean_power(faded) / mean_power(frame))
    # per-carrier unit-mean-square gains: frame power is unbiased
    assert abs(np.mean(gains) - 1.0) < 0.05


def test_fading_validation():
    frame = _tag(25)
    rng = np.random.default_rng(0)
    assert apply_fading(frame, "none", rng, LAY) is frame
    with pytest.raises(ValueError):
        apply_fading(frame, "rician", rng, LAY)
    with pytest.raises(ValueError):  # wideband fading needs one whole frame
        apply_fading(IqFrame(np.ones(100, dtype=complex)), "wideband-rayleigh", rng, LAY)


def test_mix_places_scales_and_zero_pads():
    a = IqFrame(np.ones(4, dtype=complex))
    b = IqFrame(2.0 * np.ones(3, dtype=complex))
    out = mix([(a, 0, 1.0), (b, 2, 0.5j)])
    assert len(out) == 5
    assert out.samples[0] == 1.0
    assert out.samples[2] == 1.0 + 1.0j
    assert out.samples[4] == 1.0j
    with pytest.raises(ValueError):
        mix([])
    with pytest.raises(ValueError):
        mix([(a, -1, 1.0)])


def test_gain_for_sir_hits_the_target_over_the_overlap():
    signal = _tag(26)
    interference = IqFrame(np.random.default_rng(27).normal(size=800).astype(complex))
    gain = gain_for_sir(signal, interference, 100, 7.0)
    lo, hi = 100, len(signal)
    p_sig = np.mean(np.abs(signal.samples[lo:hi]) ** 2)
    p_int = np.mean(np.abs(gain * interference.samples[: hi - lo]) ** 2)
    assert 10 * np.log10(p_sig / p_int) == pytest.approx(7.0, abs=1e-9)
    with pytest.raises(ValueError):
        gain_for_sir(signal, interference, 5000, 7.0)  # no overlap

