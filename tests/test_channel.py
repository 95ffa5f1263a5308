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
    p_over_n,
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

from layouts import ODD

LAY = REFERENCE_LAYOUT
MASK = codeword_to_mask("0011" * 7, LAY)


def _tag(seed):
    rng = np.random.default_rng(seed)
    return synthesize_tag(build_tag_spectrum(MASK, LAY, 1.0, rng), LAY)


def test_noise_power_reference_point():
    # unit tone power at 0 dB: n = beta / alpha = 0.5
    assert noise_power_for_snr(0.0, 1.0, LAY) == 0.5
    assert noise_power_for_snr(10.0, 1.0, LAY) == pytest.approx(0.05, rel=1e-12)
    with pytest.raises(ValueError):
        noise_power_for_snr(0.0, 0.0, LAY)


def test_noise_power_follows_the_one_snr_rule():
    # the reference: SNR = beta p / (alpha n) solved for n, spelled out
    def spelled(snr_db, p, layout):
        beta, alpha = layout.active_thin_per_wide, layout.thin_per_wide
        return beta * p / (alpha * 10.0 ** (snr_db / 10.0))

    for snr_db in np.arange(-300.0, 300.1, 0.25).tolist():
        for p in (1.0, 0.37, 3e-5):
            # alpha / beta = 2 makes both quotients exact scalings of one number
            assert noise_power_for_snr(snr_db, p, LAY) == spelled(snr_db, p, LAY)
            n = noise_power_for_snr(snr_db, p, ODD)
            assert n * p_over_n(snr_db, ODD) == pytest.approx(p, rel=1e-15)


def test_an_snr_without_a_power_ratio_fails_by_name():
    # -inf dB is the no-signal point: p/n is 0, as is any ratio that underflows
    assert p_over_n(-np.inf, LAY) == 0.0 and p_over_n(-4000.0, LAY) == 0.0
    # 10 ** 400 overflows; 2 * 10 ** 308 is inf; a numpy SNR takes the same path
    for snr_db in (np.nan, 4000.0, 3080.0, np.float64(4000.0), np.float64(3080.0)):
        with pytest.raises(ValueError, match=f"^snr {snr_db:g} dB has no power ratio"):
            p_over_n(snr_db, LAY)
        with pytest.raises(ValueError, match=f"^snr {snr_db:g} dB has no power ratio"):
            noise_power_for_snr(snr_db, 1.0, LAY)
    # p/n is 0 at -inf and -4000 dB, and 2e-320 at -3200 dB, whose inverse is inf
    for snr_db in (-np.inf, -4000.0, -3200.0):
        with pytest.raises(ValueError, match=f"^snr {snr_db:g} dB needs a noise power past"):
            noise_power_for_snr(snr_db, 1.0, LAY)


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


def test_a_cfo_whose_phase_overflows_fails_by_name():
    # numpy warnings are errors in this suite, so an overflow in the rotation
    # would raise RuntimeWarning rather than this ValueError
    frame = _tag(21)
    for cfo in (1e308, -1e306, 1e305):
        with pytest.raises(ValueError, match="^cfo .* past the float range over 640 samples"):
            apply_cfo(frame, cfo, LAY)
    # a one-sample frame has no k past 0, but the rotation still forms 2j pi cfo
    with pytest.raises(ValueError, match="^cfo "):
        apply_cfo(IqFrame(np.ones(1)), 1e308, LAY)
    assert np.isfinite(apply_cfo(frame, 1e300, LAY).samples).all()


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
    quiet = IqFrame(np.zeros(800, dtype=complex))
    for pair in ((signal, quiet), (quiet, signal)):  # silence has no SIR to scale to
        with pytest.raises(ValueError, match="zero power in the overlap"):
            gain_for_sir(*pair, 100, 7.0)

