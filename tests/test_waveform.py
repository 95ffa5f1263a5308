"""Tag synthesis, power accounting, PAPR control, and the interferer."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagspot.carriers import CarrierLayout, REFERENCE_LAYOUT
from tagspot.codebook import codeword_to_mask
from tagspot.detector import fold_spectrum
from tagspot.waveform import (
    IqFrame,
    _ascending,
    _natural,
    active_thin_bins,
    build_tag_spectrum,
    interference_frame_len,
    interference_occupied_carriers,
    mean_power,
    papr,
    spectrum_of_body,
    synthesize_data_interference,
    synthesize_tag,
    synthesize_tag_papr_limited,
)
from layouts import ODD, VALID_LAYOUTS

LAY = REFERENCE_LAYOUT
MASK = codeword_to_mask("0101" * 7, LAY)

# 32 wide carriers of 8 thin bins: 12 two-carrier groups and 8 nulls
SMALL = CarrierLayout(
    fft_size=256,
    wide_total=32,
    groups=12,
    null_wide=frozenset({0, 1, 2, 16, 28, 29, 30, 31}),
)


def test_spectrum_puts_equal_tones_on_the_active_bins():
    rng = np.random.default_rng(1)
    spectrum = build_tag_spectrum(MASK, LAY, 4.0, rng)
    bins = active_thin_bins(MASK, LAY)
    assert bins.size == 112
    assert spectrum.dtype == np.complex128 and spectrum.shape == (LAY.fft_size,)
    nonzero = np.flatnonzero(spectrum)
    assert set(nonzero.tolist()) == set(bins.tolist())
    mags = np.abs(spectrum[bins])
    assert np.allclose(mags, mags[0], rtol=1e-12)
    assert float(np.sum(mags**2)) == pytest.approx(4.0, rel=1e-12)


def test_active_bins_sit_inside_their_wide_carriers():
    bins = active_thin_bins(MASK, LAY)
    for b in bins.tolist():
        assert MASK[b // LAY.thin_per_wide]
        assert b % LAY.thin_per_wide in LAY.active_thin_offsets


def test_parseval_roundtrip():
    rng = np.random.default_rng(2)
    spectrum = build_tag_spectrum(MASK, LAY, 3.0, rng)
    frame = synthesize_tag(spectrum, LAY)
    body = frame.samples[LAY.cp_len :]
    body_power = float(np.sum(np.abs(body) ** 2))
    assert body_power == pytest.approx(float(np.sum(np.abs(spectrum) ** 2)), rel=1e-12)
    # forward transform recovers the spectrum
    assert np.allclose(spectrum_of_body(body, LAY), spectrum, atol=1e-12)


def test_frame_has_exact_cyclic_prefix():
    rng = np.random.default_rng(3)
    frame = synthesize_tag(build_tag_spectrum(MASK, LAY, 1.0, rng), LAY)
    assert len(frame) == 640
    assert np.array_equal(frame.samples[: LAY.cp_len], frame.samples[LAY.fft_size :])


def test_every_window_of_a_frame_has_the_same_wide_powers():
    # the prefix makes any in-frame window a cyclic rotation of the body
    rng = np.random.default_rng(4)
    frame = synthesize_tag(build_tag_spectrum(MASK, LAY, 1.0, rng), LAY)
    reference = fold_spectrum(spectrum_of_body(frame.samples[: LAY.fft_size], LAY), LAY)
    for start in (1, 63, 128):
        window = frame.samples[start : start + LAY.fft_size]
        wide = fold_spectrum(spectrum_of_body(window, LAY), LAY)
        assert np.allclose(wide, reference, rtol=1e-9, atol=1e-12)


def test_synthesis_is_deterministic_per_seed():
    a = build_tag_spectrum(MASK, LAY, 1.0, np.random.default_rng(9))
    b = build_tag_spectrum(MASK, LAY, 1.0, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_mean_power_scales_with_total_power():
    lo = synthesize_tag(build_tag_spectrum(MASK, LAY, 2.0, np.random.default_rng(5)), LAY)
    hi = synthesize_tag(build_tag_spectrum(MASK, LAY, 8.0, np.random.default_rng(5)), LAY)
    assert mean_power(hi) == pytest.approx(4.0 * mean_power(lo), rel=1e-12)


def test_papr_reference_points():
    assert papr(IqFrame(np.ones(64, dtype=complex))) == 0.0
    two_level = np.concatenate([np.ones(32), 3.0 * np.ones(32)]).astype(complex)
    assert papr(IqFrame(two_level)) == pytest.approx(10 * np.log10(9 / 5), rel=1e-12)
    with pytest.raises(ValueError):
        papr(IqFrame(np.zeros(8, dtype=complex)))


def test_papr_limited_synthesis():
    rng = np.random.default_rng(6)
    loose = synthesize_tag_papr_limited(MASK, LAY, 1.0, 20.0, rng)
    assert loose.met_cap and loose.attempts == 1
    assert loose.papr_db <= 20.0

    rng = np.random.default_rng(6)
    tight = synthesize_tag_papr_limited(MASK, LAY, 1.0, 3.0, rng, max_attempts=4)
    assert tight.attempts <= 4
    if tight.met_cap:
        assert tight.papr_db <= 3.0
    assert papr(tight.frame) == pytest.approx(tight.papr_db, rel=1e-12)

    with pytest.raises(ValueError):
        synthesize_tag_papr_limited(MASK, LAY, 0.0, 8.0, rng)
    with pytest.raises(ValueError):
        synthesize_tag_papr_limited(MASK, LAY, 1.0, 8.0, rng, max_attempts=0)


def test_interferer_occupies_the_data_carriers():
    occupied = interference_occupied_carriers(LAY)
    assert len(occupied) == 48
    assert 32 not in occupied  # DC stays silent
    assert occupied == tuple(range(8, 32)) + tuple(range(33, 57))


def test_interferer_stream_shape_and_per_frame_power():
    rng = np.random.default_rng(7)
    stream = synthesize_data_interference(LAY, 8, 1.5, rng)
    assert len(stream) == 8 * 80  # 64-sample body + 16-sample prefix each
    # per-frame spectral power matches the request
    body = stream.samples[16:80]
    spectrum = np.fft.fftshift(np.fft.fft(body)) / np.sqrt(64)
    assert float(np.sum(np.abs(spectrum) ** 2)) == pytest.approx(1.5, rel=1e-9)
    occupied = np.asarray(interference_occupied_carriers(LAY))
    silent = np.setdiff1d(np.arange(64), occupied)
    assert np.max(np.abs(spectrum[silent])) < 1e-9
    with pytest.raises(ValueError):
        synthesize_data_interference(LAY, 0, 1.0, rng)


def test_iq_frame_validation():
    with pytest.raises(ValueError):
        IqFrame(np.array([], dtype=complex))
    with pytest.raises(ValueError):
        IqFrame(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        IqFrame(np.ones((2, 2)))


def test_tag_spectrum_validation():
    with pytest.raises(ValueError):
        build_tag_spectrum(MASK, LAY, -1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):  # a mask built for another layout
        build_tag_spectrum(codeword_to_mask("0" * 12, SMALL), LAY, 1.0,
                           np.random.default_rng(0))
    for wrong_shape in (np.array([], dtype=complex), np.ones(16, dtype=complex),
                        np.ones((1, LAY.fft_size), dtype=complex)):
        with pytest.raises(ValueError, match="spectrum shape"):
            synthesize_tag(wrong_shape, LAY)
    for bad in (np.nan, np.inf):
        spectrum = build_tag_spectrum(MASK, LAY, 1.0, np.random.default_rng(0))
        spectrum[300] = bad
        with pytest.raises(ValueError, match="finite"):
            synthesize_tag(spectrum, LAY)


@settings(max_examples=20)
@given(st.integers(0, 2**28 - 1))
def test_random_codewords_give_112_distinct_tone_bins(word_int):
    mask = codeword_to_mask(format(word_int, "028b"), LAY)
    bins = active_thin_bins(mask, LAY)
    assert bins.size == 112
    assert np.unique(bins).size == 112
    wides = {int(b) // LAY.thin_per_wide for b in bins}
    assert wides == set(np.flatnonzero(mask).tolist())


@pytest.mark.parametrize("layout", [LAY, SMALL, ODD], ids=["reference", "32-wide", "odd"])
@given(data=st.data())
def test_a_word_mask_takes_one_carrier_of_every_group(layout, data):
    word = data.draw(st.text("01", min_size=layout.groups, max_size=layout.groups))
    mask = codeword_to_mask(word, layout)
    assert mask.dtype == bool and mask.shape == (layout.wide_total,)
    assert all(mask[a] != mask[b] for a, b in layout.group_map)
    assert not mask[sorted(layout.null_wide)].any()
    assert np.count_nonzero(mask) == layout.groups
    bins = active_thin_bins(mask, layout)
    assert np.unique(bins).size == bins.size == layout.groups * layout.active_thin_per_wide
    assert mask[bins // layout.thin_per_wide].all()
    assert set((bins % layout.thin_per_wide).tolist()) <= set(layout.active_thin_offsets)


def _interference_by_frame(layout, n_frames, total_power, rng):
    """Frame-by-frame oracle for synthesize_data_interference."""
    body_len = layout.wide_total
    cp = interference_frame_len(layout) - body_len
    occupied = np.asarray(interference_occupied_carriers(layout))
    amplitude = np.sqrt(total_power / occupied.size)
    frames = []
    for _ in range(n_frames):
        phases = rng.integers(0, 4, occupied.size) * (np.pi / 2) + np.pi / 4
        spectrum = np.zeros(body_len, dtype=np.complex128)
        spectrum[occupied] = amplitude * np.exp(1j * phases)
        body = np.fft.ifft(np.fft.ifftshift(spectrum)) * np.sqrt(body_len)
        frames.append(np.concatenate([body[body_len - cp :], body]))
    return np.concatenate(frames)


def _assert_interference_matches_the_loop(layout, n_frames, seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = synthesize_data_interference(layout, n_frames, 2.5, got_rng)
    want = _interference_by_frame(layout, n_frames, 2.5, want_rng)
    assert len(got) == n_frames * interference_frame_len(layout)
    assert np.array_equal(got.samples, want)
    # the generator is left where the loop leaves it
    assert got_rng.integers(0, 2**62) == want_rng.integers(0, 2**62)


@pytest.mark.parametrize("layout", [LAY, SMALL], ids=["reference", "32-wide"])
@pytest.mark.parametrize("n_frames", [1, 33])
def test_interference_matches_the_frame_by_frame_loop(layout, n_frames):
    _assert_interference_matches_the_loop(layout, n_frames, 71)


@given(VALID_LAYOUTS, st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_interference_matches_the_loop_on_any_valid_layout(layout, n_frames, seed):
    if not interference_occupied_carriers(layout):  # two wide carriers, one of them DC
        with pytest.raises(ValueError, match="interferer"):
            synthesize_data_interference(layout, n_frames, 2.5, np.random.default_rng(seed))
        return
    _assert_interference_matches_the_loop(layout, n_frames, seed)


@given(VALID_LAYOUTS)
@example(CarrierLayout(thin_per_wide=3, active_thin_per_wide=1, groups=10, wide_total=22,
                       null_wide=frozenset({0, 11}), fft_size=66, cp_fraction=45 / 66))
def test_interference_prefix_is_the_tag_fraction_rounded_down(layout):
    # the example's 22 * (45 / 66) is 14.999999999999998 in floats; its prefix is 15
    cp = interference_frame_len(layout) - layout.wide_total
    # cp / wide_total <= cp_len / fft_size < (cp + 1) / wide_total
    assert cp * layout.fft_size <= layout.cp_len * layout.wide_total < (cp + 1) * layout.fft_size


@given(VALID_LAYOUTS)
def test_ascending_is_fftshift_and_natural_undoes_it(layout):
    rng = np.random.default_rng(layout.fft_size)
    # both parities whatever the layout's, and a batch on the last axis
    for n in (layout.fft_size, layout.fft_size + 1, layout.wide_total):
        x = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        assert np.array_equal(_ascending(x), np.fft.fftshift(x, axes=-1))
        assert np.array_equal(_natural(x), np.fft.ifftshift(x, axes=-1))
        assert np.array_equal(_ascending(x[0]), np.fft.fftshift(x[0]))
        assert np.array_equal(_natural(x[0]), np.fft.ifftshift(x[0]))
        assert np.array_equal(_natural(_ascending(x)), x)
        assert np.array_equal(_ascending(_natural(x)), x)


@given(VALID_LAYOUTS, st.integers(0, 2**32 - 1))
def test_tag_frames_keep_the_transform_convention_on_any_valid_layout(layout, seed):
    rng = np.random.default_rng(seed)
    n, cp = layout.fft_size, layout.cp_len
    spectrum = rng.normal(size=n) + 1j * rng.normal(size=n)
    frame = synthesize_tag(spectrum, layout)
    assert len(frame) == layout.frame_len
    body = frame.samples[cp:]
    assert np.array_equal(frame.samples[:cp], body[n - cp :])  # exact prefix
    assert np.allclose(spectrum_of_body(body, layout), spectrum, rtol=0, atol=1e-12)
    # bodies stacked on the last axis transform one by one
    stack = np.stack([body, np.roll(body, 1)])
    assert np.allclose(spectrum_of_body(stack, layout)[0], spectrum, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="fft_size"):
        spectrum_of_body(stack[:, 1:], layout)
    total = float(np.sum(np.abs(spectrum) ** 2))
    assert float(np.sum(np.abs(body) ** 2)) == pytest.approx(total, rel=1e-12)
    # folding a window's bins regroups them, so total power is conserved
    assert float(fold_spectrum(spectrum_of_body(body, layout), layout).sum()) == pytest.approx(total, rel=1e-12)
