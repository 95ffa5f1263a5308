"""Spotter pipeline: folding, strength, gating, suppression, serialization."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagspot import detector
from tagspot.carriers import CarrierLayout, REFERENCE_LAYOUT
from tagspot.cli import serialize_events
from tagspot.channel import apply_awgn, mix
from tagspot.codebook import Codebook, codeword_to_mask, mask_matrix
from tagspot.detector import (
    DetectionEvent,
    DetectorConfig,
    center_of_mass,
    fold_spectrum,
    noise_tracker_update,
    spot_report,
    strengths,
)
from tagspot.scenario import tag_frame, tagged_stream
from tagspot.waveform import IqFrame, build_tag_spectrum, synthesize_tag
from events import parse_events
from layouts import ODD, VALID_LAYOUTS

LAY = REFERENCE_LAYOUT


def test_fold_conserves_power():
    rng = np.random.default_rng(40)
    bins = rng.normal(size=512) + 1j * rng.normal(size=512)
    wide = fold_spectrum(np.abs(bins) ** 2, LAY)
    assert wide.shape == (64,)
    total = float(np.sum(np.abs(bins) ** 2))
    assert abs(float(wide.sum()) - total) < 1e-12 * total
    with pytest.raises(ValueError):
        fold_spectrum(np.abs(bins[:100]) ** 2, LAY)
    # complex bins are refused, so a spectrum is never folded unsquared
    with pytest.raises(ValueError, match="thin-bin powers"):
        fold_spectrum(bins, LAY)


def _config(codebook, denominator):
    return DetectorConfig(layout=LAY, codebook=codebook, denominator=denominator)


def test_flat_spectrum_strength_is_the_mask_fraction(codebook):
    powers = np.ones(64)
    assert np.all(strengths(powers, _config(codebook, "all")) == 28 / 64)
    assert np.all(strengths(powers, _config(codebook, "band")) == 0.5)


def test_strength_scale_invariance_is_exact(codebook):
    rng = np.random.default_rng(41)
    powers = rng.chisquare(16, size=64)
    # power-of-two scaling is lossless in floating point
    for denominator, scale in (("all", 4.0), ("band", 0.25)):
        config = _config(codebook, denominator)
        assert np.array_equal(strengths(scale * powers, config), strengths(powers, config))


def test_strength_input_validation(codebook):
    # no power in the denominator carriers scores 0, not 0/0
    nulls_only = np.zeros(64)
    nulls_only[sorted(LAY.null_wide)] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.any(strengths(np.zeros(64), _config(codebook, "all")))
        assert not np.any(strengths(nulls_only, _config(codebook, "band")))


def test_silent_band_windows_score_zero_without_warnings(codebook):
    # a pure DC stream has all its power on a null carrier
    stream = IqFrame(np.ones(LAY.fft_size * 20, dtype=complex))
    config = DetectorConfig(layout=LAY, codebook=codebook)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = spot_report(stream, config)
    assert report.events == ()
    assert report.windows_gated == 0
    assert report.windows_total == (len(stream) - LAY.fft_size) // LAY.cp_len + 1


@given(layout=VALID_LAYOUTS, data=st.data())
def test_center_of_mass_positions(codebook, layout, data):
    bound = DetectorConfig(layout=LAY, codebook=codebook).com_bound
    delta = np.zeros(64)
    delta[40] = 2.0
    position = center_of_mass(delta, LAY)
    assert type(position) is float
    assert position == LAY.centered_wide[40] == 8.5
    assert abs(position) > bound  # outside the central quarter

    near = np.zeros(64)
    near[39] = 1.0
    assert center_of_mass(near, LAY) == 7.5 <= bound

    symmetric = np.zeros(64)
    symmetric[10] = symmetric[53] = 3.0
    assert center_of_mass(symmetric, LAY) == 0.0
    with pytest.raises(ValueError):
        center_of_mass(np.zeros(64), LAY)

    # a stack of rows: one position per row, each its 1-D call's bit for bit
    rows = np.stack([delta, near, symmetric])
    positions = center_of_mass(rows, LAY)
    assert positions.tolist() == [8.5, 7.5, 0.0]
    with pytest.raises(ValueError):
        center_of_mass(np.stack([delta, np.zeros(64), near]), LAY)

    # random nonnegative stacks on any layout, every row with some power
    count = data.draw(st.integers(1, 8))
    cells = count * layout.wide_total
    values = data.draw(st.lists(st.floats(0.0, 1e300), min_size=cells, max_size=cells))
    stack = np.array(values).reshape(count, layout.wide_total)
    for row in stack:
        if not row.any():
            row[data.draw(st.integers(0, layout.wide_total - 1))] = data.draw(
                st.floats(5e-324, 1e300))
    each = np.array([center_of_mass(row, layout) for row in stack])
    assert np.array_equal(center_of_mass(stack, layout).view(np.uint64), each.view(np.uint64))


def test_noise_tracker_update():
    assert noise_tracker_update(None, 3.0) == 3.0
    assert noise_tracker_update(2.0, 4.0) == pytest.approx(2.1, rel=1e-12)


def test_detector_config_validation(codebook):
    config = DetectorConfig(layout=LAY, codebook=codebook)
    assert config.com_bound == 8.0
    with pytest.raises(ValueError, match="gamma"):
        DetectorConfig(layout=LAY, codebook=codebook, gamma=1.0)
    with pytest.raises(ValueError, match="denominator must be one of"):
        DetectorConfig(layout=LAY, codebook=codebook, denominator="mask")
    # a NaN gate compares false with every SNR, so it would never gate;
    # -inf switches the gate off on purpose
    with pytest.raises(ValueError, match="carrier_sense_snr_db"):
        DetectorConfig(layout=LAY, codebook=codebook, carrier_sense_snr_db=float("nan"))
    for gate in (-np.inf, np.inf):
        DetectorConfig(layout=LAY, codebook=codebook, carrier_sense_snr_db=gate)
    # building the masks is the fit check: one bit per carrier group
    short = Codebook(name="short", min_distance=10, words=("0" * 10, "1" * 10))
    with pytest.raises(ValueError, match="^word length 10 != layout groups 28$"):
        DetectorConfig(layout=LAY, codebook=short)


def test_single_clean_tag_yields_one_correct_event(codebook):
    stream = tagged_stream(LAY, [(777, codebook.words[7])], 2560, 30.0, np.random.default_rng(50))
    config = DetectorConfig(layout=LAY, codebook=codebook)
    events = spot_report(stream, config).events
    assert len(events) == 1
    event = events[0]
    assert event.codeword_index == 7
    # the winning interval lies fully inside the tag frame
    assert 777 <= event.interval_start <= 777 + LAY.cp_len
    assert event.strength > 0.9


# center_of_mass is centered on (wide_total - 1) / 2 = 5.5, not on the mean
# position 4 of this layout's band carriers, 0-6 and 11: the all-zero word,
# carriers 0, 2, 4 and 6, sits at -2.5, outside com_bound 1.5, so a clean tag
# of it is never reported
OFF_CENTER_BAND = CarrierLayout(thin_per_wide=4, active_thin_per_wide=1, groups=4,
                                null_wide=frozenset({7, 8, 9, 10}), cp_fraction=1 / 6)


@pytest.mark.parametrize(
    "layout, word",
    [(LAY, 0), (LAY, 1), (ODD, 0), (ODD, 1),
     pytest.param(OFF_CENTER_BAND, 0, marks=pytest.mark.xfail(
         strict=True, reason="center of mass is not centered on the band")),
     (OFF_CENTER_BAND, 1)],
    ids=["reference-zeros", "reference-ones", "odd-zeros", "odd-ones",
         "off-center-band-zeros", "off-center-band-ones"],
)
def test_a_clean_tag_is_found_on_a_valid_layout(layout, word):
    # the all-zero and all-one words: each group's first carriers, then its second
    codebook = Codebook(name="zeros-ones", min_distance=layout.groups,
                        words=("0" * layout.groups, "1" * layout.groups))
    mask = codeword_to_mask(codebook.words[word], layout)
    tag = synthesize_tag(build_tag_spectrum(mask, layout, 1.0, np.random.default_rng(word)),
                         layout)
    offset = 2 * layout.frame_len
    quiet = IqFrame(np.zeros(5 * layout.frame_len, dtype=complex))
    stream = mix([(quiet, 0, 1.0), (tag, offset, 1.0)])
    events = spot_report(stream, DetectorConfig(layout=layout, codebook=codebook)).events
    assert any(e.codeword_index == word and abs(e.interval_start - offset) <= layout.frame_len
               for e in events)


def test_two_separated_tags_give_two_events(codebook):
    a = tagged_stream(LAY, [(1000, codebook.words[3])], 6000, 30.0, np.random.default_rng(51))
    tag_b = tag_frame(codebook.words[12], LAY, np.random.default_rng(52))
    stream = mix([(a, 0, 1.0), (tag_b, 4000, 1.0)])
    events = spot_report(stream, DetectorConfig(layout=LAY, codebook=codebook)).events
    assert [e.codeword_index for e in events] == [3, 12]


def test_a_reversed_view_spots_like_its_copy(codebook):
    # np.abs rounds a negative-stride view differently in the last bit, so
    # IqFrame stores its samples C-contiguous and the events match bit for bit
    a = tagged_stream(LAY, [(1000, codebook.words[3])], 6000, 3.0, np.random.default_rng(51))
    b = tagged_stream(LAY, [(3000, codebook.words[12])], 6000, 3.0, np.random.default_rng(52))
    x = mix([(a, 0, 1.0), (b, 0, 1.0)]).samples
    frame = IqFrame(x[::-1].copy()[::-1])
    assert frame.samples.flags.c_contiguous
    config = DetectorConfig(layout=LAY, codebook=codebook)
    report = spot_report(frame, config)
    assert len(report.events) == 2
    assert report == spot_report(IqFrame(x.copy()), config)


def test_overlapping_candidates_are_suppressed_to_one(codebook):
    # a tag aligned to the interval grid fills two intervals completely;
    # only the stronger one may survive
    stream = tagged_stream(LAY, [(1280, codebook.words[0])], 2560, 30.0, np.random.default_rng(53))
    report = spot_report(stream, DetectorConfig(layout=LAY, codebook=codebook))
    assert len(report.events) == 1
    assert report.windows_total == (len(stream) - LAY.fft_size) // LAY.cp_len + 1


def test_carrier_sense_gates_quiet_intervals(codebook):
    # leading silence seeds the tracker at zero power and is gated
    stream = tagged_stream(LAY, [(1400, codebook.words[5])], 2560, 30.0, np.random.default_rng(54))
    silent = np.concatenate([np.zeros(640, dtype=complex), stream.samples])
    report = spot_report(IqFrame(silent), DetectorConfig(layout=LAY, codebook=codebook))
    assert report.windows_gated >= 1
    assert len(report.events) == 1
    assert report.events[0].codeword_index == 5


def test_a_stream_that_opens_with_a_tag_is_not_gated_until_the_floor_is_seeded(codebook):
    rng = np.random.default_rng(60)
    tag = tag_frame(codebook.words[4], LAY, rng)
    config = DetectorConfig(layout=LAY, codebook=codebook, carrier_sense_snr_db=100.0)
    # no interval at or below gamma: the floor is never set, nothing is gated
    report = spot_report(tag, config)
    assert report.windows_gated == 0
    assert [(e.codeword_index, e.snr_estimate_db) for e in report.events] == [(4, np.inf)]
    # weak noise after the tag: the windows up to the first noise-only one,
    # at sample 640, pass at inf dB; that window seeds the floor, and the
    # 100 dB gate then stops every later window
    noise = apply_awgn(IqFrame(np.zeros(2560, dtype=complex)), 1e-3, rng)
    report = spot_report(mix([(tag, 0, 1.0), (noise, 640, 1.0)]), config)
    assert report.windows_gated == report.windows_total - (640 // LAY.cp_len + 1)
    assert [(e.codeword_index, e.snr_estimate_db) for e in report.events] == [(4, np.inf)]


def test_band_denominator_reads_higher_than_all(codebook):
    stream = tagged_stream(LAY, [(600, codebook.words[9])], 2560, 10.0, np.random.default_rng(55))
    banded = spot_report(
        stream, DetectorConfig(layout=LAY, codebook=codebook, denominator="band")
    ).events
    allwide = spot_report(
        stream, DetectorConfig(layout=LAY, codebook=codebook, denominator="all")
    ).events
    assert len(banded) == 1 and len(allwide) == 1
    # null carriers only ever add noise to the denominator
    assert banded[0].strength > allwide[0].strength


def test_config_builds_its_masks_once(codebook, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return mask_matrix(*args)

    monkeypatch.setattr(detector, "mask_matrix", counted)
    cfg = DetectorConfig(layout=LAY, codebook=codebook)
    assert len(calls) == 1  # on construction, before any run
    stream = tagged_stream(LAY, [(300, codebook.words[7])], 2560, 6.0, np.random.default_rng(8))
    first = spot_report(stream, cfg)
    assert spot_report(stream, cfg) == first
    assert len(calls) == 1
    assert np.array_equal(cfg.masks, mask_matrix(codebook, LAY))
    assert list(cfg.denominator_wide) == list(LAY.band_wide)
    for array in (cfg.masks, cfg.denominator_wide):
        with pytest.raises(ValueError):
            array[0] = 1
    # the arrays follow from the other fields: equality, hashing and repr skip them
    twin = DetectorConfig(layout=LAY, codebook=codebook)
    assert twin == cfg and hash(twin) == hash(cfg) and "masks" not in repr(cfg)


def test_spot_working_set_does_not_grow_with_the_stream(codebook):
    # the windows are one strided view of the stream, and every temporary
    # spans one chunk of windows, so a 4x longer stream peaks no higher
    config = DetectorConfig(layout=LAY, codebook=codebook, carrier_sense_snr_db=-np.inf)
    rng = np.random.default_rng(41)
    peaks = []
    for size in (250_000, 1_000_000):
        stream = IqFrame(rng.normal(size=size) + 1j * rng.normal(size=size))
        tracemalloc.start()
        try:
            spot_report(stream, config)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 0.25 and peaks[1] < 4


def test_spot_rejects_short_streams(codebook):
    with pytest.raises(ValueError):
        spot_report(
            IqFrame(np.ones(100, dtype=complex)), DetectorConfig(layout=LAY, codebook=codebook)
        )


def test_windows_refuses_rows_outside_the_array():
    x = np.arange(10.0)
    assert detector._windows(x, 1, 3, 5, 2).tolist() == [
        [1, 2, 3, 4, 5], [3, 4, 5, 6, 7], [5, 6, 7, 8, 9]]
    for start, count, n, hop in ((2, 3, 5, 2), (0, 0, 5, 2), (0, 3, 5, 0), (-1, 1, 5, 1)):
        with pytest.raises(ValueError, match="overrun 10 samples"):
            detector._windows(x, start, count, n, hop)


def test_event_serialization_roundtrip():
    # the exact bytes event files carry; perfbench pins their digests
    events = [
        DetectionEvent(128, 7, 0.73125, -0.25, 3.5),
        DetectionEvent(512, 41, 0.951234567, 1.0, 12.25),
        DetectionEvent(0, 3, 1 / 3, -1e-12, np.inf),  # a stream that opens with a tag
    ]
    text = serialize_events(events)
    assert text == (
        "# interval_start\tcodeword_index\tstrength\tcom_position\tsnr_estimate_db\tcom_valid\n"
        "128\t7\t0.73125\t-0.25\t3.5\t1\n"
        "512\t41\t0.951234567\t1\t12.25\t1\n"
        "0\t3\t0.333333333\t-1e-12\tinf\t1\n"
    )
    assert serialize_events([]) == text.splitlines(keepends=True)[0]
    assert parse_events(text)[:2] == events[:2]  # nine digits hold these exactly
