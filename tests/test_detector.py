"""Spotter pipeline: folding, strength, gating, suppression, serialization."""

import warnings

import numpy as np
import pytest

from tagspot import detector
from tagspot.carriers import REFERENCE_LAYOUT
from tagspot.channel import apply_awgn, mix, noise_power_for_snr
from tagspot.codebook import Codebook, codeword_to_mask, mask_matrix
from tagspot.detector import (
    DetectionEvent,
    DetectorConfig,
    center_of_mass,
    fold_spectrum,
    noise_tracker_update,
    parse_events,
    serialize_events,
    spot_report,
    strengths,
)
from tagspot.waveform import IqFrame, build_tag_spectrum, synthesize_tag

LAY = REFERENCE_LAYOUT


def _stream_with_tag(codebook, word_index, offset, snr_db, total=2560, seed=0):
    """Tag embedded in calibrated noise; per-tone power 1."""
    rng = np.random.default_rng(seed)
    mask = codeword_to_mask(codebook.words[word_index], LAY)
    power = float(LAY.active_thin_per_wide * LAY.groups)
    tag = synthesize_tag(build_tag_spectrum(mask, LAY, power, rng), LAY)
    quiet = IqFrame(np.zeros(total, dtype=complex))
    stream = mix([(quiet, 0, 1.0), (tag, offset, 1.0)])
    n = noise_power_for_snr(snr_db, 1.0, LAY)
    return apply_awgn(stream, n, rng)


def test_fold_conserves_power():
    rng = np.random.default_rng(40)
    bins = rng.normal(size=512) + 1j * rng.normal(size=512)
    wide = fold_spectrum(bins, LAY)
    assert wide.shape == (64,)
    total = float(np.sum(np.abs(bins) ** 2))
    assert abs(float(wide.sum()) - total) < 1e-12 * total
    with pytest.raises(ValueError):
        fold_spectrum(bins[:100], LAY)


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


def test_center_of_mass_positions(codebook):
    bound = DetectorConfig(layout=LAY, codebook=codebook).com_bound
    delta = np.zeros(64)
    delta[40] = 2.0
    position = center_of_mass(delta, LAY)
    assert position == detector._centered_positions(64)[40] == 8.5
    assert abs(position) > bound  # outside the central quarter

    delta = np.zeros(64)
    delta[39] = 1.0
    position = center_of_mass(delta, LAY)
    assert position == 7.5 and abs(position) <= bound

    symmetric = np.zeros(64)
    symmetric[10] = symmetric[53] = 3.0
    assert center_of_mass(symmetric, LAY) == 0.0
    with pytest.raises(ValueError):
        center_of_mass(np.zeros(64), LAY)


def test_noise_tracker_update():
    assert noise_tracker_update(None, 3.0) == 3.0
    assert noise_tracker_update(2.0, 4.0) == pytest.approx(2.1, rel=1e-12)


def test_detector_config_validation(codebook):
    config = DetectorConfig(layout=LAY, codebook=codebook)
    assert config.com_bound == 8.0
    with pytest.raises(ValueError):
        DetectorConfig(layout=LAY, codebook=codebook, gamma=1.0)
    with pytest.raises(ValueError):
        DetectorConfig(layout=LAY, codebook=codebook, denominator="mask")
    with pytest.raises(ValueError):
        short = Codebook(name="short", word_length=10, min_distance=10,
                         words=("0" * 10, "1" * 10))
        DetectorConfig(layout=LAY, codebook=short)


def test_single_clean_tag_yields_one_correct_event(codebook):
    stream = _stream_with_tag(codebook, 7, offset=777, snr_db=30.0, seed=50)
    config = DetectorConfig(layout=LAY, codebook=codebook)
    events = spot_report(stream, config).events
    assert len(events) == 1
    event = events[0]
    assert event.codeword_index == 7
    # the winning interval lies fully inside the tag frame
    assert 777 <= event.interval_start <= 777 + LAY.cp_len
    assert event.strength > 0.9
    assert event.com_valid


def test_two_separated_tags_give_two_events(codebook):
    a = _stream_with_tag(codebook, 3, offset=1000, snr_db=30.0, total=6000, seed=51)
    mask = codeword_to_mask(codebook.words[12], LAY)
    power = float(LAY.active_thin_per_wide * LAY.groups)
    tag_b = synthesize_tag(
        build_tag_spectrum(mask, LAY, power, np.random.default_rng(52)), LAY
    )
    stream = mix([(a, 0, 1.0), (tag_b, 4000, 1.0)])
    events = spot_report(stream, DetectorConfig(layout=LAY, codebook=codebook)).events
    assert [e.codeword_index for e in events] == [3, 12]


def test_overlapping_candidates_are_suppressed_to_one(codebook):
    # a tag aligned to the interval grid fills two intervals completely;
    # only the stronger one may survive
    stream = _stream_with_tag(codebook, 0, offset=1280, snr_db=30.0, seed=53)
    report = spot_report(stream, DetectorConfig(layout=LAY, codebook=codebook))
    assert len(report.events) == 1
    assert report.windows_total == (len(stream) - LAY.fft_size) // LAY.cp_len + 1


def test_carrier_sense_gates_quiet_intervals(codebook):
    # leading silence seeds the tracker at zero power and is gated
    stream = _stream_with_tag(codebook, 5, offset=1400, snr_db=30.0, seed=54)
    silent = np.concatenate([np.zeros(640, dtype=complex), stream.samples])
    report = spot_report(IqFrame(silent), DetectorConfig(layout=LAY, codebook=codebook))
    assert report.windows_gated >= 1
    assert len(report.events) == 1
    assert report.events[0].codeword_index == 5


def test_a_stream_that_opens_with_a_tag_is_not_gated_until_the_floor_is_seeded(codebook):
    mask = codeword_to_mask(codebook.words[4], LAY)
    power = float(LAY.active_thin_per_wide * LAY.groups)
    rng = np.random.default_rng(60)
    tag = synthesize_tag(build_tag_spectrum(mask, LAY, power, rng), LAY)
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
    stream = _stream_with_tag(codebook, 9, offset=600, snr_db=10.0, seed=55)
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
    stream = _stream_with_tag(codebook, 7, 300, 6.0, seed=8)
    first = spot_report(stream, cfg)
    assert spot_report(stream, cfg) == first
    assert len(calls) == 1
    assert cfg.masks is cfg.masks and not cfg.masks.flags.writeable
    assert np.array_equal(cfg.masks, mask_matrix(codebook, LAY))
    with pytest.raises(ValueError):
        cfg.masks[0, 0] = 1.0


def test_spot_rejects_short_streams(codebook):
    with pytest.raises(ValueError):
        spot_report(
            IqFrame(np.ones(100, dtype=complex)), DetectorConfig(layout=LAY, codebook=codebook)
        )


def test_event_serialization_roundtrip():
    events = [
        DetectionEvent(128, 7, 0.73125, -0.25, True, 3.5),
        DetectionEvent(512, 41, 0.951234567, 1.0, False, 12.25),
    ]
    parsed = parse_events(serialize_events(events))
    assert len(parsed) == 2
    for original, back in zip(events, parsed):
        assert back.interval_start == original.interval_start
        assert back.codeword_index == original.codeword_index
        assert back.com_valid == original.com_valid
        assert back.strength == pytest.approx(original.strength, rel=1e-8)
        assert back.com_position == pytest.approx(original.com_position, rel=1e-8)
        assert back.snr_estimate_db == pytest.approx(original.snr_estimate_db, rel=1e-8)
    with pytest.raises(ValueError):
        DetectionEvent.from_line("1\t2\t3")
