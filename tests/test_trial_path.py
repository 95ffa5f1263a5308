"""The short-stream trial path: synthesis, channel and spotter.

Each rewrite of a per-call expression on this path must keep its bits, so
the expression it replaced is kept as the reference (here, or for the
interferer test_waveform's frame loop) and compared as raw 64-bit words.
Non-finite scalar parameters must fail by name before any draw.
"""

import math

import numpy as np
import pytest

from tagspot.carriers import REFERENCE_LAYOUT
from tagspot.channel import apply_awgn, apply_cfo, apply_fading, mix, noise_power_for_snr
from tagspot.codebook import builtin_codebook, codeword_to_mask
from tagspot.detector import DetectorConfig, spot_report
from tagspot.scenario import tag_frame
from tagspot.waveform import (
    IqFrame,
    build_tag_spectrum,
    spectrum_of_body,
    synthesize_data_interference,
    synthesize_tag,
)
from layouts import ODD
from test_waveform import _interference_by_frame

LAY = REFERENCE_LAYOUT
WORD = "0011" * 7
MASK = codeword_to_mask(WORD, LAY)
SEEDS = range(12)


def _tag(seed):
    return tag_frame(WORD, LAY, np.random.default_rng(seed))


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.complex128).view(np.uint64)


def _awgn_reference(frame, n, rng):
    noise = rng.normal(scale=np.sqrt(n / 2.0), size=(len(frame), 2))
    return frame.samples + noise[:, 0] + 1j * noise[:, 1]


def _wideband_reference(frame, rng, layout):
    spectrum = spectrum_of_body(frame.samples[layout.cp_len :], layout)
    pairs = rng.normal(scale=np.sqrt(0.5), size=(layout.fft_size, 2))
    return synthesize_tag(spectrum * (pairs[:, 0] + 1j * pairs[:, 1]), layout).samples


@pytest.mark.parametrize("n", [0.5, 0.0631, 3.7e-5])
def test_awgn_reads_its_draw_pairs_as_the_sum_did(n):
    frame = mix([(IqFrame(np.zeros(2560, dtype=complex)), 0, 1.0), (_tag(1), 700, 1.0)])
    for seed in SEEDS:
        got = apply_awgn(frame, n, np.random.default_rng(seed)).samples
        want = _awgn_reference(frame, n, np.random.default_rng(seed))
        assert np.array_equal(_bits(got), _bits(want))


def test_wideband_fading_reads_its_gain_pairs_as_the_sum_did():
    for seed in SEEDS:
        frame = _tag(seed)
        got = apply_fading(frame, "wideband-rayleigh", np.random.default_rng(seed), LAY).samples
        want = _wideband_reference(frame, np.random.default_rng(seed), LAY)
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("layout", [LAY, ODD], ids=["reference", "odd"])
@pytest.mark.parametrize("n_frames, total_power", [(1, 1.0), (32, 0.37), (7, 2.5e-3), (3, 0.0)])
def test_interference_indexes_four_points_as_the_per_symbol_exp_did(layout, n_frames, total_power):
    for seed in SEEDS:
        got = synthesize_data_interference(
            layout, n_frames, total_power, np.random.default_rng(seed)).samples
        want = _interference_by_frame(layout, n_frames, total_power, np.random.default_rng(seed))
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("step", [2, 3])
@pytest.mark.parametrize("gate_db", [-1.0, -np.inf], ids=["gate", "no-gate"])
def test_the_spotter_reads_a_strided_stream_as_its_copy(step, gate_db):
    """Two tags in noise over several chunks, read through a strided view
    whose skipped samples hold a far stronger tag of another word."""
    book = builtin_codebook()
    config = DetectorConfig(layout=LAY, codebook=book, carrier_sense_snr_db=gate_db)
    rng = np.random.default_rng(11)
    tags = [tag_frame(book.words[w], LAY, rng) for w in (3, 17, 40)]
    stream = apply_awgn(mix([
        (IqFrame(np.zeros(12_000, dtype=complex)), 0, 1.0),
        (tags[0], 2_000, 1.0), (tags[1], 9_000, 1.0),
    ]), noise_power_for_snr(3.0, 1.0, LAY), rng).samples
    other = mix([(IqFrame(np.zeros(12_000, dtype=complex)), 0, 1.0), (tags[2], 5_000, 30.0)])
    backing = np.tile(other.samples, step)
    backing[::step] = stream
    strided = backing[::step]
    assert not strided.flags.c_contiguous and np.array_equal(strided, stream)

    report = spot_report(IqFrame(strided), config)
    assert [e.codeword_index for e in report.events] == [3, 17]
    assert report == spot_report(IqFrame(strided.copy()), config)


FRAME = _tag(2)
NON_FINITE_CALLS = {
    "build_tag_spectrum": ("total_power", lambda v, rng: build_tag_spectrum(MASK, LAY, v, rng)),
    "synthesize_data_interference": (
        "total_power", lambda v, rng: synthesize_data_interference(LAY, 2, v, rng)),
    "apply_awgn": ("noise power n", lambda v, rng: apply_awgn(FRAME, v, rng)),
    "apply_cfo": ("cfo", lambda v, rng: apply_cfo(FRAME, v, LAY)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_a_non_finite_trial_parameter_fails_by_name_before_any_draw(call, value):
    # numpy warnings are errors in this suite, so a check reached only
    # through a RuntimeWarning and IqFrame's "samples must be finite" fails
    name, run = NON_FINITE_CALLS[call]
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        run(value, rng)
    assert rng.random() == np.random.default_rng(5).random()
