"""IQ file format: interleaved float32 samples plus a JSON sidecar."""

import numpy as np
import pytest

from tagspot.carriers import REFERENCE_LAYOUT, layout_from_dict
from tagspot.iqfile import read_iq, sidecar_path, write_iq
from tagspot.waveform import IqFrame


def _random_frame(seed, size=256):
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=size) + 1j * rng.normal(size=size)
    return IqFrame(samples)


def test_roundtrip_is_exact_after_float32_quantization(tmp_path):
    frame = _random_frame(1)
    path = tmp_path / "frame.iq"
    side = write_iq(path, frame)
    assert side == sidecar_path(path)
    back, meta = read_iq(path)
    expected = frame.samples.real.astype(np.float32).astype(
        np.float64
    ) + 1j * frame.samples.imag.astype(np.float32).astype(np.float64)
    assert np.array_equal(back.samples, expected)
    assert meta["sample_rate"] == 1.0


def test_rewrite_is_byte_identical(tmp_path):
    frame = _random_frame(2)
    first, second = tmp_path / "a.iq", tmp_path / "b.iq"
    write_iq(first, frame, layout=REFERENCE_LAYOUT)
    back, meta = read_iq(first)
    write_iq(second, back, layout=layout_from_dict(meta["layout"]),
             sample_rate=meta["sample_rate"])
    assert first.read_bytes() == second.read_bytes()
    assert sidecar_path(first).read_text() == sidecar_path(second).read_text()


def test_sidecar_carries_layout_and_extra_fields(tmp_path):
    path = tmp_path / "frame.iq"
    write_iq(path, _random_frame(3), layout=REFERENCE_LAYOUT, extra={"origin": "unit-test"},
             sample_rate=2e6)
    _, meta = read_iq(path)
    assert meta["sample_rate"] == 2e6
    assert meta["origin"] == "unit-test"
    assert layout_from_dict(meta["layout"]) == REFERENCE_LAYOUT


def test_extra_fields_cannot_shadow_core_metadata(tmp_path):
    with pytest.raises(ValueError):
        write_iq(tmp_path / "x.iq", _random_frame(4), extra={"sample_rate": 9.0})


def test_missing_sidecar_defaults(tmp_path):
    path = tmp_path / "bare.iq"
    write_iq(path, _random_frame(5))
    sidecar_path(path).unlink()
    _, meta = read_iq(path)
    assert meta == {"sample_rate": 1.0}


def test_sample_rate_is_checked_where_it_is_written_and_read(tmp_path):
    path = tmp_path / "rate.iq"
    for bad in (float("inf"), float("nan"), 0.0, -1.0, True, "2e6", None):
        with pytest.raises(ValueError, match="sample_rate"):
            write_iq(path, _random_frame(6), sample_rate=bad)
        assert not path.exists()
    write_iq(path, _random_frame(6))
    side = sidecar_path(path)
    for bad in ("Infinity", "NaN", "0", "-1", "true", '"2e6"', "null"):
        side.write_text(f'{{"sample_rate": {bad}}}')
        with pytest.raises(ValueError, match="sample_rate"):
            read_iq(path)
    side.write_text('{"sample_rate": 2000000}')
    rate = read_iq(path)[1]["sample_rate"]
    assert rate == 2e6 and type(rate) is float


def test_read_rejects_ragged_or_empty_files(tmp_path):
    ragged = tmp_path / "ragged.iq"
    ragged.write_bytes(b"\x00" * 12)  # one and a half sample pairs
    with pytest.raises(ValueError):
        read_iq(ragged)
    empty = tmp_path / "empty.iq"
    empty.write_bytes(b"")
    with pytest.raises(ValueError):
        read_iq(empty)


# signed zeros, float32 subnormals and values near the float32 limit
_EDGE_PAIRS = [
    (-0.0, 1.5), (2.0, -0.0), (-0.0, -0.0), (0.0, 0.0),
    (1e-45, -1e-45), (-1.2e-38, 3e-39), (3e38, -3e38), (-3e38, 3e38),
]


def _write_raw(path, pairs):
    path.write_bytes(np.asarray(pairs, dtype="<f4").tobytes())


def test_read_matches_the_componentwise_sum(tmp_path):
    path = tmp_path / "edge.iq"
    _write_raw(path, _EDGE_PAIRS)
    interleaved = np.frombuffer(path.read_bytes(), dtype="<f4")
    # oracle: how read_iq assembled the samples before, up to signed zeros
    expected = interleaved[0::2].astype(np.float64) + 1j * interleaved[1::2].astype(
        np.float64
    )
    back, _ = read_iq(path)
    assert back.samples.dtype == np.complex128
    assert np.array_equal(back.samples, expected)


def test_rewrite_keeps_signed_zeros_and_extremes(tmp_path):
    first, second = tmp_path / "a.iq", tmp_path / "b.iq"
    _write_raw(first, _EDGE_PAIRS)
    back, _ = read_iq(first)
    write_iq(second, back)
    assert second.read_bytes() == first.read_bytes()
    assert np.signbit(back.samples.real[0]) and np.signbit(back.samples.imag[1])
