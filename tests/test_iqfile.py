"""IQ file format: interleaved float32 samples plus a JSON sidecar."""

import os
import tracemalloc

import numpy as np
import pytest

from tagspot.carriers import REFERENCE_LAYOUT, layout_from_dict
from tagspot.iqfile import _BLOCK_FLOATS, read_iq, sidecar_path, write_iq
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
    # a strided view is stored C-contiguous, so its blocks view as float pairs
    write_iq(path, IqFrame(frame.samples[::-2]))
    assert np.array_equal(read_iq(path)[0].samples, expected[::-2])


def test_roundtrip_crosses_block_boundaries_in_bounded_memory(tmp_path):
    # more than two blocks of samples, and not a whole number of blocks
    frame = _random_frame(7, size=5 * _BLOCK_FLOATS // 4 + 3)
    path = tmp_path / "long.iq"
    write_iq(path, frame)
    assert path.stat().st_size == 8 * len(frame)
    tracemalloc.start()
    try:
        back, _ = read_iq(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the samples plus one block, not a copy of the file beside them
    assert peak <= back.samples.nbytes + 2 * 2**20
    interleaved = frame.samples.view(np.float64).astype(np.float32)
    assert np.array_equal(back.samples.view(np.float64), interleaved.astype(np.float64))
    write_iq(tmp_path / "again.iq", back)
    assert (tmp_path / "again.iq").read_bytes() == path.read_bytes()
    # a strided frame is written as its samples, not as the memory under them
    write_iq(tmp_path / "strided.iq", IqFrame(back.samples[::3]))
    assert np.array_equal(read_iq(tmp_path / "strided.iq")[0].samples, back.samples[::3])


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
    # the metadata is checked before anything is written
    assert list(tmp_path.iterdir()) == []


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


def test_sidecar_repeats_no_field_and_names_itself(tmp_path):
    path = tmp_path / "twice.iq"
    write_iq(path, _random_frame(7), layout=REFERENCE_LAYOUT)
    side = sidecar_path(path)
    for name, text in [
        ("sample_rate", '{"sample_rate": 2.0, "sample_rate": 5.0}'),
        ("layout", '{"layout": {"groups": 1}, "layout": {}}'),
        ("groups", '{"layout": {"groups": 28, "groups": 28}}'),
    ]:
        side.write_text(text)
        with pytest.raises(ValueError, match=repr(name)) as err:
            read_iq(path)
        assert str(side) in str(err.value)
    side.write_text("{not json")
    with pytest.raises(ValueError) as err:
        read_iq(path)
    assert str(side) in str(err.value)


def test_read_rejects_ragged_or_empty_files(tmp_path):
    ragged = tmp_path / "ragged.iq"
    ragged.write_bytes(b"\x00" * 12)  # one and a half sample pairs
    with pytest.raises(ValueError):
        read_iq(ragged)
    empty = tmp_path / "empty.iq"
    empty.write_bytes(b"")
    with pytest.raises(ValueError):
        read_iq(empty)


def test_read_names_a_file_that_ends_before_its_size(tmp_path, monkeypatch):
    # a file that shrinks between the size check and the read
    path = tmp_path / "short.iq"
    write_iq(path, _random_frame(8, size=3))
    real_fstat = os.fstat

    def grown(fd):
        st = real_fstat(fd)
        return os.stat_result((*st[:6], st.st_size + 8, *st[7:]))

    monkeypatch.setattr(os, "fstat", grown)
    with pytest.raises(ValueError, match=r"short\.iq: file ended before its 32 bytes were read"):
        read_iq(path)


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


def test_write_refuses_samples_past_float32_and_leaves_no_file(tmp_path):
    path = tmp_path / "big.iq"
    # 3.5e38 and -1e300 cast to float32 infinities; 3.4028235e38 is its largest value
    for value in (3.5e38, -1e300j):
        with pytest.raises(ValueError, match="float32") as err:
            write_iq(path, IqFrame(np.array([1.0, value])))
        assert str(path) in str(err.value)
        assert not path.exists() and not sidecar_path(path).exists()
    write_iq(path, IqFrame(np.array([3.4028235e38, -3.4028235e38j])))
    assert np.isfinite(read_iq(path)[0].samples).all()


def test_read_names_the_file_whose_samples_are_not_finite(tmp_path):
    path = tmp_path / "inf.iq"
    _write_raw(path, [(np.inf, 0.0)])
    with pytest.raises(ValueError, match="finite") as err:
        read_iq(path)
    assert str(path) in str(err.value)
