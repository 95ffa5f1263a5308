"""IQ sample file I/O.

Format: headerless little-endian 32-bit floats, interleaved I then Q per
sample. Metadata travels in a JSON sidecar at ``<path>.json`` holding the
sample rate, optionally the carrier layout, and any extra fields the writer
supplies; like a --config document, it may repeat no field at any depth.
Reading a file and writing it back reproduces the bytes exactly, signed
zeros included; note the float32 quantization happens once, on the first
write. Both directions convert in blocks of _BLOCK_FLOATS values, so beside
the complex128 samples they hold one block, never a copy of the file.

The sample rate is metadata only, and IqFrame does not carry it: write_iq
checks and writes it, and read_iq checks it and returns it in the metadata
as a float, 1.0 when the sidecar has none.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

from .carriers import CarrierLayout, layout_to_dict
from .waveform import IqFrame

#: float32 values (half as many samples) converted per block: 1 MiB of file.
_BLOCK_FLOATS = 1 << 18


def sidecar_path(path: "str | Path") -> Path:
    return Path(str(path) + ".json")


def _unique_fields(pairs: "list[tuple[str, object]]") -> dict:
    """json's object_pairs_hook for sidecars and --config: no field twice at any depth."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeats the field {key!r}")
        doc[key] = value
    return doc


def read_json_object(path: "str | Path") -> dict:
    """The JSON object a sidecar or --config file holds, no field repeated
    at any depth; every ValueError names the path."""
    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=_unique_fields)
    except ValueError as exc:  # json.JSONDecodeError is one
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: must be a JSON object")
    return doc


def _sample_rate(rate, where: str) -> float:
    """rate as a float; it must be a positive int or float (not bool) that a
    float holds finitely (math.isfinite would overflow on a larger int)."""
    if type(rate) not in (int, float) or not 0 < rate <= sys.float_info.max:
        raise ValueError(f"{where}: sample_rate must be a finite positive number, got {rate!r}")
    return float(rate)


def write_iq(
    path: "str | Path",
    frame: IqFrame,
    layout: "CarrierLayout | None" = None,
    extra: "dict | None" = None,
    sample_rate: float = 1.0,
) -> Path:
    """Write samples and sidecar, metadata and the float32 range checked
    first; returns the sidecar path."""
    path = Path(path)
    meta: dict = {"sample_rate": _sample_rate(sample_rate, str(path))}
    if layout is not None:
        meta["layout"] = layout_to_dict(layout)
    if extra:
        overlap = set(extra) & set(meta)
        if overlap:
            raise ValueError(f"extra metadata collides with {sorted(overlap)}")
        meta.update(extra)
    text = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    samples = frame.samples
    # casting to float32 is monotone, so a sample casts to inf only if the
    # largest magnitude does; .real and .imag are views, not copies
    peak = max(max(part.max(), -part.min()) for part in (samples.real, samples.imag))
    with np.errstate(over="ignore"):
        if np.isinf(np.float32(peak)):
            raise ValueError(f"{path}: a sample is past the float32 range")
    step = _BLOCK_FLOATS // 2
    with path.open("wb") as fh:
        for lo in range(0, samples.size, step):
            # IqFrame stores complex128 C-contiguous: interleaved float64 I/Q pairs
            block = samples[lo : lo + step].view(np.float64)
            fh.write(block.astype("<f4"))
    side = sidecar_path(path)
    side.write_text(text)
    return side


def read_iq(path: "str | Path") -> "tuple[IqFrame, dict]":
    """Read samples plus sidecar metadata. The metadata always holds a
    checked "sample_rate" float (1.0 when the sidecar is absent or has none)."""
    path = Path(path)
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size % 8 != 0:
            raise ValueError(
                f"{path}: length {size} is not a whole number of float32 I/Q pairs"
            )
        if size == 0:
            raise ValueError(f"{path}: empty IQ file")
        # interleaved I/Q float64 pairs are complex128's memory layout: each
        # block is upcast in place, no arithmetic, so every value (and -0.0)
        # is kept
        samples = np.empty(size // 8, dtype=np.complex128)
        flat = samples.view(np.float64)
        block = np.empty(min(_BLOCK_FLOATS, flat.size), dtype="<f4")
        for lo in range(0, flat.size, block.size):
            part = block[: flat.size - lo]
            if fh.readinto(part) != part.nbytes:
                raise ValueError(f"{path}: file ended before its {size} bytes were read")
            flat[lo : lo + part.size] = part
    side = sidecar_path(path)
    meta = read_json_object(side) if side.exists() else {}
    meta["sample_rate"] = _sample_rate(meta.get("sample_rate", 1.0), str(side))
    try:
        return IqFrame(samples), meta
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
