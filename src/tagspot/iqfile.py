"""IQ sample file I/O.

Format: headerless little-endian 32-bit floats, interleaved I then Q per
sample. Metadata travels in a JSON sidecar at ``<path>.json`` holding the
sample rate, optionally the carrier layout, and any extra fields the writer
supplies. Reading a file and writing it back reproduces the bytes exactly,
signed zeros included; note the float32 quantization happens once, on the
first write.

The sample rate is metadata only, and IqFrame does not carry it: write_iq
checks and writes it, and read_iq checks it and returns it in the metadata
as a float, 1.0 when the sidecar has none.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .carriers import CarrierLayout, layout_to_dict
from .waveform import IqFrame


def sidecar_path(path: "str | Path") -> Path:
    return Path(str(path) + ".json")


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
    """Write samples and sidecar, metadata checked first; returns the sidecar path."""
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
    interleaved = np.empty(2 * samples.size, dtype="<f4")
    interleaved[0::2] = samples.real.astype(np.float32)
    interleaved[1::2] = samples.imag.astype(np.float32)
    path.write_bytes(interleaved.tobytes())
    side = sidecar_path(path)
    side.write_text(text)
    return side


def read_iq(path: "str | Path") -> "tuple[IqFrame, dict]":
    """Read samples plus sidecar metadata. The metadata always holds a
    checked "sample_rate" float (1.0 when the sidecar is absent or has none)."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) % 8 != 0:
        raise ValueError(
            f"{path}: length {len(raw)} is not a whole number of float32 I/Q pairs"
        )
    if len(raw) == 0:
        raise ValueError(f"{path}: empty IQ file")
    # interleaved I/Q float64 pairs are complex128's memory layout: one
    # upcast copy, no arithmetic, so every value (and -0.0) is kept
    samples = np.frombuffer(raw, dtype="<f4").astype(np.float64).view(np.complex128)
    meta: dict = {}
    side = sidecar_path(path)
    if side.exists():
        meta = json.loads(side.read_text())
        if not isinstance(meta, dict):
            raise ValueError(f"{side}: metadata must be a JSON object")
    meta["sample_rate"] = _sample_rate(meta.get("sample_rate", 1.0), str(side))
    return IqFrame(samples), meta
