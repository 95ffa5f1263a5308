"""Multitone control-plane signaling.

Synthesis of multitone tags, channel impairment simulation, noncoherent
energy-ratio detection, and detection-theoretic performance analysis.
"""

from tagspot.carriers import CarrierLayout
from tagspot.codebook import Codebook, builtin_codebook, load_codebook

__all__ = [
    "CarrierLayout",
    "Codebook",
    "builtin_codebook",
    "load_codebook",
]
