"""Physical device models: phase shifters, beam splitters and MZIs."""

from . import constants
from .beam_splitter import BeamSplitter
from .mzi import (
    MZI,
    mzi_element_relative_deviation,
    mzi_first_order_deviation,
    mzi_jacobian,
    mzi_relative_deviation,
    mzi_transfer,
    mzi_transfer_nonideal,
)
from .phase_shifter import PhaseShifter, phase_from_temperature, temperature_for_phase

__all__ = [
    "constants",
    "PhaseShifter",
    "phase_from_temperature",
    "temperature_for_phase",
    "BeamSplitter",
    "MZI",
    "mzi_transfer",
    "mzi_transfer_nonideal",
    "mzi_jacobian",
    "mzi_first_order_deviation",
    "mzi_relative_deviation",
    "mzi_element_relative_deviation",
]
