"""Desk-scale simulator of digital quantum simulation of the open spin-boson model.

The pipeline: encode the truncated oscillator and the spins on qubits
(Gray or standard binary code), build Trotterized evolution circuits with
collision-model amplitude damping, run them on a density-matrix engine
under a calibration-derived, uniformly scalable noise model, and compare
against exact integration of the Lindblad master equation.
"""

__version__ = "0.1.0"

from .pauli import PauliString, PauliSum
from .model import ModelParams

__all__ = ["PauliString", "PauliSum", "ModelParams", "__version__"]
