"""Mach-Zehnder interferometer (MZI) device model (paper §II-A, §III-B).

An MZI consists of two tunable phase shifters (``phi`` at the input, ``theta``
between the splitters, both on the upper arm) and two nominally 50:50 beam
splitters.  Its ideal 2x2 transfer matrix is the paper's Eq. (1)::

    T(theta, phi) = [ e^{i phi}(e^{i theta}-1)/2      i (e^{i theta}+1)/2   ]
                    [ i e^{i phi}(e^{i theta}+1)/2   -(e^{i theta}-1)/2     ]

Under beam-splitter imperfections the matrix generalizes to the paper's
Eq. (5); under phase errors the first-order deviation is the paper's
Eqs. (3)-(4).  All three forms are implemented here, as closed-form
(vectorizable) functions plus an object-oriented :class:`MZI` built from the
component models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

import numpy as np

from ..arrays.kernels import mzi_block_components
from ..utils.validation import as_float_array
from . import constants
from .beam_splitter import BeamSplitter
from .phase_shifter import PhaseShifter

# --------------------------------------------------------------------------- #
# closed-form transfer matrices
# --------------------------------------------------------------------------- #


def mzi_transfer(theta, phi) -> np.ndarray:
    """Ideal MZI transfer matrix, Eq. (1) of the paper.

    ``theta`` and ``phi`` may be scalars or broadcastable arrays; the result
    has shape ``broadcast_shape + (2, 2)``.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    shape = np.broadcast_shapes(theta.shape, phi.shape)
    theta = np.broadcast_to(theta, shape)
    phi = np.broadcast_to(phi, shape)
    e_theta = np.exp(1j * theta)
    e_phi = np.exp(1j * phi)
    out = np.empty(shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = e_phi * (e_theta - 1.0) / 2.0
    out[..., 0, 1] = 1j * (e_theta + 1.0) / 2.0
    out[..., 1, 0] = 1j * e_phi * (e_theta + 1.0) / 2.0
    out[..., 1, 1] = -(e_theta - 1.0) / 2.0
    return out


def mzi_transfer_nonideal(theta, phi, r1, t1=None, r2=None, t2=None) -> np.ndarray:
    """Non-ideal MZI transfer matrix with imperfect splitters, Eq. (5).

    Parameters
    ----------
    theta, phi:
        Phase-shifter angles [rad].
    r1, t1:
        Reflectance/transmittance amplitude of the *first* (input-side)
        splitter.  ``t1`` defaults to ``sqrt(1 - r1^2)`` (lossless).
    r2, t2:
        Same for the *second* (output-side) splitter; ``r2`` defaults to
        ``r1``.

    All arguments broadcast; the result has shape ``broadcast + (2, 2)``.
    """
    components = mzi_transfer_components(theta, phi, r1, t1=t1, r2=r2, t2=t2)
    shape = np.broadcast_shapes(*(c.shape for c in components))
    out = np.empty(shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = components[0]
    out[..., 0, 1] = components[1]
    out[..., 1, 0] = components[2]
    out[..., 1, 1] = components[3]
    return out


def mzi_transfer_components(
    theta, phi, r1, t1=None, r2=None, t2=None, out=None
) -> Tuple[np.ndarray, ...]:
    """The four elements of the non-ideal transfer matrix as separate arrays.

    Same physics as :func:`mzi_transfer_nonideal` but returned as the tuple
    ``(T00, T01, T10, T11)`` with each element of the broadcast shape.  The
    mesh evaluators consume this layout directly: keeping the elements in
    their own contiguous arrays avoids assembling (and later re-gathering)
    the strided ``(..., 2, 2)`` block array on the Monte Carlo hot path.

    The arithmetic lives in :func:`repro.arrays.kernels.mzi_block_components`
    and keeps the exact historical NumPy call sequence.  ``out`` optionally
    names four destination arrays of the broadcast shape.
    """
    return mzi_block_components(theta, phi, r1, t1=t1, r2=r2, t2=t2, out=out)


def mzi_jacobian(theta, phi) -> Tuple[np.ndarray, np.ndarray]:
    """Partial derivatives ``dT/dtheta`` and ``dT/dphi`` of the ideal MZI (Eq. 3).

    Returns a pair of arrays of shape ``broadcast + (2, 2)``.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    shape = np.broadcast_shapes(theta.shape, phi.shape)
    theta = np.broadcast_to(theta, shape)
    phi = np.broadcast_to(phi, shape)
    e_theta = np.exp(1j * theta)
    e_phi = np.exp(1j * phi)
    e_both = np.exp(1j * (theta + phi))

    d_theta = np.empty(shape + (2, 2), dtype=np.complex128)
    d_theta[..., 0, 0] = 1j * e_both / 2.0
    d_theta[..., 0, 1] = -e_theta / 2.0
    d_theta[..., 1, 0] = -e_both / 2.0
    d_theta[..., 1, 1] = -1j * e_theta / 2.0

    d_phi = np.empty(shape + (2, 2), dtype=np.complex128)
    d_phi[..., 0, 0] = 1j * e_phi * (e_theta - 1.0) / 2.0
    d_phi[..., 0, 1] = 0.0
    d_phi[..., 1, 0] = -e_phi * (e_theta + 1.0) / 2.0
    d_phi[..., 1, 1] = 0.0
    return d_theta, d_phi


def mzi_first_order_deviation(theta, phi, delta_theta, delta_phi) -> np.ndarray:
    """First-order deviation ``dT = dT/dtheta * dtheta + dT/dphi * dphi`` (Eq. 3)."""
    d_theta, d_phi = mzi_jacobian(theta, phi)
    delta_theta = np.asarray(delta_theta, dtype=np.float64)
    delta_phi = np.asarray(delta_phi, dtype=np.float64)
    return d_theta * delta_theta[..., np.newaxis, np.newaxis] + d_phi * delta_phi[..., np.newaxis, np.newaxis]


def mzi_relative_deviation(theta, phi, k: float) -> np.ndarray:
    """Deviation under a common relative phase error ``K`` (Eq. 4).

    ``K = delta_theta/theta = delta_phi/phi`` — the simplifying assumption the
    paper uses only for the device-level study of Fig. 2.
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    return mzi_first_order_deviation(theta, phi, k * theta, k * phi)


def mzi_element_relative_deviation(theta, phi, k: float, eps: float = 1e-12) -> np.ndarray:
    """``|dT_ij| / |T_ij|`` for the four matrix elements (the quantity plotted in Fig. 2).

    Returns an array of shape ``broadcast + (2, 2)``; entries where the
    nominal element modulus is (numerically) zero are returned as ``nan`` so
    downstream plotting can mask them, mirroring the unbounded relative error
    at zeros of the nominal response.
    """
    nominal = mzi_transfer(theta, phi)
    deviation = mzi_relative_deviation(theta, phi, k)
    magnitude = np.abs(nominal)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(deviation) / magnitude
    rel = np.where(magnitude < eps, np.nan, rel)
    return rel


# --------------------------------------------------------------------------- #
# component-based device object
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class MZI:
    """A Mach-Zehnder interferometer assembled from component models.

    The transfer matrix is computed by composing the component matrices in
    propagation order ``B2 @ PhS(theta) @ B1 @ PhS(phi)`` (paper Eq. (1));
    with ideal splitters this equals :func:`mzi_transfer` exactly, and with
    symmetric non-ideal splitters it equals :func:`mzi_transfer_nonideal`.

    Parameters
    ----------
    theta_shifter, phi_shifter:
        The internal (``theta``) and input (``phi``) phase shifters.
    splitter_in, splitter_out:
        The two beam splitters (input side first).
    """

    theta_shifter: PhaseShifter = field(default_factory=PhaseShifter)
    phi_shifter: PhaseShifter = field(default_factory=PhaseShifter)
    splitter_in: BeamSplitter = field(default_factory=BeamSplitter.ideal)
    splitter_out: BeamSplitter = field(default_factory=BeamSplitter.ideal)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "MZI":
        """Ideal-splitter MZI tuned to ``(theta, phi)``."""
        return cls(theta_shifter=PhaseShifter(phase=float(theta)), phi_shifter=PhaseShifter(phase=float(phi)))

    @classmethod
    def cross_state(cls) -> "MZI":
        """MZI in the full cross state (all power to the other port): theta = 0."""
        return cls.from_angles(theta=0.0, phi=0.0)

    @classmethod
    def bar_state(cls) -> "MZI":
        """MZI in the full bar state (all power stays): theta = pi."""
        return cls.from_angles(theta=np.pi, phi=0.0)

    # ------------------------------------------------------------------ #
    # parameters
    # ------------------------------------------------------------------ #
    @property
    def theta(self) -> float:
        return float(self.theta_shifter.phase)

    @property
    def phi(self) -> float:
        return float(self.phi_shifter.phase)

    @property
    def angles(self) -> Tuple[float, float]:
        return (self.theta, self.phi)

    @property
    def is_ideal(self) -> bool:
        """True when both splitters are ideal 50:50 couplers."""
        return self.splitter_in.is_ideal and self.splitter_out.is_ideal

    # ------------------------------------------------------------------ #
    # physics
    # ------------------------------------------------------------------ #
    def transfer_matrix(self) -> np.ndarray:
        """2x2 complex transfer matrix of the device."""
        phi_stage = self.phi_shifter.transfer_matrix()
        theta_stage = self.theta_shifter.transfer_matrix()
        return (
            self.splitter_out.transfer_matrix()
            @ theta_stage
            @ self.splitter_in.transfer_matrix()
            @ phi_stage
        )

    def power_transmission(self) -> np.ndarray:
        """2x2 matrix of power transmission ``|T_ij|^2``."""
        return np.abs(self.transfer_matrix()) ** 2

    def insertion_error(self) -> float:
        """Deviation of the device from unitarity (non-zero only for asymmetric splitters)."""
        matrix = self.transfer_matrix()
        return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(2))))

    # ------------------------------------------------------------------ #
    # tuning and uncertainty injection
    # ------------------------------------------------------------------ #
    def with_angles(self, theta: float, phi: float) -> "MZI":
        """Return a copy re-tuned to new nominal phase angles."""
        return replace(
            self,
            theta_shifter=self.theta_shifter.with_phase(theta),
            phi_shifter=self.phi_shifter.with_phase(phi),
        )

    def with_phase_errors(self, delta_theta: float, delta_phi: float) -> "MZI":
        """Return a copy with additive phase errors on the two shifters."""
        return replace(
            self,
            theta_shifter=self.theta_shifter.with_phase_error(delta_theta),
            phi_shifter=self.phi_shifter.with_phase_error(delta_phi),
        )

    def with_splitter_errors(self, delta_r_in: float, delta_r_out: float) -> "MZI":
        """Return a copy whose splitter reflectances deviate from nominal."""
        return replace(
            self,
            splitter_in=self.splitter_in.with_variation(delta_r_in),
            splitter_out=self.splitter_out.with_variation(delta_r_out),
        )

    def with_variations(
        self,
        delta_theta: float = 0.0,
        delta_phi: float = 0.0,
        delta_r_in: float = 0.0,
        delta_r_out: float = 0.0,
    ) -> "MZI":
        """Return a copy with phase and splitter errors applied together."""
        return self.with_phase_errors(delta_theta, delta_phi).with_splitter_errors(delta_r_in, delta_r_out)
