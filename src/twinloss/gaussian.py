"""Covariance-matrix description of the twin-beam probe and its quantum limits.

Conventions: hbar = 1, vacuum quadrature variance 1/2, quadratures ordered
(x1, p1, x2, p2).  Loss channels act by mixing each arm with a vacuum ancilla
on a beam splitter and discarding the ancilla.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg import block_diag

from .pnd import _check_domain


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, [[0, 1], [-1, 0]] per mode."""
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return block_diag(*([omega] * n_modes))


def _phase_matrix(phi: float) -> np.ndarray:
    return np.array(
        [[np.cos(phi), np.sin(phi)], [np.sin(phi), -np.cos(phi)]]
    )


@dataclasses.dataclass(frozen=True)
class CovarianceMatrix:
    """Quadrature covariance matrix of a zero-mean Gaussian state.

    Entries are validated for symmetry and for the uncertainty bound
    sigma + i Omega / 2 >= 0.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        sigma = self.entries
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
            raise ValueError(f"covariance must be square with even dimension, got {sigma.shape}")
        scale = max(1.0, float(np.abs(sigma).max()))
        if float(np.abs(sigma - sigma.T).max()) > 1e-14 * scale:
            raise ValueError("covariance matrix is not symmetric")
        omega = symplectic_form(sigma.shape[0] // 2)
        lowest = float(np.linalg.eigvalsh(sigma + 0.5j * omega).min())
        if lowest < -1e-10 * scale:
            raise ValueError(f"uncertainty bound violated, lowest eigenvalue {lowest}")

    @property
    def n_modes(self) -> int:
        return self.entries.shape[0] // 2


def tmsv_covariance(r: float, phi: float = 0.0) -> CovarianceMatrix:
    """Covariance matrix of a two-mode squeezed vacuum.

    Diagonal blocks are cosh(2r)/2 times the identity; off-diagonal blocks are
    -sinh(2r)/2 times the phase matrix [[cos phi, sin phi], [sin phi, -cos phi]].
    """
    if not 0.0 <= r < np.inf:
        raise ValueError(f"squeezing parameter must be finite and >= 0, got r={r}")
    if not np.isfinite(phi):
        raise ValueError(f"squeezing phase must be finite, got phi={phi}")
    diag = 0.5 * np.cosh(2.0 * r) * np.eye(2)
    off = -0.5 * np.sinh(2.0 * r) * _phase_matrix(phi)
    return CovarianceMatrix(entries=np.block([[diag, off], [off.T, diag]]))


def beamsplitter_symplectic(eta: float) -> np.ndarray:
    """Symplectic beam splitter mixing a signal mode with an ancilla.

    Returns the 4x4 orthogonal matrix
    [[eta I, sqrt(1 - eta^2) I], [-sqrt(1 - eta^2) I, eta I]]
    acting on (x_s, p_s, x_a, p_a).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission amplitude must lie in [0, 1], got eta={eta}")
    s = np.sqrt(1.0 - eta**2)
    eye = np.eye(2)
    return np.block([[eta * eye, s * eye], [-s * eye, eta * eye]])


def apply_loss(cov: CovarianceMatrix, eta1: float, eta2: float) -> CovarianceMatrix:
    """Send each arm through a pure-loss channel of amplitude eta_i.

    Embeds the state with two vacuum ancillas in the ordering (signal1,
    ancilla1, signal2, ancilla2), conjugates by the per-arm beam splitters,
    and discards the ancillas.
    """
    if cov.n_modes != 2:
        raise ValueError("apply_loss expects a two-mode covariance")
    signal = (0, 1, 4, 5)
    sigma8 = 0.5 * np.eye(8)
    sigma8[np.ix_(signal, signal)] = cov.entries
    mix = block_diag(beamsplitter_symplectic(eta1), beamsplitter_symplectic(eta2))
    sigma8 = mix @ sigma8 @ mix.T
    return CovarianceMatrix(entries=sigma8[np.ix_(signal, signal)])


@dataclasses.dataclass(frozen=True)
class QfimInverse:
    """Per-shot quantum Cramer-Rao covariance bound in the (eta1, eta2, r) basis."""

    entries: np.ndarray
    labels = ("eta1", "eta2", "r")

    def __post_init__(self) -> None:
        if self.entries.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got {self.entries.shape}")
        scale = max(1.0, float(np.abs(self.entries).max()))
        if float(np.abs(self.entries - self.entries.T).max()) > 1e-12 * scale:
            raise ValueError("bound matrix is not symmetric")

    def variance_bounds(self) -> np.ndarray:
        return np.diag(self.entries).copy()


def qfim_inverse_analytic(eta1: float, eta2: float, r: float) -> QfimInverse:
    """Closed-form inverse of the three-parameter quantum Fisher matrix.

    The diagonal gives the per-shot variance bounds with the other two
    parameters treated as jointly estimated:

        Var eta1 >= (1 - eta1^2)(2/E + 1 - eta2^2) / (4 eta2^2),  E = 2 sinh^2 r,

    and symmetrically for eta2; the r bound is 1/2 + (1 - eta1^2 - eta2^2) /
    (4 eta1^2 eta2^2).
    """
    _check_domain(eta1=eta1, eta2=eta2, r=r)
    if eta1 == 1.0 or eta2 == 1.0 or r == 0.0:
        raise ValueError(
            f"the bound needs eta < 1 and r > 0, got eta1={eta1}, eta2={eta2}, r={r}"
        )
    csch2 = 1.0 / np.sinh(r) ** 2
    coth = 1.0 / np.tanh(r)
    m = np.empty((3, 3))
    m[0, 0] = (eta1**2 - 1.0) * (eta2**2 - csch2 - 1.0) / (4.0 * eta2**2)
    m[1, 1] = (eta2**2 - 1.0) * (eta1**2 - csch2 - 1.0) / (4.0 * eta1**2)
    m[2, 2] = 0.25 * ((1.0 / eta2**2 - 1.0) / eta1**2 - 1.0 / eta2**2 + 2.0)
    m[0, 1] = m[1, 0] = (eta1**2 - 1.0) * (eta2**2 - 1.0) * coth**2 / (4.0 * eta1 * eta2)
    m[0, 2] = m[2, 0] = -(eta1**2 - 1.0) * (eta2**2 - 1.0) * coth / (4.0 * eta1 * eta2**2)
    m[1, 2] = m[2, 1] = -(eta1**2 - 1.0) * (eta2**2 - 1.0) * coth / (4.0 * eta1**2 * eta2)
    return QfimInverse(entries=m)
