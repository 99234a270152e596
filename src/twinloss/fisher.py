"""Classical, observed, and quantum Fisher information for twin-beam counting.

Classical and observed information matrices are built from the exact scores
of the count model, from one evaluation each; quantum Fisher matrices cover
the twin beam (exactly, from the closed-form three-parameter bound, and in
the low-loss approximation), coherent probes and Fock probes.  Sensitivity
is the reciprocal of the total (eta1, eta2) variance, and crossover curves
locate where the twin beam and an equal-energy coherent probe break even.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from scipy.optimize import brentq

from .pnd import P_FLOOR, PARAM_NAMES, NumericError, ParamSet, _check_domain, model_pnd

ETA_LABELS = ("eta1", "eta2")
# The tail mass is 1 - sum p, which cancels to roundoff near 1e-12 and is
# clamped to 0 there; below this its 1/p weight would amplify roundoff (or
# divide by zero) while its true contribution is negligible.
TAIL_FLOOR = 1e-9
# smallest and largest amplitude a crossover ray probes
ETA_FLOOR = 0.02
ETA_CEILING = 1.0 - 1e-6
# eigenvalues below this fraction of the largest make a matrix singular
RCOND = 1e-12


class LowLossValidityWarning(UserWarning):
    """The low-loss approximation was evaluated far from its validity regime."""


@dataclasses.dataclass(frozen=True)
class FisherMatrix:
    """Symmetric information matrix with ordered parameter labels."""

    labels: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.labels)
        if self.entries.shape != (n, n):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match {n} labels"
            )
        if not np.isfinite(self.entries).all():
            raise ValueError("information matrix has non-finite entries")
        scale = max(1.0, float(np.abs(self.entries).max()))
        if float(np.abs(self.entries - self.entries.T).max()) > 1e-12 * scale:
            raise ValueError("information matrix is not symmetric")
        if float(np.linalg.eigvalsh(self.entries).min()) < -1e-10 * scale:
            raise ValueError("information matrix is not positive semidefinite")

    def smallest_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries).min())

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no parameter {label!r} in {self.labels}") from None


def _safe_inverse(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric matrix, raising with the null direction if singular."""
    eigvals, eigvecs = np.linalg.eigh(matrix)
    largest = float(np.abs(eigvals).max())
    if largest == 0.0 or float(np.abs(eigvals).min()) <= RCOND * largest:
        direction = eigvecs[:, int(np.abs(eigvals).argmin())]
        raise NumericError(
            f"matrix is singular along direction {np.round(direction, 6).tolist()}"
        )
    return eigvecs @ np.diag(1.0 / eigvals) @ eigvecs.T


def _gram(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Symmetric sum over outcomes of weights * v_i * v_j, with v_i row i of ``vectors``."""
    gram = (vectors * weights) @ vectors.T
    return 0.5 * (gram + gram.T)


def classical_fim(
    theta: ParamSet,
    params: tuple[str, ...] = PARAM_NAMES,
    cutoff=None,
) -> FisherMatrix:
    """Fisher information of the count distribution, per shot.

    H_ij = sum over outcomes of (d_i p)(d_j p)/p, with the exact scores of
    one ``model_pnd`` evaluation.  Outcomes are the grid bins with p >=
    P_FLOOR plus, when its mass is at least ``TAIL_FLOOR``, the aggregated
    beyond-cutoff event, so the information always corresponds to a genuine
    measurement.

    Args:
        theta: evaluation point, interior in every differentiated parameter
            (eta < 1, r > 0, nu > 0), else NumericError.
        params: parameter names to differentiate, default all five.
        cutoff: grid cutoff per arm; defaults to ``default_cutoff(theta)``.
    """
    params = tuple(params)
    pnd = model_pnd(theta, cutoff, wrt=params)
    mask = pnd.probs >= P_FLOOR
    scores = np.array([pnd.scores[name][mask] for name in params])
    h = _gram(scores, 1.0 / pnd.probs[mask])
    if pnd.tail_mass >= TAIL_FLOOR:
        tail = np.array([pnd.tail_scores[name] for name in params])
        h += np.outer(tail, tail) / pnd.tail_mass
    return FisherMatrix(labels=params, entries=h)


def observed_fim(
    hist,
    theta_hat: ParamSet,
    params: tuple[str, ...] = PARAM_NAMES,
) -> FisherMatrix:
    """Data-weighted information F_jk = sum mu_mn (d_j ln p)(d_k ln p) at theta_hat.

    The scores come exactly from one ``model_pnd`` evaluation.  ``hist`` may
    be a Histogram or a plain count grid.  Its grid shape sets the model
    cutoff.  Occupied bins the model cannot explain (p below ``P_FLOOR``)
    raise, naming the bin.
    """
    counts = np.asarray(getattr(hist, "counts", hist), dtype=float)
    if counts.ndim != 2 or counts.sum() <= 0:
        raise ValueError("histogram must be a nonempty two-dimensional count grid")
    params = tuple(params)
    pnd = model_pnd(theta_hat, (counts.shape[0] - 1, counts.shape[1] - 1), wrt=params)
    occupied = counts > 0
    starved = occupied & (pnd.probs < P_FLOOR)
    if starved.any():
        bad = tuple(int(v) for v in np.argwhere(starved)[0])
        raise NumericError(
            f"bin {bad} holds counts but the model assigns it no probability"
        )
    p_occ = pnd.probs[occupied]
    log_scores = np.array([pnd.scores[name][occupied] / p_occ for name in params])
    return FisherMatrix(labels=params, entries=_gram(log_scores, counts[occupied]))


def reparametrize_fim(
    fim: FisherMatrix,
    jacobian: np.ndarray,
    labels: tuple[str, ...] | None = None,
) -> FisherMatrix:
    """Transform an information matrix to new coordinates: J^T F J.

    ``jacobian[i, j]`` is the derivative of old parameter i with respect to
    new parameter j; it must be square and invertible.
    """
    jac = np.asarray(jacobian, dtype=float)
    n = len(fim.labels)
    if jac.shape != (n, n):
        raise ValueError(f"jacobian must be {n}x{n}, got {jac.shape}")
    if not np.isfinite(jac).all() or np.linalg.matrix_rank(jac) < n:
        raise ValueError("jacobian is singular")
    entries = jac.T @ fim.entries @ jac
    entries = 0.5 * (entries + entries.T)
    return FisherMatrix(labels=tuple(labels) if labels else fim.labels, entries=entries)


def qfim_coherent(alpha_sq: float, beta_sq: float) -> FisherMatrix:
    """Quantum Fisher matrix of a two-arm coherent probe: diag(4|alpha|^2, 4|beta|^2)."""
    if not (alpha_sq >= 0.0 and beta_sq >= 0.0):
        raise ValueError("mean photon numbers must be >= 0")
    return FisherMatrix(
        labels=ETA_LABELS, entries=np.diag([4.0 * alpha_sq, 4.0 * beta_sq])
    )


def qfim_fock(m: float, n: float, eta1: float, eta2: float) -> FisherMatrix:
    """Quantum Fisher matrix of a two-arm Fock probe: diag(4m/(1-eta1^2), 4n/(1-eta2^2))."""
    if not (m >= 0.0 and n >= 0.0):
        raise ValueError("photon numbers must be >= 0")
    if not (0.0 <= eta1 < 1.0) or not (0.0 <= eta2 < 1.0):
        raise ValueError(
            "transmission amplitudes must lie in [0, 1); information diverges at eta = 1"
        )
    return FisherMatrix(
        labels=ETA_LABELS,
        entries=np.diag([4.0 * m / (1.0 - eta1**2), 4.0 * n / (1.0 - eta2**2)]),
    )


def qfim_lowloss_tmsv(eta1: float, eta2: float, r: float) -> np.ndarray:
    """Low-loss approximation to the twin-beam quantum Fisher matrix over (eta1, eta2).

    E [[1/(1 - eta1) - (3/2 + 5E), -4 - 3E], [-4 - 3E, 1/(1 - eta2) - (3/2 + 5E)]]
    with E = 2 sinh(r)^2, valid to first order in (1 - eta_i).  It is returned
    as a plain 2x2 array, not a FisherMatrix: far from eta_i ~ 1 the expansion
    can be indefinite, so it is not always an information matrix, and callers
    check its eigenvalues before treating it as one.  Evaluating at eta_i < 0.9
    emits a LowLossValidityWarning.
    """
    _check_domain(eta1=eta1, eta2=eta2, r=r)
    if eta1 == 1.0 or eta2 == 1.0 or r == 0.0:
        raise ValueError(
            f"the expansion needs eta < 1 and r > 0, got eta1={eta1}, eta2={eta2}, r={r}"
        )
    if min(eta1, eta2) < 0.9:
        warnings.warn(
            "low-loss expansion evaluated at eta < 0.9; first-order accuracy is lost",
            LowLossValidityWarning,
            stacklevel=2,
        )
    energy = 2.0 * np.sinh(r) ** 2
    diag_shift = 1.5 + 5.0 * energy
    off = -4.0 - 3.0 * energy
    return energy * np.array(
        [
            [1.0 / (1.0 - eta1) - diag_shift, off],
            [off, 1.0 / (1.0 - eta2) - diag_shift],
        ]
    )


def qfim_inverse_analytic(eta1: float, eta2: float, r: float) -> np.ndarray:
    """Closed-form inverse of the three-parameter twin-beam quantum Fisher matrix.

    A 3x3 array over (eta1, eta2, r), the per-shot quantum Cramer-Rao
    covariance bound.  Its diagonal gives the variance bounds with the
    other two parameters treated as jointly estimated:

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
    return m


def qfim_tmsv(eta1: float, eta2: float, r: float) -> FisherMatrix:
    """Exact three-parameter twin-beam quantum Fisher matrix over (eta1, eta2, r).

    The inverse of the closed-form bound ``qfim_inverse_analytic``; an ill
    conditioned bound (condition number above 1e12) raises NumericError.
    """
    bound = qfim_inverse_analytic(eta1, eta2, r)
    cond = float(np.linalg.cond(bound))
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericError(f"variance bound is ill conditioned (condition number {cond:.3g})")
    qfim = np.linalg.inv(bound)
    return FisherMatrix(labels=("eta1", "eta2", "r"), entries=0.5 * (qfim + qfim.T))


def total_variance(fim: FisherMatrix) -> float:
    """Trace of the (eta1, eta2) block of the inverse information matrix.

    Parameters beyond eta1 and eta2 act as jointly estimated nuisance
    parameters through the block of the full inverse.
    """
    i = fim.index("eta1")
    j = fim.index("eta2")
    inverse = _safe_inverse(fim.entries)
    return float(inverse[i, i] + inverse[j, j])


def sensitivity(fim: FisherMatrix) -> float:
    """Reciprocal of the total (eta1, eta2) variance."""
    return 1.0 / total_variance(fim)


@dataclasses.dataclass(frozen=True)
class CrossoverCurve:
    """Locus of (eta1, eta2) where twin-beam and coherent sensitivities match."""

    r: float
    source: str
    points: np.ndarray

    def diagonal_point(self) -> float:
        """The eta1 = eta2 crossing, if the diagonal ray produced one."""
        if self.points.size == 0:
            raise ValueError("curve has no points")
        sym = np.abs(self.points[:, 0] - self.points[:, 1])
        best = int(sym.argmin())
        if sym[best] > 1e-6:
            raise ValueError("curve has no diagonal point")
        return float(self.points[best].mean())


def _pnrd_sensitivity(eta1: float, eta2: float, r: float) -> float:
    fim = classical_fim(ParamSet(eta1=eta1, eta2=eta2, r=r), params=ETA_LABELS)
    try:
        return sensitivity(fim)
    except NumericError:
        return -np.inf


def _sensitivity_for_source(source: str, eta1: float, eta2: float, r: float) -> float:
    if source == "pnrd-fim":
        return _pnrd_sensitivity(eta1, eta2, r)
    if source == "three-param-qfim":
        bounds = qfim_inverse_analytic(eta1, eta2, r)
        return 1.0 / float(bounds[0, 0] + bounds[1, 1])
    if source == "lowloss-qfim":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowLossValidityWarning)
            entries = qfim_lowloss_tmsv(eta1, eta2, r)
        if np.linalg.eigvalsh(entries).min() <= 0.0:
            # outside its validity regime the expansion stops being an
            # information matrix; treat as no quantum advantage
            return -np.inf
        return sensitivity(FisherMatrix(labels=ETA_LABELS, entries=entries))
    raise ValueError(
        f"unknown information source {source!r}; choose pnrd-fim, "
        "three-param-qfim, or lowloss-qfim"
    )


def crossover_curve(
    r: float,
    source: str = "pnrd-fim",
    n_rays: int = 17,
) -> CrossoverCurve:
    """Locate the equal-sensitivity frontier against an equal-energy coherent probe.

    The comparator puts E = 2 sinh(r)^2 photons split evenly across the arms,
    giving sensitivity E.  Along each ray from the origin through the (eta1,
    eta2) square, amplitudes ETA_FLOOR to ETA_CEILING, Brent's method finds
    the root of the sensitivity difference; rays with no sign change produce
    no point.  Where the information is singular or indefinite the
    difference is -inf; Brent's method keeps the bracket by sign and still
    converges.

    Args:
        r: squeezing parameter, > 0.
        source: twin-beam information source, one of pnrd-fim (exact counting
            statistics over eta1, eta2 at known r), three-param-qfim (quantum
            bound with r as nuisance), lowloss-qfim (first-order expansion).
        n_rays: number of rays; 1 keeps only the diagonal.
    """
    if r <= 0.0:
        raise ValueError(f"squeezing parameter must be > 0, got r={r}")
    if n_rays < 1:
        raise ValueError("n_rays must be >= 1")
    energy = 2.0 * np.sinh(r) ** 2

    if n_rays == 1:
        angles = np.array([np.pi / 4.0])
    else:
        spread = np.arctan2(ETA_FLOOR, ETA_CEILING)
        angles = np.linspace(spread, np.pi / 2.0 - spread, n_rays)

    points = []
    for angle in angles:
        direction = np.array([np.cos(angle), np.sin(angle)])
        s_max = ETA_CEILING / direction.max()
        s_min = ETA_FLOOR / direction.min()
        if s_min >= s_max:
            continue

        def gap(s: float) -> float:
            e1, e2 = s * direction
            return _sensitivity_for_source(source, e1, e2, r) - energy

        if gap(s_min) < 0.0 < gap(s_max):
            points.append(brentq(gap, s_min, s_max) * direction)

    points_arr = np.array(points) if points else np.empty((0, 2))
    return CrossoverCurve(r=r, source=source, points=points_arr)
