"""Joint photon-number distribution of a twin beam under loss and spurious counts.

The probe is a two-mode squeezed vacuum with squeezing parameter ``r``; each
arm passes through an independent pure-loss channel with transmission
amplitude ``eta_i`` (power transmission ``eta_i**2``) and each detector adds
Poissonian spurious counts with mean ``nu_i`` per shot.  The joint count
distribution is evaluated exactly on a finite grid with a certified bound on
the truncated series, optionally with its exact derivatives (scores).
"""

from __future__ import annotations

import dataclasses
import numbers

import numpy as np
from scipy import stats
from scipy.special import gammaln

PARAM_NAMES = ("eta1", "eta2", "r", "nu1", "nu2")
LOSS_NAMES = ("eta1", "eta2", "r")

# model probabilities below this count as zero: no information, no relative error
P_FLOOR = 1e-300
# combined thermal plus Poisson mass that default_cutoff leaves beyond each arm
CUTOFF_TAIL = 1e-12

# log n! lookup, grown on demand
_LOG_FACT = gammaln(np.arange(512, dtype=float) + 1.0)


def _log_factorial(n: np.ndarray) -> np.ndarray:
    global _LOG_FACT
    top = int(np.max(n, initial=0))
    if top >= _LOG_FACT.size:
        _LOG_FACT = gammaln(np.arange(2 * top, dtype=float) + 1.0)
    return _LOG_FACT[n]


class NumericError(RuntimeError):
    """A computation failed for numerical reasons (singular matrix, boundary point)."""


def check_param_names(names) -> tuple[str, ...]:
    """The names as a tuple, raising ValueError for any not in PARAM_NAMES."""
    for name in names:
        if name not in PARAM_NAMES:
            raise ValueError(f"unknown parameter {name!r}; choose from {PARAM_NAMES}")
    return tuple(names)


def _check_domain(wrt=(), **values) -> None:
    """Validate parameter values: eta in (0, 1], r and nu finite and >= 0, else ValueError.

    A name in ``wrt`` must also be off its boundary (eta = 1, r = 0, nu = 0),
    where its score is undefined, else NumericError.
    """
    for name, value in values.items():
        eta = name.startswith("eta")
        if not (0.0 < value <= 1.0 if eta else 0.0 <= value < np.inf):
            raise ValueError(f"{name} must lie in {'(0, 1]' if eta else '[0, inf)'}, got {value}")
        if name in wrt and value == float(eta):
            raise NumericError(
                f"parameter {name}={value} sits on the domain boundary; "
                "its score needs an interior point"
            )


@dataclasses.dataclass(frozen=True)
class ParamSet:
    """Physical parameters of the twin-beam model.

    Attributes:
        eta1: transmission amplitude of arm a, in (0, 1].
        eta2: transmission amplitude of arm b, in (0, 1].
        r: squeezing parameter, >= 0; mean photons per arm before loss is sinh(r)**2.
        nu1: mean spurious counts per shot on detector a, >= 0.
        nu2: mean spurious counts per shot on detector b, >= 0.
    """

    eta1: float
    eta2: float
    r: float
    nu1: float = 0.0
    nu2: float = 0.0

    def __post_init__(self) -> None:
        _check_domain(**{name: getattr(self, name) for name in PARAM_NAMES})

    def replace(self, **changes) -> "ParamSet":
        return dataclasses.replace(self, **changes)

    def values(self, names: tuple[str, ...] = PARAM_NAMES) -> np.ndarray:
        return np.array([getattr(self, name) for name in names], dtype=float)

    def to_dict(self) -> dict:
        """Every field as a float, keyed by name."""
        return {f.name: float(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ParamSet":
        """Inverse of ``to_dict``: eta1, eta2 and r are required, the rest default to 0.

        Unknown or missing keys and values that are not real numbers (bool
        included) raise ValueError naming them.
        """
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        missing = set(LOSS_NAMES) - set(data)
        if missing:
            raise ValueError(f"missing keys {sorted(missing)}")
        for key, value in data.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{key} must be a number, got {value!r}")
        return cls(**{key: float(value) for key, value in data.items()})


@dataclasses.dataclass(frozen=True)
class JointPND:
    """Joint count distribution on a finite grid plus the aggregated tail mass.

    ``probs[m, n]`` is the probability of counting m photons on detector a and
    n on detector b; ``tail_mass`` is the probability of any outcome beyond
    the grid; ``terms`` is the number of pair-number terms summed to reach
    the certified truncation bound (0 when no sum was needed).  ``scores``
    maps each differentiated parameter name to the grid d probs / d theta.
    """

    probs: np.ndarray
    tail_mass: float
    terms: int = 0
    scores: dict = dataclasses.field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.probs.ndim != 2:
            raise ValueError("probability grid must be two dimensional")
        if float(np.min(self.probs)) < -1e-12 or float(np.max(self.probs)) > 1.0 + 1e-12:
            raise ValueError("probabilities out of [0, 1]")
        if not -1e-12 <= self.tail_mass <= 1.0 + 1e-12:
            raise ValueError(f"tail mass out of range: {self.tail_mass}")

    @property
    def tail_scores(self) -> dict:
        """Derivatives of the tail mass: minus the sum of each score grid."""
        return {name: -float(grid.sum()) for name, grid in self.scores.items()}

    @property
    def cutoff_a(self) -> int:
        return self.probs.shape[0] - 1

    @property
    def cutoff_b(self) -> int:
        return self.probs.shape[1] - 1


def _normalize_cutoff(cutoff) -> tuple[int, int]:
    if np.isscalar(cutoff):
        pair = (int(cutoff), int(cutoff))
    else:
        ca, cb = cutoff
        pair = (int(ca), int(cb))
    if pair[0] < 0 or pair[1] < 0:
        raise ValueError(f"cutoffs must be >= 0, got {pair}")
    return pair


def _log_loss_matrix(n_max: int, cutoff: int, eta: float) -> np.ndarray:
    """log B[N, k] = log C(N, k) q^k (1 - q)^(N - k) for q = eta^2, -inf where k > N.

    (N - k) log(1 - q) is pinned to 0 at N = k, so B is the identity at eta = 1.
    """
    ns = np.arange(n_max + 1)[:, None]
    ks = np.arange(cutoff + 1)[None, :]
    nk = np.maximum(ns - ks, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        survive = np.where(nk == 0, 0.0, nk * np.log1p(-(eta**2)))
    log_b = _log_factorial(ns) - _log_factorial(ks) - _log_factorial(nk) + 2.0 * ks * np.log(eta)
    return np.where(ns >= ks, log_b + survive, -np.inf)


def _loss_score(n_max: int, cutoff: int, eta: float) -> np.ndarray:
    """d log B[N, k] / d eta = 2k / eta - 2 eta (N - k) / (1 - eta^2), for eta < 1."""
    ns = np.arange(n_max + 1)[:, None]
    ks = np.arange(cutoff + 1)[None, :]
    return 2.0 * ks / eta - 2.0 * eta * (ns - ks) / (1.0 - eta**2)


def lossy_tmsv_pnd(
    eta1: float, eta2: float, r: float, cutoff, tol: float = 1e-14, wrt=()
) -> JointPND:
    """Exact joint count distribution of a twin beam after per-arm loss.

    Evaluates the pair-number mixture as one matrix product,

        P = B1^T diag(w) B2,   w_N = tanh^(2N) r / cosh^2 r,
        B_i[N, k] = C(N, k) q_i^k (1 - q_i)^(N - k),   q_i = eta_i^2,

    summed over pair numbers N <= N_max.  Successive terms of bin (k, l) have
    ratio rho (N+1)^2 / ((N+1-k)(N+1-l)), which falls toward rho = (1 - q1)
    (1 - q2) tanh^2 r < 1, so the remainder of each bin is bounded by the
    geometric series t_N x / (1 - x) on its last term t_N, x being that
    ratio.  N_max starts from an estimate in rho and grows until that bound
    is at most ``tol`` times the bin's value in every bin.

    Scores reuse the factors, with d log B / d eta = 2k / eta - 2 eta (N - k)
    / (1 - eta^2) and d log w / dr = 2N / (sinh r cosh r) - 2 tanh r.  A
    score term is t_N (a + bN) up to sign, a, b >= 0, so its remainder is at
    most t_N [(a + bN) x / (1 - x) + b x / (1 - x)^2]; as b / (a + bN) <= 1/N,
    the value bound times 1 + 1 / (N (1 - x)) certifies every score to
    ``tol`` P[k, l] (a + bN).

    Args:
        eta1: transmission amplitude of arm a, in (0, 1].
        eta2: transmission amplitude of arm b, in (0, 1].
        r: squeezing parameter, >= 0.
        cutoff: max photon index per arm, an int or an (int, int) pair.
        tol: relative truncation tolerance per bin.
        wrt: names among eta1, eta2, r to differentiate; each must be
            interior (eta < 1, r > 0), else NumericError.

    Returns:
        JointPND on a (cutoff_a + 1) x (cutoff_b + 1) grid; ``terms`` is the
        number of pair-number terms the certificate accepted and ``scores``
        holds one grid per name in ``wrt``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if not set(wrt) <= set(LOSS_NAMES):
        raise ValueError(f"the loss model differentiates only {LOSS_NAMES}, got {wrt}")
    _check_domain(wrt, eta1=eta1, eta2=eta2, r=r)
    ca, cb = _normalize_cutoff(cutoff)

    if r == 0.0:
        probs = np.zeros((ca + 1, cb + 1))
        probs[0, 0] = 1.0
        return JointPND(probs=probs, tail_mass=0.0, scores={name: 0.0 * probs for name in wrt})

    log_t2, log_norm = 2.0 * np.log(np.tanh(r)), 2.0 * np.log(np.cosh(r))
    rho = (1.0 - eta1**2) * (1.0 - eta2**2) * np.tanh(r) ** 2
    if rho >= 1.0:
        raise RuntimeError("photon-number series failed to converge")
    top, limit = max(ca, cb), 100_000
    # terms of the far bins peak near N ~ top / (1 - sqrt(rho)), then fall like
    # rho^N; 1.5 times that estimate certified without regrowth on every grid tried
    with np.errstate(divide="ignore"):
        guess = top / (1.0 - np.sqrt(rho)) + np.log(tol) / np.log(rho)
    n_max = int(min(1.5 * max(guess, 0.0) + 2, limit))
    while True:
        ns = np.arange(n_max + 1)[:, None]
        b1 = np.exp(_log_loss_matrix(n_max, ca, eta1))
        wb2 = np.exp(ns * log_t2 - log_norm + _log_loss_matrix(n_max, cb, eta2))
        probs = b1.T @ wb2

        last = n_max + 1
        ratio = rho * last**2 / np.outer(last - np.arange(ca + 1), last - np.arange(cb + 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.outer(b1[-1], wb2[-1]) * ratio / (1.0 - ratio)
            if wrt:
                bound = bound * (1.0 + 1.0 / (n_max * (1.0 - ratio)))
        if np.all((ratio < 1.0) & (bound <= tol * probs)):
            break
        if n_max >= limit:
            raise RuntimeError("photon-number series failed to converge")
        n_max = min(int(1.5 * n_max), limit)

    scores = {}
    for name in wrt:
        if name == "eta1":
            scores[name] = (b1 * _loss_score(n_max, ca, eta1)).T @ wb2
        elif name == "eta2":
            scores[name] = b1.T @ (wb2 * _loss_score(n_max, cb, eta2))
        else:
            d_log_w = 2.0 * ns / (np.sinh(r) * np.cosh(r)) - 2.0 * np.tanh(r)
            scores[name] = b1.T @ (wb2 * d_log_w)
    tail = max(1.0 - float(probs.sum()), 0.0)
    return JointPND(probs=probs, tail_mass=tail, terms=n_max + 1, scores=scores)


def _poisson_mixing_matrix(cutoff: int, nu: float) -> np.ndarray:
    """Lower-triangular convolution matrix A[m, k] = Poisson(nu).pmf(m - k)."""
    ks = np.arange(cutoff + 1)
    if nu == 0.0:
        return np.eye(cutoff + 1)
    pmf = np.exp(ks * np.log(nu) - nu - _log_factorial(ks))
    return np.tril(pmf[np.abs(ks[:, None] - ks[None, :])])


def apply_dark_counts(pnd: JointPND, nu1: float, nu2: float, wrt=()) -> JointPND:
    """Convolve a count distribution with independent Poissonian spurious counts.

    The output grid matches the input grid; Poisson mass pushed past the
    cutoff moves into the tail.  The scores of ``pnd`` are mixed the same
    way, and each of nu1, nu2 named in ``wrt`` (then > 0, else NumericError)
    gains a score.
    """
    _check_domain(wrt, nu1=nu1, nu2=nu2)
    if nu1 == 0.0 and nu2 == 0.0:
        return pnd
    a1 = _poisson_mixing_matrix(pnd.cutoff_a, nu1)
    a2 = _poisson_mixing_matrix(pnd.cutoff_b, nu2)
    probs = a1 @ pnd.probs @ a2.T
    scores = {name: a1 @ grid @ a2.T for name, grid in pnd.scores.items()}
    # dA/d nu = A shifted down one count, minus A
    if "nu1" in wrt:
        scores["nu1"] = -np.diff(a1, axis=0, prepend=0.0) @ pnd.probs @ a2.T
    if "nu2" in wrt:
        scores["nu2"] = a1 @ pnd.probs @ -np.diff(a2, axis=0, prepend=0.0).T
    tail = max(1.0 - float(probs.sum()), 0.0)
    return JointPND(probs=probs, tail_mass=tail, terms=pnd.terms, scores=scores)


def default_cutoff(theta: ParamSet) -> tuple[int, int]:
    """Per-arm cutoffs keeping the combined thermal plus Poisson tail below ``CUTOFF_TAIL``.

    Each arm's pre-dark-count marginal is thermal with mean eta^2 sinh(r)^2,
    so its tail decays geometrically; the Poisson part is bounded through its
    survival function.  The two are combined with a union bound per arm.
    """
    cutoffs = []
    for eta, nu in ((theta.eta1, theta.nu1), (theta.eta2, theta.nu2)):
        nbar = eta**2 * np.sinh(theta.r) ** 2
        c_th = 1
        if nbar > 0.0:
            c_th = int(np.ceil(np.log(CUTOFF_TAIL / 4.0) / np.log(nbar / (1.0 + nbar)))) + 1
        c_poi = 0
        if nu > 0.0:
            c_poi = int(stats.poisson.isf(CUTOFF_TAIL / 4.0, nu))
        cutoffs.append(max(c_th + c_poi + 2, 2))
    return (cutoffs[0], cutoffs[1])


def model_pnd(theta: ParamSet, cutoff=None, wrt=()) -> JointPND:
    """Full count model: lossy twin beam followed by spurious-count convolution.

    The loss series is certified to ``lossy_tmsv_pnd``'s default tolerance.

    Args:
        theta: model parameters.
        cutoff: grid cutoff per arm; defaults to ``default_cutoff(theta)``.
        wrt: parameter names from PARAM_NAMES whose scores d probs / d theta
            to return in ``JointPND.scores``; each must be interior.
    """
    wrt = check_param_names(wrt)
    if cutoff is None:
        cutoff = default_cutoff(theta)
    loss = tuple(name for name in wrt if name in LOSS_NAMES)
    pnd = lossy_tmsv_pnd(theta.eta1, theta.eta2, theta.r, cutoff, wrt=loss)
    return apply_dark_counts(pnd, theta.nu1, theta.nu2, wrt=wrt)

