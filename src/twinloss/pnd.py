"""Joint photon-number distribution of a twin beam under loss and spurious counts.

The probe is a two-mode squeezed vacuum with squeezing parameter ``r``; each
arm passes through an independent pure-loss channel with transmission
amplitude ``eta_i`` (power transmission ``eta_i**2``) and each detector adds
Poissonian spurious counts with mean ``nu_i`` per shot.  The joint count
distribution is evaluated on a finite grid as an exact finite sum, with error
at roundoff, optionally with its exact derivatives (scores).

Fits, Fisher matrices and crossover rays evaluate the model many times on the
same grid, so the arrays that depend only on the grid (index arrays, log
binomials, masks and Poisson mixing matrices) are built once and kept,
read-only and least recently used first out, up to ``GRID_STORE_BYTES``.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import numbers
import threading

import numpy as np
from scipy import stats
from scipy.special import gammaln

PARAM_NAMES = ("eta1", "eta2", "r", "nu1", "nu2")
LOSS_NAMES = ("eta1", "eta2", "r")

# model probabilities below this count as zero: no information, no relative error
P_FLOOR = 1e-300
# combined thermal plus Poisson mass that default_cutoff leaves beyond each arm
CUTOFF_TAIL = 1e-12

# bytes of grid-only arrays kept between evaluations; a larger entry is built
# for its call and not kept
GRID_STORE_BYTES = 32 * 2**20

# log n! lookup, grown on demand
_LOG_FACT = gammaln(np.arange(512, dtype=float) + 1.0)


def _log_factorial(n: np.ndarray) -> np.ndarray:
    global _LOG_FACT
    top = int(np.max(n, initial=0))
    if top >= _LOG_FACT.size:
        _LOG_FACT = gammaln(np.arange(2 * top, dtype=float) + 1.0)
    return _LOG_FACT[n]


class _GridStore:
    """Least-recently-used store of read-only arrays, capped by their total bytes.

    ``get(key, build)`` returns the tuple of arrays under ``key``, calling
    ``build()`` on a miss.  Building runs outside the lock, so threads on
    different grids do not wait for each other.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.nbytes = 0
        self._entries = collections.OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, build):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry
        entry = build()
        for array in entry:
            array.flags.writeable = False
        size = sum(array.nbytes for array in entry)
        if size > self.cap:
            return entry
        with self._lock:
            if key in self._entries:
                return self._entries[key]
            self._entries[key] = entry
            self.nbytes += size
            while self.nbytes > self.cap:
                _, old = self._entries.popitem(last=False)
                self.nbytes -= sum(array.nbytes for array in old)
        return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


_STORE = _GridStore(GRID_STORE_BYTES)


class NumericError(RuntimeError):
    """A computation failed for numerical reasons (singular matrix, boundary point)."""


def check_param_names(names) -> tuple[str, ...]:
    """The names as a tuple, raising ValueError for any not in PARAM_NAMES or named twice."""
    names = tuple(names)
    for name in names:
        if name not in PARAM_NAMES:
            raise ValueError(f"unknown parameter {name!r}; choose from {PARAM_NAMES}")
    if len(set(names)) < len(names):
        raise ValueError(f"parameter names repeat: {names}")
    return names


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
    the grid.  ``scores`` maps each differentiated parameter name to the
    grid d probs / d theta.
    """

    probs: np.ndarray
    tail_mass: float
    scores: dict = dataclasses.field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.probs.ndim != 2:
            raise ValueError("probability grid must be two dimensional")
        if self.probs.min() < -1e-12 or self.probs.max() > 1.0 + 1e-12:
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


def lossy_tmsv_pnd(eta1: float, eta2: float, r: float, cutoff, wrt=()) -> JointPND:
    """Exact joint count distribution of a twin beam after per-arm loss.

    Bin (k, l) is the pair-number series sech^2 r sum_N tanh^(2N) r C(N, k)
    C(N, l) q1^k (1 - q1)^(N - k) q2^l (1 - q2)^(N - l), q_i = eta_i^2.  For
    k <= l it equals t0 2F1(l + 1, l + 1; l - k + 1; rho), where t0 is its
    first term and rho = (1 - q1)(1 - q2) tanh^2 r.  Euler's transformation
    (DLMF 15.8.1) rewrites it as t0 D^-(k + l + 1) 2F1(-k, -k; l - k + 1;
    rho), with D = 1 - rho: a polynomial of k + 1 positive terms.  Regrouped
    by m = 0 ... min(cutoff_a, cutoff_b), the whole grid is one product,

        P = A1^T diag(g) A2,   g_m = tanh^(2m) r / (cosh^2 r D),
        A1[m, k] = C(k, m) q1^k [tanh^2 r (1 - q2)]^(k - m) / D^k,
        A2[m, l] = C(l, m) q2^l [tanh^2 r (1 - q1)]^(l - m) / D^l,
        D = q1 + q2 - q1 q2 + (1 - q1)(1 - q2) / cosh^2 r,

    a finite sum of positive terms with nothing truncated, so each bin is
    exact up to roundoff (about 1e-13 relative).  D is written without
    cancellation.  The factors are built in log space, each row scaled to
    its largest entry so that none overflows.

    Scores reuse the factors.  The log derivative of term (m, k, l) is
    2k / eta1 - 2 eta1 (l - m) / (1 - q1) - (k + l + 1) 2 eta1 (1 - q2)
    tanh^2 r / D for eta1, the same with the arms swapped for eta2, and
    (k + l - m) c - 2 tanh r + (k + l + 1) 2 (1 - q1)(1 - q2) tanh r /
    (cosh^2 r D) for r, with c = 2 / (sinh r cosh r).  The parts in (k, l)
    alone multiply P; each m-dependent part is one more product.

    Args:
        eta1: transmission amplitude of arm a, in (0, 1].
        eta2: transmission amplitude of arm b, in (0, 1].
        r: squeezing parameter, >= 0.
        cutoff: max photon index per arm, an int or an (int, int) pair.
        wrt: names among eta1, eta2, r to differentiate; each must be
            interior (eta < 1, r > 0), else NumericError.

    Returns:
        JointPND on a (cutoff_a + 1) x (cutoff_b + 1) grid; ``scores`` holds
        one grid per name in ``wrt``.  A point where D underflows to 0 or a
        grid that overflows raises NumericError naming the point.
    """
    if not set(wrt) <= set(LOSS_NAMES):
        raise ValueError(f"the loss model differentiates only {LOSS_NAMES}, got {wrt}")
    _check_domain(wrt, eta1=eta1, eta2=eta2, r=r)
    ca, cb = _normalize_cutoff(cutoff)

    if r == 0.0:
        probs = np.zeros((ca + 1, cb + 1))
        probs[0, 0] = 1.0
        return JointPND(probs=probs, tail_mass=0.0, scores={name: 0.0 * probs for name in wrt})

    q1, q2 = eta1**2, eta2**2
    rows, kl1, *arms = _STORE.get(("loss", ca, cb), lambda: _loss_grid(ca, cb))
    arm1, arm2 = arms[:5], arms[5:]
    (ks, km1, *_), (ls, km2, *_) = arm1, arm2
    # D = 0 (log D = -inf) or an overflow leaves a non-finite entry, checked at the end
    with np.errstate(all="ignore"):
        tanh, log_c2 = np.tanh(r), 2.0 * np.log(np.cosh(r))
        sech2 = np.exp(-log_c2)
        d = q1 + q2 - q1 * q2 + (1.0 - q1) * (1.0 - q2) * sech2
        log_t2, log_d = 2.0 * np.log(tanh), np.log(d)

        def factor(arm, eta, q_other):
            """A[m, k] on one arm's columns, each row m divided by its largest entry exp(top_m)."""
            cols, km, log_binom, upper, pinned = arm
            # (k - m) log(tanh^2 r (1 - q)) is pinned to 0 at k = m, for q = 1
            spread = np.where(pinned, 0.0, km * (log_t2 + np.log1p(-q_other)))
            log_a = log_binom + cols * (2.0 * np.log(eta) - log_d) + spread
            log_a = np.where(upper, log_a, -np.inf)
            top = log_a.max(axis=1, keepdims=True)
            return np.exp(log_a - top), top

        a1, top1 = factor(arm1, eta1, q2)
        a2, top2 = factor(arm2, eta2, q1)
        g = np.exp(rows * log_t2 - log_c2 - log_d + top1 + top2)
        left = a1.T * g.T
        probs = left @ a2

        scores = {}
        if "eta1" in wrt:
            grid = 2.0 * ks.T / eta1 - kl1 * (2.0 * eta1 * (1.0 - q2) * tanh**2 / d)
            scores["eta1"] = probs * grid - (2.0 * eta1 / (1.0 - q1)) * (left @ (a2 * km2))
        if "eta2" in wrt:
            grid = 2.0 * ls / eta2 - kl1 * (2.0 * eta2 * (1.0 - q1) * tanh**2 / d)
            scores["eta2"] = probs * grid - (2.0 * eta2 / (1.0 - q2)) * (((a1 * km1).T * g.T) @ a2)
        if "r" in wrt:
            c = 2.0 * sech2 / tanh
            grid = (kl1 - 1) * c - 2.0 * tanh + kl1 * (
                2.0 * (1.0 - q1) * (1.0 - q2) * tanh * sech2 / d
            )
            scores["r"] = probs * grid - c * ((left * rows.T) @ a2)
    # a sum is finite only if every entry is
    total = float(probs.sum())
    if not math.isfinite(total + sum(float(v.sum()) for v in scores.values())):
        raise NumericError(
            f"the count model cannot be represented at eta1={eta1}, eta2={eta2}, r={r}"
        )
    tail = max(1.0 - total, 0.0)
    return JointPND(probs=probs, tail_mass=tail, scores=scores)


def _loss_grid(ca: int, cb: int) -> tuple:
    """The arrays of ``lossy_tmsv_pnd`` that depend only on the grid.

    Returns rows m as a column, the (k + l + 1) grid, then for arm a and
    then arm b its columns k as a row, (k - m)^+, log C(k, m), and the masks
    k >= m and k <= m.  Indices are stored as floats, the type every use
    needs.
    """
    rows = np.arange(min(ca, cb) + 1)[:, None]
    log_fact = _log_factorial(np.arange(max(ca, cb) + 1))

    def arm(cutoff):
        cols = np.arange(cutoff + 1)[None, :]
        km = np.maximum(cols - rows, 0)
        log_binom = log_fact[cols] - log_fact[rows] - log_fact[km]
        return cols.astype(float), km.astype(float), log_binom, cols >= rows, km == 0

    arm1, arm2 = arm(ca), arm(cb)
    return rows.astype(float), arm1[0].T + arm2[0] + 1.0, *arm1, *arm2


def _poisson_mixing_matrix(cutoff: int, nu: float) -> np.ndarray:
    """Lower-triangular convolution matrix A[m, k] = Poisson(nu).pmf(m - k), read-only."""

    def build():
        ks = np.arange(cutoff + 1)
        if nu == 0.0:
            return (np.eye(cutoff + 1),)
        pmf = np.exp(ks * np.log(nu) - nu - _log_factorial(ks))
        return (np.tril(pmf[np.abs(ks[:, None] - ks[None, :])]),)

    return _STORE.get(("poisson", cutoff, nu), build)[0]


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
    return JointPND(probs=probs, tail_mass=tail, scores=scores)


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

    Both stages are exact finite sums on the grid, with error at roundoff.

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

