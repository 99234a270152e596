"""Maximum-likelihood fitting of twin-beam count histograms.

The objective is the Kullback-Leibler divergence from the empirical
frequencies to the model distribution conditioned on the occupied bins, so
differences of the objective equal per-shot log-likelihood differences and
the minimum is exactly zero when the model reproduces the data.  Parameters
are optimized through unconstrained transforms by multi-start Fisher
scoring on the exact scores of the count model.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.special import expit, logit

from .fisher import _gram, _safe_inverse, observed_fim
from .pnd import (
    PARAM_NAMES, JointPND, NumericError, ParamSet, _normalize_cutoff, check_param_names, model_pnd
)

# starts after the first add Gaussian noise of this width to the unconstrained start
JITTER = 0.05
# scoring stops once a step is below XATOL in every unconstrained coordinate,
# or after MAXITER steps
XATOL = 1e-9
MAXITER = 5000


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent reproducible generator for (seed, stream)."""
    if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
        raise ValueError(f"seed and stream must lie in [0, 2**64), got {seed}, {stream}")
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    )


@dataclasses.dataclass(frozen=True)
class Histogram:
    """Joint photon-count histogram on a rectangular grid.

    ``counts[m, n]`` holds the number of shots with m clicks in arm 1 and n
    in arm 2; shots beyond the grid are pooled in ``overflow``.
    """

    counts: np.ndarray
    overflow: int = 0

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or counts.size == 0:
            raise ValueError("counts must be a nonempty two-dimensional grid")
        if not np.all(counts == np.floor(counts)):
            raise ValueError("counts must be integers")
        counts = counts.astype(np.int64)
        if counts.min() < 0:
            raise ValueError("counts must be >= 0")
        if self.overflow < 0:
            raise ValueError("overflow must be >= 0")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "overflow", int(self.overflow))

    @property
    def total(self) -> int:
        """Shots recorded on the grid."""
        return int(self.counts.sum())

    @property
    def shots(self) -> int:
        """All shots, including overflow."""
        return self.total + self.overflow

    @property
    def cutoff(self) -> tuple[int, int]:
        return (self.counts.shape[0] - 1, self.counts.shape[1] - 1)

    @classmethod
    def from_shots(cls, shots, cutoff=None) -> "Histogram":
        """Bin an (n, 2) array of (m, n) click pairs.

        Without a cutoff the grid spans the observed maxima, so nothing
        overflows; with one, pairs beyond it are pooled in ``overflow``.
        """
        pairs = np.asarray(shots)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
            raise ValueError("shots must be a nonempty (n, 2) array of click pairs")
        integral = pairs.dtype.kind in "iu" or np.all(pairs == np.floor(pairs))
        if not integral or pairs.min() < 0:
            raise ValueError("click counts must be integers >= 0")
        pairs = pairs.astype(np.int64, copy=False)
        if cutoff is None:
            ca, cb = int(pairs[:, 0].max()), int(pairs[:, 1].max())
        else:
            ca, cb = _normalize_cutoff(cutoff)
        inside = (pairs[:, 0] <= ca) & (pairs[:, 1] <= cb)
        cells = pairs[:, 0] * (cb + 1) + pairs[:, 1]
        flat = np.bincount(cells[inside], minlength=(ca + 1) * (cb + 1))
        return cls(
            counts=flat.reshape(ca + 1, cb + 1),
            overflow=int((~inside).sum()),
        )


@dataclasses.dataclass(frozen=True)
class MleResult:
    """Outcome of a maximum-likelihood fit.

    ``iterations`` (scoring steps) and ``message`` (why it stopped) describe
    the winning start; ``evaluations`` counts count-model evaluations over
    all starts, each of which ends at one of ``start_objectives``.
    """

    theta_hat: ParamSet
    objective: float
    iterations: int
    converged: bool
    covariance: np.ndarray | None
    rms_error: float
    free: tuple[str, ...]
    condition_number: float | None
    evaluations: int = 0
    message: str = ""
    start_objectives: tuple[float, ...] = ()


def _rms_residual(hist: Histogram, probs: np.ndarray) -> float:
    """Root-mean-square of (empirical frequency - model probability) over the grid."""
    return float(np.sqrt(np.mean((hist.counts / hist.total - probs) ** 2)))


def _kl_divergence(q: np.ndarray, p: np.ndarray) -> float:
    """KL divergence in nats between aligned probability vectors."""
    support = q > 0
    return float(np.sum(q[support] * (np.log(q[support]) - np.log(p[support]))))


def _conditioned_kl(hist: Histogram, pnd: JointPND, slopes=1.0):
    """KL objective of a model grid, with its gradient and information.

    With q the data frequencies and p_c = p / S the model conditioned on the
    occupied bins (S their model mass), the objective is KL(q || p_c), its
    gradient -sum q u with u = d log p_c = dp/p - dS/S, and the information
    of the conditioned model sum p_c u u^T, over coordinates x with
    d theta / dx = ``slopes`` for the parameters in ``pnd.scores``.  The
    derivatives are None without scores or when the objective is +inf.
    """
    counts = hist.counts
    total = hist.total
    if total <= 0:
        raise ValueError("histogram holds no grid counts")
    occupied = counts > 0
    p_occ = pnd.probs[occupied]
    if not np.isfinite(p_occ).all() or p_occ.min() <= 0.0:
        return np.inf, None, None
    q_occ = counts[occupied] / total
    mass = p_occ.sum()
    # true KL is >= 0; roundoff near a perfect fit must not break that
    value = max(_kl_divergence(q_occ, p_occ / mass), 0.0)
    if not pnd.scores:
        return value, None, None
    dp = np.array([grid[occupied] for grid in pnd.scores.values()]) * np.reshape(slopes, (-1, 1))
    u = dp / p_occ - dp.sum(axis=1, keepdims=True) / mass
    return value, -(u @ q_occ), _gram(u, p_occ / mass)


def kl_objective(hist: Histogram, theta: ParamSet) -> float:
    """Per-shot fit objective: KL from data frequencies to the model, in nats.

    The model grid matches the data grid, and the model probabilities are
    conditioned on the occupied bins, so the objective is zero exactly when
    the model reproduces the empirical frequencies.  Occupied bins the model
    assigns no probability give +inf.  Overflow shots are ignored.
    """
    return _conditioned_kl(hist, model_pnd(theta, hist.cutoff))[0]


def moment_init(hist: Histogram) -> ParamSet:
    """Heuristic starting point from the marginal count means.

    Assumes a small dark-count rate (0.02) per arm, sizes r from the total
    mean as if both transmission amplitudes were 0.5, then reads each
    amplitude off the ratio of its marginal mean to sinh(r)^2.
    """
    counts = hist.counts
    total = hist.total
    if total <= 0:
        raise ValueError("histogram holds no grid counts")
    m_axis = np.arange(counts.shape[0])
    n_axis = np.arange(counts.shape[1])
    mean1 = float(counts.sum(axis=1) @ m_axis) / total
    mean2 = float(counts.sum(axis=0) @ n_axis) / total
    nu = 0.02
    sinh_sq = max(2.0 * (mean1 + mean2 - 2.0 * nu), 1e-3)
    etas = np.sqrt(
        np.clip(
            (np.array([mean1, mean2]) - nu) / sinh_sq, 2.5e-3, 0.9975
        )
    )
    return ParamSet(
        eta1=float(etas[0]),
        eta2=float(etas[1]),
        r=float(np.arcsinh(np.sqrt(sinh_sq))),
        nu1=nu,
        nu2=nu,
    )


def _to_unconstrained(theta: ParamSet, free: tuple[str, ...], parametrization: str):
    x = []
    for name in free:
        value = getattr(theta, name)
        if name in ("eta1", "eta2"):
            value = min(max(value, 1e-6), 1.0 - 1e-9)
            x.append(float(logit(value**2 if parametrization == "q" else value)))
        elif name == "r":
            # inverse softplus log(expm1(r)), stable for small and large r
            value = max(value, 1e-6)
            x.append(float(value + np.log(-np.expm1(-value))))
        else:
            x.append(float(np.log(max(value, 1e-9))))
    return np.array(x)


def _from_unconstrained(
    x: np.ndarray, base: ParamSet, free: tuple[str, ...], parametrization: str
) -> tuple[ParamSet, np.ndarray]:
    """The parameter set at x, and d theta / d x of each free parameter's transform."""
    updates, slopes = {}, []
    for name, value in zip(free, x):
        if name in ("eta1", "eta2"):
            w = float(expit(value))
            root = float(np.sqrt(w))
            # eta = expit(x), or eta = sqrt(expit(x)) when fitting q = eta^2
            pair = (root, root * (1.0 - w) / 2.0) if parametrization == "q" else (w, w * (1.0 - w))
        elif name == "r":
            pair = (float(np.logaddexp(0.0, value)), float(expit(value)))  # softplus
        else:
            pair = (float(np.exp(value)),) * 2
        updates[name] = pair[0]
        slopes.append(pair[1])
    return base.replace(**updates), np.array(slopes)


def minimize(evaluate, x0: np.ndarray) -> OptimizeResult:
    """Fisher scoring from x0; ``evaluate(x)`` returns (objective, gradient, information, model).

    Each iteration proposes the step -F^-1 g (least squares, so a singular F
    gives the minimum-norm step and F = g = 0 gives none) and halves it until
    the objective does not rise.  Stops with success once the step is below
    XATOL in every coordinate, without it after MAXITER steps.  The result
    also holds ``model``, that of the last accepted evaluation.
    """
    x = np.asarray(x0, dtype=float)
    value, grad, info, model = evaluate(x)
    nit, nfev, message = 0, 1, "maximum number of iterations reached"
    if not np.isfinite(value):
        message = "objective is not finite at the start"
    while np.isfinite(value) and nit < MAXITER:
        step = np.linalg.lstsq(info, -grad, rcond=None)[0]
        if not np.isfinite(step).all():
            message = "scoring step is not finite"
            break
        while np.abs(step).max() >= XATOL:
            trial = evaluate(x + step)
            nfev += 1
            if trial[0] <= value:
                x, nit = x + step, nit + 1
                value, grad, info, model = trial
                break
            step = step / 2.0
        if np.abs(step).max() < XATOL:
            message = "step below xatol"
            break
    return OptimizeResult(
        x=x, fun=value, nit=nit, nfev=nfev, success=message == "step below xatol",
        message=message, model=model,
    )


def covariance_estimate(
    hist: Histogram,
    theta_hat: ParamSet,
    params: tuple[str, ...] = PARAM_NAMES,
):
    """Observed-information covariance at the fit point.

    Returns (covariance, condition_number) over ``params``, where covariance
    is the inverse of the observed information matrix, built from the exact
    scores of one model evaluation.  Raises NumericError when the
    information matrix is singular or a parameter sits on its boundary.
    """
    fim = observed_fim(hist, theta_hat, params=params)
    covariance = _safe_inverse(fim.entries)
    return covariance, float(np.linalg.cond(fim.entries))


def fit(
    hist: Histogram,
    init: ParamSet | None = None,
    *,
    free: tuple[str, ...] = PARAM_NAMES,
    n_starts: int = 4,
    seed: int = 0,
    parametrization: str = "eta",
) -> MleResult:
    """Fit the count model to a histogram by multi-start Fisher scoring.

    Free parameters are optimized through unconstrained transforms (logistic
    for transmissions, softplus for squeezing, log for dark counts); the
    remaining parameters stay at their ``init`` values.  Every evaluation
    returns the objective with its exact gradient and the information of
    the conditioned model, chained through the transforms, and ``minimize``
    steps by -F^-1 g, halving until the objective does not rise.  Start 0
    uses ``init`` (or ``moment_init``) exactly; further starts jitter the
    unconstrained vector by JITTER-wide Gaussian noise from ``rng_stream(seed)``.

    Args:
        hist: data histogram; its grid sets the model cutoff.
        init: full starting parameter set, also the source of fixed values.
        free: parameter names to optimize, in any order.
        n_starts: optimizer restarts, >= 1.
        seed: jitter seed, >= 0 (counter-based generator, reproducible).
        parametrization: "eta" fits the amplitudes, "q" their squares.
    """
    free_set = set(check_param_names(free))
    free_t = tuple(name for name in PARAM_NAMES if name in free_set)
    if not free_t:
        raise ValueError("at least one parameter must be free")
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    if parametrization not in ("eta", "q"):
        raise ValueError(f"parametrization must be 'eta' or 'q', got {parametrization!r}")

    base = init if init is not None else moment_init(hist)
    x0 = _to_unconstrained(base, free_t, parametrization)
    rng = rng_stream(seed, 0)

    def evaluate(x: np.ndarray):
        theta, slopes = _from_unconstrained(x, base, free_t, parametrization)
        try:
            pnd = model_pnd(theta, hist.cutoff, wrt=free_t)
        except NumericError:
            # a trial step rounded a parameter onto its domain boundary
            return np.inf, None, None, None
        return (*_conditioned_kl(hist, pnd, slopes), pnd)

    runs = []
    for start in range(n_starts):
        x_start = x0 if start == 0 else x0 + rng.normal(0.0, JITTER, size=x0.size)
        runs.append(minimize(evaluate, x_start))
    best = min(runs, key=lambda run: run.fun)

    theta_hat = _from_unconstrained(best.x, base, free_t, parametrization)[0]
    try:
        covariance, condition = covariance_estimate(hist, theta_hat, params=free_t)
    except (NumericError, np.linalg.LinAlgError) as exc:
        warnings.warn(f"covariance unavailable: {exc}", UserWarning, stacklevel=2)
        covariance, condition = None, None

    return MleResult(
        theta_hat=theta_hat,
        objective=float(best.fun),
        iterations=int(best.nit),
        converged=bool(best.success) and np.isfinite(best.fun),
        covariance=covariance,
        rms_error=_rms_residual(hist, best.model.probs),
        free=free_t,
        condition_number=condition,
        evaluations=sum(run.nfev for run in runs),
        message=best.message,
        start_objectives=tuple(float(run.fun) for run in runs),
    )
