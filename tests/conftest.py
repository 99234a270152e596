import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.optimize import OptimizeResult, brentq
from scipy.signal import convolve2d
from scipy.special import comb, hyp2f1
from scipy.stats import binom, poisson

from twinloss import (
    PARAM_NAMES, NumericError, ParamSet, apply_dark_counts, default_cutoff, fisher, lossy_tmsv_pnd
)
from twinloss.mle import MAXITER

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def theta_a():
    # reference operating point A: bright squeezing, moderate dark counts
    return ParamSet(eta1=0.39202, eta2=0.38206, r=1.3000, nu1=0.03419, nu2=0.06568)


@pytest.fixture(scope="session")
def theta_b():
    # reference operating point B: lower transmission, no dark counts
    return ParamSet(eta1=0.28730, eta2=0.28621, r=1.3425)


def mixture_pnd(eta1, eta2, r, cutoff, nu1=0.0, nu2=0.0, n_max=250):
    """Direct oracle: photon-pair weights pushed through binomial loss and
    Poisson spurious counts, summed term by term."""
    ca, cb = cutoff if isinstance(cutoff, tuple) else (cutoff, cutoff)
    pair_weights = np.tanh(r) ** (2 * np.arange(n_max + 1)) / np.cosh(r) ** 2
    probs = np.zeros((ca + 1, cb + 1))
    for n, weight in enumerate(pair_weights):
        loss1 = binom.pmf(np.arange(ca + 1), n, eta1**2)
        loss2 = binom.pmf(np.arange(cb + 1), n, eta2**2)
        probs += weight * np.outer(loss1, loss2)
    return dark_count_oracle(probs, nu1, nu2)


def dark_count_oracle(probs, nu1, nu2):
    """Convolve a count grid with Poisson spurious counts, cut to the same grid."""
    if nu1 > 0.0 or nu2 > 0.0:
        ca, cb = probs.shape[0] - 1, probs.shape[1] - 1
        kernel = np.outer(
            poisson.pmf(np.arange(ca + 1), nu1), poisson.pmf(np.arange(cb + 1), nu2)
        )
        probs = convolve2d(probs, kernel, mode="full")[: ca + 1, : cb + 1]
    return probs


def series_pnd(eta1, eta2, r, cutoff, tol=1e-14):
    """Independent oracle: the blocked log-space series over pair numbers.

    Evaluates, in log space,

        p(k, l) = (1 / cosh^2 r) * sum_{N >= max(k, l)} tanh^(2N) r
                  * C(N, k) q1^k (1 - q1)^(N-k) * C(N, l) q2^l (1 - q2)^(N-l)

    with q_i = eta_i^2, in blocks of 16 terms, until each bin's geometric
    remainder bound drops below ``tol`` times its partial sum.  Each log
    term is log C(N, k) + k log q1 + (N - k) log(1 - q1), the same for arm b,
    plus N log tanh^2 r - log cosh^2 r, and log C(N, k) is a sum of k logs
    of (N + 1 - j) / j: no part is a difference of log factorials thousands
    in size, so the terms keep their digits at large N.  Returns the
    probability grid.
    """
    ca, cb = cutoff if isinstance(cutoff, tuple) else (cutoff, cutoff)
    probs = np.zeros((ca + 1, cb + 1))
    if r == 0.0:
        probs[0, 0] = 1.0
        return probs

    ks = np.arange(ca + 1)[:, None]
    ls = np.arange(cb + 1)[None, :]
    start = np.maximum(ks, ls)

    q1, q2 = eta1**2, eta2**2
    log_t2 = 2.0 * np.log(np.tanh(r))
    log_norm = 2.0 * np.log(np.cosh(r))
    rho = (1.0 - q1) * (1.0 - q2) * np.tanh(r) ** 2

    js = np.arange(1, max(ca, cb) + 1)

    def log_binomial_term(log_binom, k, q, n_minus_k):
        """log C(N, k) q^k (1 - q)^(N - k), with (N - k) log(1 - q) pinned to 0 at N = k."""
        with np.errstate(divide="ignore", invalid="ignore"):
            loss = np.where(n_minus_k == 0, 0.0, n_minus_k * np.log1p(-q))
        return log_binom + k * np.log(q) + loss

    block = 16
    n_lo = 0
    converged = np.zeros_like(start, dtype=bool)
    while not converged.all():
        if n_lo > 100_000:
            raise RuntimeError("photon-number series failed to converge")
        ns = np.arange(n_lo, n_lo + block)[:, None, None]
        nk = ns - ks[None, :, :]
        nl = ns - ls[None, :, :]
        valid = (nk >= 0) & (nl >= 0)
        nk_c = np.where(valid, nk, 0)
        nl_c = np.where(valid, nl, 0)
        # log C(N, k) for k = 0 ... max cutoff; NaN or -inf where k > N, masked below
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.log((ns[:, :, 0] + 1 - js) / js)
        log_binom = np.concatenate([np.zeros((block, 1)), np.cumsum(steps, axis=1)], axis=1)
        exponent = (
            log_binomial_term(log_binom[:, : ca + 1, None], ks[None, :, :], q1, nk_c)
            + log_binomial_term(log_binom[:, None, : cb + 1], ls[None, :, :], q2, nl_c)
            + ns * log_t2
            - log_norm
        )
        terms = np.where(valid, np.exp(np.where(valid, exponent, -np.inf)), 0.0)
        probs += terms.sum(axis=0)

        n_last = n_lo + block - 1
        active = n_last >= start
        denom = (n_last + 1 - ks) * (n_last + 1 - ls)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(active, rho * (n_last + 1) ** 2 / denom, np.inf)
            bound = np.where(
                (ratio < 1.0) & active, terms[-1] * ratio / (1.0 - ratio), np.inf
            )
        converged = active & (bound <= tol * probs)
        n_lo += block

    return probs


def hypergeometric_pnd(eta1, eta2, r, cutoff, euler):
    """Independent oracle: each bin of the loss grid from ``scipy.special.hyp2f1``.

    For k <= l (else the arms swap), bin (k, l) is t0 2F1(l + 1, l + 1;
    l - k + 1; rho), with t0 = tanh^(2l) r / cosh^2 r C(l, k) q1^k q2^l
    (1 - q1)^(l - k) and rho = (1 - q1)(1 - q2) tanh^2 r.  With ``euler`` the
    2F1 is replaced by its Euler transform (DLMF 15.8.1) D^-(k + l + 1)
    2F1(-k, -k; l - k + 1; rho), D = q1 + q2 - q1 q2 + (1 - q1)(1 - q2) /
    cosh^2 r; that form holds where rho rounds to 1.  Only small cutoffs
    keep hyp2f1 and its prefactors in range; ``cutoff`` is an (int, int) pair.
    """
    q1, q2, t2, c2 = eta1**2, eta2**2, np.tanh(r) ** 2, np.cosh(r) ** 2
    rho = (1.0 - q1) * (1.0 - q2) * t2
    d = q1 + q2 - q1 * q2 + (1.0 - q1) * (1.0 - q2) / c2
    ks, ls = np.ogrid[: cutoff[0] + 1, : cutoff[1] + 1]
    lo, hi = np.minimum(ks, ls), np.maximum(ks, ls)
    q_lo, q_hi = np.where(ks <= ls, q1, q2), np.where(ks <= ls, q2, q1)
    t0 = t2**hi / c2 * comb(hi, lo) * q_lo**lo * q_hi**hi * (1.0 - q_lo) ** (hi - lo)
    if euler:
        return t0 * hyp2f1(-lo, -lo, hi - lo + 1, rho) / d ** (lo + hi + 1)
    return t0 * hyp2f1(hi + 1, hi + 1, hi - lo + 1, rho)


def _difference_step(theta, name, step):
    """Central-difference step for one parameter, shrunk to stay in the domain."""
    value = getattr(theta, name)
    h = step * max(abs(value), 0.1)
    if name in ("eta1", "eta2"):
        if value >= 1.0:
            h = (1.0 - value) / 2.0
        elif value + h > 1.0:
            h = (1.0 - value) / 2.0
        if value - h <= 0.0:
            h = min(h, value / 2.0)
    else:
        if value - h < 0.0:
            h = value / 2.0
    if h <= 0.0:
        raise NumericError(
            f"parameter {name}={value} sits on the domain boundary; "
            "finite differences need an interior point"
        )
    return h


def fd_scores(theta, params=PARAM_NAMES, cutoff=None, step=1e-5):
    """Independent oracle: central-difference derivatives of the model grid.

    Returns (dprobs, dtails), one entry per parameter, from two value-only
    evaluations of the count model per parameter.
    """
    if cutoff is None:
        cutoff = default_cutoff(theta)

    def model(point):
        loss = lossy_tmsv_pnd(point.eta1, point.eta2, point.r, cutoff)
        return apply_dark_counts(loss, point.nu1, point.nu2)

    dprobs, dtails = [], []
    for name in params:
        h = _difference_step(theta, name, step)
        value = getattr(theta, name)
        hi = model(theta.replace(**{name: value + h}))
        lo = model(theta.replace(**{name: value - h}))
        dprobs.append((hi.probs - lo.probs) / (2.0 * h))
        dtails.append((hi.tail_mass - lo.tail_mass) / (2.0 * h))
    return dprobs, dtails


def parse_shot_list(text):
    """Independent oracle for shot lists, one ``m,n`` pair per line.

    Returns ``(pairs, None)`` for an accepted record (``pairs`` empty when it
    holds no shots) and ``(None, lineno)`` for the first rejected line.  Blank
    lines are skipped and a non-integer pair on the first non-blank line is a
    header.
    """
    pairs, first = [], None
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        fields = line.strip().split(",")
        if fields == [""]:
            continue
        first = first or lineno
        if len(fields) != 2:
            return None, lineno
        try:
            m, n = int(fields[0]), int(fields[1])
        except ValueError:
            if lineno == first:
                continue
            return None, lineno
        if not (0 <= m < 2**63 and 0 <= n < 2**63):
            return None, lineno
        pairs.append((m, n))
    return pairs, None


def crossover_full_solve(r, source, n_rays):
    """Oracle of ``crossover_curve``: Brent's method on every ray, none mirrored.

    Returns, in ray order, the crossing of each ray along which the
    sensitivity difference to the coherent probe changes sign.
    """
    energy = 2.0 * np.sinh(r) ** 2
    if n_rays == 1:
        angles = [np.pi / 4.0]
    else:
        spread = np.arctan2(fisher.ETA_FLOOR, fisher.ETA_CEILING)
        angles = np.linspace(spread, np.pi / 2.0 - spread, n_rays)
    points = []
    for angle in angles:
        direction = np.array([np.cos(angle), np.sin(angle)])
        s_min = fisher.ETA_FLOOR / direction.min()
        s_max = fisher.ETA_CEILING / direction.max()

        def gap(s):
            return fisher._sensitivity_for_source(source, *(s * direction), r) - energy

        if s_min < s_max and gap(s_min) < 0.0 < gap(s_max):
            points.append(brentq(gap, s_min, s_max) * direction)
    return np.array(points).reshape(-1, 2)


XATOL = 1e-9


def scoring_to_xatol(evaluate, x0):
    """Oracle of ``mle.minimize``: Fisher scoring that stops on the step size.

    Stops with success once a step is below XATOL in every unconstrained
    coordinate, so it keeps halving after the objective has converged.
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


def lowloss_qfim(eta1, eta2, r):
    """Low-loss expansion of the twin-beam quantum Fisher matrix over (eta1, eta2).

    E [[1/(1 - eta1) - (3/2 + 5E), -4 - 3E], [-4 - 3E, 1/(1 - eta2) - (3/2 + 5E)]]
    with E = 2 sinh(r)^2, valid to first order in (1 - eta_i); an oracle for
    the (eta1, eta2) block of the exact ``qfim_tmsv``.  Far from eta_i ~ 1 it
    can be indefinite, so it is a plain 2x2 array.
    """
    energy = 2.0 * np.sinh(r) ** 2
    diag_shift = 1.5 + 5.0 * energy
    off = -4.0 - 3.0 * energy
    return energy * np.array(
        [
            [1.0 / (1.0 - eta1) - diag_shift, off],
            [off, 1.0 / (1.0 - eta2) - diag_shift],
        ]
    )


def lowloss_three_outcome(eta1, eta2, r):
    """Oracle of ``lowloss_qfim``: leading mixture weights in the low-loss regime.

    Returns the probabilities of losing no photon, one photon from arm a, and
    one photon from arm b.  These three weights carry all parameter
    information to first order in (1 - eta_i).
    """
    lam1 = (1.0 - eta1**2) / eta1**2
    lam2 = (1.0 - eta2**2) / eta2**2
    f2 = (eta1 * eta2 * np.tanh(r)) ** 2
    c2 = np.cosh(r) ** 2
    p00 = 1.0 / (c2 * (1.0 - f2))
    p10 = lam1 * f2 / (c2 * (1.0 - f2) ** 2)
    p01 = lam2 * f2 / (c2 * (1.0 - f2) ** 2)
    return (float(p00), float(p10), float(p01))


# symplectic form over the quadratures (x1, p1, x2, p2)
OMEGA = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])


def lossy_tmsv_covariance(eta1, eta2, r):
    """Covariance of the two-mode squeezed vacuum after per-arm loss, in closed form.

    Quadratures (x1, p1, x2, p2), vacuum covariance the identity.  Arm i has
    the diagonal block (eta_i^2 cosh 2r + 1 - eta_i^2) I, and the cross block
    is -eta1 eta2 sinh 2r Z with Z = diag(1, -1).  Returns sigma and its
    derivatives with respect to eta1, eta2 and r.
    """
    eye, z = np.eye(2), np.diag([1.0, -1.0])
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)

    def blocks(arm1, arm2, cross):
        return np.block([[arm1 * eye, cross * z], [cross * z, arm2 * eye]])

    sigma = blocks(eta1**2 * ch + 1.0 - eta1**2, eta2**2 * ch + 1.0 - eta2**2, -eta1 * eta2 * sh)
    derivs = [
        blocks(2.0 * eta1 * (ch - 1.0), 0.0, -eta2 * sh),
        blocks(0.0, 2.0 * eta2 * (ch - 1.0), -eta1 * sh),
        blocks(2.0 * eta1**2 * sh, 2.0 * eta2**2 * sh, -2.0 * eta1 * eta2 * ch),
    ]
    return sigma, derivs


def gaussian_qfim(eta1, eta2, r):
    """Independent oracle: the Gaussian-state quantum Fisher matrix over (eta1, eta2, r).

    F_ij = 1/2 vec(d_i sigma)^T (sigma (x) sigma - Omega (x) Omega)^-1 vec(d_j sigma)
    for a zero-mean Gaussian state with vacuum covariance the identity
    (Monras, arXiv:1303.3682; Safranek, J. Phys. A 52, 035304 (2019)).
    """
    sigma, derivs = lossy_tmsv_covariance(eta1, eta2, r)
    vecs = np.array([d.ravel() for d in derivs])
    metric = np.kron(sigma, sigma) - np.kron(OMEGA, OMEGA)
    return 0.5 * vecs @ np.linalg.solve(metric, vecs.T)
