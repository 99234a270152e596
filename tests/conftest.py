import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.signal import convolve2d
from scipy.special import gammaln
from scipy.stats import binom, poisson

from twinloss import (
    PARAM_NAMES, NumericError, ParamSet, apply_dark_counts, default_cutoff, lossy_tmsv_pnd
)

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


def _log_factorial(n):
    return gammaln(n + 1.0)


def series_pnd(eta1, eta2, r, cutoff, tol=1e-14):
    """Independent oracle: the blocked log-space series over pair numbers.

    Evaluates, in log space,

        p(k, l) = (1 / cosh^2 r) * sum_{N >= max(k, l)}
                  lam1^(N-k) * lam2^(N-l) * |f|^(2N) * C(N, k) * C(N, l)

    with lam_i = (1 - eta_i^2) / eta_i^2 and |f|^2 = eta1^2 eta2^2 tanh^2 r,
    in blocks of 16 terms, until each bin's geometric remainder bound drops
    below ``tol`` times its partial sum.  Returns the probability grid.
    """
    ca, cb = cutoff if isinstance(cutoff, tuple) else (cutoff, cutoff)
    probs = np.zeros((ca + 1, cb + 1))
    if r == 0.0:
        probs[0, 0] = 1.0
        return probs

    ks = np.arange(ca + 1)[:, None]
    ls = np.arange(cb + 1)[None, :]
    start = np.maximum(ks, ls)

    lam1 = (1.0 - eta1**2) / eta1**2
    lam2 = (1.0 - eta2**2) / eta2**2
    log_lam1 = np.log(lam1) if lam1 > 0.0 else -np.inf
    log_lam2 = np.log(lam2) if lam2 > 0.0 else -np.inf
    log_f2 = 2.0 * (np.log(eta1) + np.log(eta2) + np.log(np.tanh(r)))
    log_norm = 2.0 * np.log(np.cosh(r))
    rho = lam1 * lam2 * np.exp(log_f2)

    log_fact_k = _log_factorial(ks)
    log_fact_l = _log_factorial(ls)

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
        # (N - k) * log(lam) with the 0 * (-inf) case pinned to 0 for eta = 1
        with np.errstate(invalid="ignore"):
            w1 = np.where(nk_c == 0, 0.0, nk_c * log_lam1)
            w2 = np.where(nl_c == 0, 0.0, nl_c * log_lam2)
        exponent = (
            2.0 * _log_factorial(ns)
            - _log_factorial(nk_c)
            - _log_factorial(nl_c)
            - log_fact_k[None, :, :]
            - log_fact_l[None, :, :]
            + w1
            + w2
            + ns * log_f2
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


def fd_scores(theta, params=PARAM_NAMES, cutoff=None, step=1e-5, tol=1e-14):
    """Independent oracle: central-difference derivatives of the model grid.

    Returns (dprobs, dtails), one entry per parameter, from two value-only
    evaluations of the count model per parameter, each certified to ``tol``.
    """
    if cutoff is None:
        cutoff = default_cutoff(theta)

    def model(point):
        loss = lossy_tmsv_pnd(point.eta1, point.eta2, point.r, cutoff, tol)
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
    lines are skipped and a non-integer pair on line 1 is a header.
    """
    pairs = []
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        fields = line.strip().split(",")
        if fields == [""]:
            continue
        if len(fields) != 2:
            return None, lineno
        try:
            m, n = int(fields[0]), int(fields[1])
        except ValueError:
            if lineno == 1:
                continue
            return None, lineno
        if not (0 <= m < 2**63 and 0 <= n < 2**63):
            return None, lineno
        pairs.append((m, n))
    return pairs, None


def lowloss_three_outcome(eta1, eta2, r):
    """Oracle of ``qfim_lowloss_tmsv``: leading mixture weights in the low-loss regime.

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
