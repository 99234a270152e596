"""Synthetic twin-beam data: shot sampling, bootstrap and model residuals.

All randomness flows through counter-based generators keyed by (seed,
stream), so every histogram is reproducible independently of how many other
streams were drawn.  Independent trial i is ``sample_shots(..., stream=i)``;
pooling trials sums their ``counts`` and ``overflow``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .mle import Histogram, _rms_residual, rng_stream
from .pnd import P_FLOOR, ParamSet, model_pnd

BOOTSTRAP_MODES = (
    "nonparam-with-replacement",
    "nonparam-without-replacement",
    "parametric",
)


def _draw_counts(flat_probs: np.ndarray, n_shots: int, rng: np.random.Generator):
    """One multinomial draw over the bins; returns (flat counts, overflow count).

    The overflow bin appended last takes the mass the bins leave, since
    ``Generator.multinomial`` gives its last category the remainder.
    """
    counts = rng.multinomial(n_shots, np.append(flat_probs, 0.0))
    return counts[:-1], int(counts[-1])


def sample_shots(
    theta: ParamSet,
    n_shots: int,
    cutoff=None,
    seed: int = 0,
    stream: int = 0,
) -> Histogram:
    """Draw i.i.d. joint click counts from the model.

    Shots falling beyond the cutoff land in the histogram's overflow; a
    warning is emitted when that probability exceeds 1e-6.
    """
    if n_shots < 0:
        raise ValueError("n_shots must be >= 0")
    pnd = model_pnd(theta, cutoff)
    if pnd.tail_mass > 1e-6:
        warnings.warn(
            f"{pnd.tail_mass:.3g} of the probability lies beyond the cutoff "
            "and will be pooled as overflow",
            UserWarning,
            stacklevel=2,
        )
    flat, overflow = _draw_counts(pnd.probs.ravel(), n_shots, rng_stream(seed, stream))
    return Histogram(counts=flat.reshape(pnd.probs.shape), overflow=overflow)


def bootstrap(
    hist: Histogram,
    mode: str,
    n_resamples: int = 100,
    resample_size: int | None = None,
    seed: int = 0,
    theta: ParamSet | None = None,
) -> list[Histogram]:
    """Resampled histograms from observed data or from a fitted model.

    Modes: "nonparam-with-replacement" redraws shots from the empirical
    frequencies, "nonparam-without-replacement" subsamples the recorded
    shots (a full-size draw returns an exact copy), and "parametric" samples
    the model at ``theta`` on the data grid.  Replica i uses stream i of
    ``seed``.  Overflow shots are not resampled.
    """
    if mode not in BOOTSTRAP_MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {BOOTSTRAP_MODES}")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    if not isinstance(hist, Histogram):
        raise ValueError("data must be a Histogram")
    frequencies = hist.frequencies.ravel()
    total = hist.total
    size = total if resample_size is None else int(resample_size)
    if size < 1:
        raise ValueError("resample_size must be >= 1")
    if mode == "nonparam-without-replacement" and size > total:
        raise ValueError(
            f"cannot draw {size} shots without replacement from {total}"
        )
    if mode == "parametric":
        if theta is None:
            raise ValueError("parametric bootstrap needs theta")
        model_flat = model_pnd(theta, hist.cutoff).probs.ravel()

    shape = hist.counts.shape
    flat_counts = hist.counts.ravel()
    observed = flat_counts > 0
    replicas = []
    for i in range(n_resamples):
        rng = rng_stream(seed, i)
        if mode == "nonparam-with-replacement":
            # over the observed bins alone: multinomial hands the roundoff
            # remainder to the last category, which is then an observed bin,
            # and there is no overflow bin, so every replica holds ``size`` shots
            flat = np.zeros_like(flat_counts)
            flat[observed] = rng.multinomial(size, frequencies[observed])
            replicas.append(Histogram(counts=flat.reshape(shape), overflow=0))
        elif mode == "nonparam-without-replacement":
            flat = rng.multivariate_hypergeometric(flat_counts, size)
            replicas.append(Histogram(counts=flat.reshape(shape), overflow=0))
        else:
            flat, overflow = _draw_counts(model_flat, size, rng)
            replicas.append(Histogram(counts=flat.reshape(shape), overflow=overflow))
    return replicas


def relative_error_map(hist: Histogram, theta: ParamSet) -> np.ndarray:
    """Per-bin (empirical - model) / model on the data grid; NaN below ``P_FLOOR``."""
    q = hist.frequencies
    probs = model_pnd(theta, hist.cutoff).probs
    out = np.full(probs.shape, np.nan)
    mask = probs >= P_FLOOR
    out[mask] = (q[mask] - probs[mask]) / probs[mask]
    return out


def rms_error(hist: Histogram, theta: ParamSet) -> float:
    """Root-mean-square of (empirical - model) over the data grid."""
    return _rms_residual(hist, model_pnd(theta, hist.cutoff).probs)
