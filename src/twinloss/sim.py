"""Synthetic twin-beam data: shot sampling, trial batches, and bootstrap.

All randomness flows through counter-based generators keyed by (seed,
stream), so every histogram is reproducible independently of how many other
streams were drawn.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .mle import Histogram, _rms_residual, rng_stream
from .pnd import P_FLOOR, ParamSet, default_cutoff, model_pnd

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


@dataclasses.dataclass(frozen=True)
class TrialSet:
    """Batch of equally sized histograms drawn under one parameter set."""

    histograms: tuple[Histogram, ...]
    shots_per_trial: int
    seed: int
    theta_true: ParamSet | None = None

    def __post_init__(self) -> None:
        histograms = tuple(self.histograms)
        if not histograms:
            raise ValueError("a trial set needs at least one histogram")
        shape = histograms[0].counts.shape
        for i, hist in enumerate(histograms):
            if hist.counts.shape != shape:
                raise ValueError(f"trial {i} grid {hist.counts.shape} != {shape}")
            if hist.shots != self.shots_per_trial:
                raise ValueError(
                    f"trial {i} holds {hist.shots} shots, expected {self.shots_per_trial}"
                )
        object.__setattr__(self, "histograms", histograms)

    @property
    def n_trials(self) -> int:
        return len(self.histograms)

    def pooled(self) -> Histogram:
        """All trials merged into one histogram."""
        counts = np.sum([h.counts for h in self.histograms], axis=0)
        return Histogram(
            counts=counts, overflow=sum(h.overflow for h in self.histograms)
        )


def simulate_trials(
    theta: ParamSet,
    n_trials: int,
    shots_per_trial: int,
    cutoff=None,
    seed: int = 0,
) -> TrialSet:
    """Independent repeated experiments, one stream per trial."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if cutoff is None:
        cutoff = default_cutoff(theta)
    histograms = tuple(
        sample_shots(theta, shots_per_trial, cutoff, seed=seed, stream=i)
        for i in range(n_trials)
    )
    return TrialSet(
        histograms=histograms,
        shots_per_trial=shots_per_trial,
        seed=seed,
        theta_true=theta,
    )


def group_trials(trials: TrialSet, group_size: int) -> TrialSet:
    """Merge consecutive trials into groups of ``group_size``.

    Leftover trials that do not fill a group are dropped with a warning.
    """
    if group_size < 1 or group_size > trials.n_trials:
        raise ValueError(
            f"group_size must be in [1, {trials.n_trials}], got {group_size}"
        )
    n_groups, remainder = divmod(trials.n_trials, group_size)
    if remainder:
        warnings.warn(
            f"dropping {remainder} trailing trials that do not fill a group",
            UserWarning,
            stacklevel=2,
        )
    grouped = (
        TrialSet(
            histograms=trials.histograms[g * group_size : (g + 1) * group_size],
            shots_per_trial=trials.shots_per_trial,
            seed=trials.seed,
        ).pooled()
        for g in range(n_groups)
    )
    return TrialSet(
        histograms=tuple(grouped),
        shots_per_trial=group_size * trials.shots_per_trial,
        seed=trials.seed,
        theta_true=trials.theta_true,
    )


def bootstrap(
    data,
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
    ``seed``.  A TrialSet is pooled first; overflow shots are not resampled.
    """
    if mode not in BOOTSTRAP_MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {BOOTSTRAP_MODES}")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    hist = data.pooled() if isinstance(data, TrialSet) else data
    if not isinstance(hist, Histogram):
        raise ValueError("data must be a Histogram or TrialSet")
    total = hist.total
    if total <= 0:
        raise ValueError("histogram holds no grid counts")
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
            flat[observed] = rng.multinomial(size, flat_counts[observed] / total)
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
    if hist.total <= 0:
        raise ValueError("histogram holds no grid counts")
    probs = model_pnd(theta, hist.cutoff).probs
    q = hist.counts / hist.total
    out = np.full(probs.shape, np.nan)
    mask = probs >= P_FLOOR
    out[mask] = (q[mask] - probs[mask]) / probs[mask]
    return out


def rms_error(hist: Histogram, theta: ParamSet) -> float:
    """Root-mean-square of (empirical - model) over the data grid."""
    if hist.total <= 0:
        raise ValueError("histogram holds no grid counts")
    return _rms_residual(hist, model_pnd(theta, hist.cutoff).probs)
