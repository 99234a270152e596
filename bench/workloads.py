"""The benchmark's workloads: the paper's pipelines at the sizes users run them.

Each workload turns its seed into inputs, runs one op at a time through the
public twinloss API and checks every op's output.  Inputs that are not part
of an op (histograms to fit, shot records to ingest) come from the
benchmark's own evaluator of the count model, ``reference_pnd``, so they do
not change when the library's evaluator does.

Why these four: ``recovery`` is the paper's headline study (many short fits,
where the loss series and the optimizer loop do the work); ``nuisance_fit``
uses the same fitter as a few long multi-start fits with free dark counts, so
a change to how starts are run shows there and not on ``recovery``;
``crossover`` is the Fisher-information and bisection path on the large
default grids, with no fitting or sampling; ``ingest`` reads and writes files
and resamples, and never evaluates the count model.

``nuisance_fit`` is left out of BENCHMARK.json: its ops take about 8 s, so a
run of the listed length holds only three or four of them, too few to be
steady on a 2-core machine whose speed drifts over tens of seconds.  Run it
by hand with a longer ``--seconds``.
"""

from __future__ import annotations

import os
import re
import time

import numpy as np
from scipy import stats
from scipy.linalg import toeplitz

from twinloss import fisher, io, mle, sim
from twinloss.pnd import ParamSet

# reference operating point A of the paper
THETA_A = ParamSet(eta1=0.39202, eta2=0.38206, r=1.3, nu1=0.03419, nu2=0.06568)
CUTOFF = 16
FREE3 = ("eta1", "eta2", "r")
# eta1 variance bound per shot at A (quantum Cramer-Rao), as in the acceptance study
QCRB_ETA1_PER_SHOT = 1.7404032483


def reference_pnd(theta: ParamSet, cutoff: int, n_max: int = 200) -> np.ndarray:
    """Joint count probabilities by direct pair-number mixture.

    Binomial loss on each arm of the pair-number distribution tanh^2N r /
    cosh^2 r, then Poissonian dark counts.  Independent of the library's
    series evaluator.
    """
    n = np.arange(n_max + 1)
    k = np.arange(cutoff + 1)
    weights = np.tanh(theta.r) ** (2 * n) / np.cosh(theta.r) ** 2
    loss1 = stats.binom.pmf(k[None, :], n[:, None], theta.eta1**2)
    loss2 = stats.binom.pmf(k[None, :], n[:, None], theta.eta2**2)
    probs = loss1.T @ (weights[:, None] * loss2)
    dark1 = toeplitz(stats.poisson.pmf(k, theta.nu1), np.zeros(cutoff + 1))
    dark2 = toeplitz(stats.poisson.pmf(k, theta.nu2), np.zeros(cutoff + 1))
    return dark1 @ probs @ dark2.T


# calls of reference_pnd in one machine-speed reference, about 25 ms in all
REFERENCE_CALLS = 20


def reference_s() -> float:
    """Seconds the machine takes right now for a fixed piece of work.

    The work is the benchmark's own count-model evaluator at point A: scipy
    calls and small matrix products, as in the library's evaluator, but code
    that no change to the library touches.
    """
    start = time.perf_counter()
    for _ in range(REFERENCE_CALLS):
        reference_pnd(THETA_A, CUTOFF)
    return time.perf_counter() - start


class Workload:
    """One closed-loop workload.  Runs end only on a cycle boundary."""

    cycle = 1
    # leading ops whose exact work counts the traced run reports
    window = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def inputs(self, op: int):
        """Input of op ``op``, made from the seed; not timed."""
        return op

    def run(self, inp):
        """The timed op: public twinloss calls only."""
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        """A description of what is wrong with one op's output, or None."""
        return None

    def finish(self, results: list) -> list[str]:
        """Checks across all (input, output) pairs of the run."""
        return []

    def warmup(self) -> None:
        self.run(self.inputs(0))

    def probes(self) -> dict:
        """Per-layer figures measured outside the ops."""
        return {"io.rejected": (0, "count")}


class Recovery(Workload):
    """One trial of the 100-trial recovery study: sample 1e5 shots, fit eta1, eta2, r."""

    window = 4

    def run(self, trial):
        hist = sim.sample_shots(THETA_A, 10**5, CUTOFF, seed=self.seed, stream=trial)
        return mle.fit(hist, THETA_A, free=FREE3, n_starts=1, seed=0)

    def check(self, trial, result):
        if not result.converged:
            return f"trial {trial}: fit did not converge"
        return None

    def finish(self, results):
        estimates = np.array(
            [[getattr(res.theta_hat, name) for name in FREE3] for _, res in results if res is not None]
        )
        problems = []
        if len(estimates) >= 2:
            truth = THETA_A.values(FREE3)
            sem = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
            bias = np.abs(estimates.mean(axis=0) - truth)
            if np.any(bias > 5.0 * sem):
                problems.append(f"bias {bias.tolist()} exceeds 5 SEM {(5 * sem).tolist()}")
        if len(estimates) >= 100:
            ratio = estimates[:, 0].var(ddof=1) / (QCRB_ETA1_PER_SHOT / 10**5)
            if not 1.0 <= ratio <= 3.0:
                problems.append(f"eta1 variance is {ratio:.3f} x the quantum limit, not 1-3x")
        return problems


class NuisanceFit(Workload):
    """A five-parameter, four-start fit of a 1e6-shot histogram, dark counts free."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        probs = reference_pnd(THETA_A, CUTOFF)
        self.shape = probs.shape
        # the last cell is the mass beyond the cutoff
        pvals = np.append(probs.ravel(), max(1.0 - probs.sum(), 0.0))
        self.pvals = pvals / pvals.sum()

    def inputs(self, op):
        flat = np.random.default_rng([self.seed, op]).multinomial(10**6, self.pvals)
        return mle.Histogram(counts=flat[:-1].reshape(self.shape), overflow=int(flat[-1]))

    def run(self, hist, n_starts=4):
        return mle.fit(hist, THETA_A, n_starts=n_starts, seed=self.seed)

    def warmup(self):
        # a single start fills the same caches at a quarter of the cost
        self.run(self.inputs(0), n_starts=1)

    def check(self, hist, result):
        if not result.converged:
            return "fit did not converge"
        if result.covariance is None:
            return "no covariance"
        sigma = np.sqrt(np.diag(result.covariance))
        miss = np.abs(result.theta_hat.values(result.free) - THETA_A.values(result.free))
        if np.any(miss > 5.0 * sigma):
            return f"estimate off truth by {(miss / sigma).round(2).tolist()} sigma"
        return None


R_VALUES = (1 / 16, 1 / 4, 1 / 2, 1.0)
N_RAYS = 9
# eta1 = eta2 crossing of the pnrd-fim frontier from the series evaluator with
# finite-difference information.  Steps of 1e-4 or 1e-6 in place of 1e-5 move
# it by under 1e-8, so an exact-derivative evaluator must stay within the tolerance.
DIAGONAL_AT_SEED = {
    1 / 16: 0.24283209635004968,
    1 / 4: 0.4544118478432407,
    1 / 2: 0.6055329063939281,
    1.0: 0.7787168115386596,
}
DIAGONAL_TOL = 1e-6


def _known_r_quantum_sensitivity(eta1, eta2, r):
    """1 / total (eta1, eta2) variance from the quantum Fisher matrix at known r."""
    block = fisher.qfim_tmsv(eta1, eta2, r).entries[:2, :2]
    return 1.0 / float(np.trace(np.linalg.inv(block)))


class Crossover(Workload):
    """The counting frontier for one r, with the quantum frontier as its reference.

    A cycle holds each r once; the seed sets the order.
    """

    cycle = len(R_VALUES)
    window = len(R_VALUES)

    def inputs(self, op):
        return R_VALUES[(op + self.seed) % len(R_VALUES)]

    def warmup(self):
        # the smallest grid, so set-up time does not depend on the seed
        self.run(R_VALUES[0])

    def run(self, r):
        return (
            fisher.crossover_curve(r, source="pnrd-fim", n_rays=N_RAYS),
            fisher.crossover_curve(r, source="three-param-qfim", n_rays=N_RAYS),
        )

    def check(self, r, curves):
        counting = curves[0]
        if abs(counting.diagonal_point() - DIAGONAL_AT_SEED[r]) > DIAGONAL_TOL:
            return f"r={r}: diagonal point {counting.diagonal_point()!r} moved"
        # Counting information cannot exceed the quantum information of the
        # same known-r problem, so at every frontier point the known-r quantum
        # sensitivity is at least the coherent one.  (The three-param-qfim
        # frontier treats r as a nuisance and lies beyond the counting one.)
        energy = 2.0 * np.sinh(r) ** 2
        for curve in curves:
            for eta1, eta2 in curve.points:
                if _known_r_quantum_sensitivity(eta1, eta2, r) < energy * (1.0 - 1e-6):
                    return f"r={r}: {curve.source} frontier at ({eta1}, {eta2}) beats the quantum limit"
        return None


class Ingest(Workload):
    """One 1e6-shot ``m,n`` record: read it, bootstrap it, round-trip each replica as CSV."""

    shots = 10**6
    replicas = 3
    window = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        probs = reference_pnd(THETA_A, CUTOFF)
        self.shape = probs.shape
        self.pvals = (probs / probs.sum()).ravel()
        self.labels = np.array(
            [f"{m},{n}" for m in range(self.shape[0]) for n in range(self.shape[1])], dtype=object
        )

    def inputs(self, op):
        rng = np.random.default_rng([self.seed, op])
        cells = rng.choice(self.pvals.size, self.shots, p=self.pvals)
        path = os.path.join(self.workdir, "shots.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("m,n\n")
            handle.write("\n".join(self.labels[cells].tolist()))
            handle.write("\n")
        expected = np.bincount(cells, minlength=self.pvals.size).reshape(self.shape)
        return path, expected

    def run(self, inp):
        hist = io.read_shot_list(inp[0])
        replicas = sim.bootstrap(
            hist, "nonparam-with-replacement", n_resamples=self.replicas,
            resample_size=self.shots, seed=self.seed,
        )
        read_back = []
        for j, replica in enumerate(replicas):
            path = os.path.join(self.workdir, f"replica-{j}.csv")
            io.write_histogram_csv(path, replica)
            read_back.append(io.read_histogram_csv(path))
        return hist, replicas, read_back

    def check(self, inp, out):
        hist, replicas, read_back = out
        if hist.total != self.shots or hist.overflow:
            return f"histogram holds {hist.total} + {hist.overflow} shots, wrote {self.shots}"
        rows, cols = hist.counts.shape
        if not np.array_equal(hist.counts, inp[1][:rows, :cols]) or inp[1].sum() != hist.total:
            return "histogram differs from the shots written"
        for replica, back in zip(replicas, read_back):
            if replica.total != self.shots:
                return f"replica holds {replica.total} shots, asked for {self.shots}"
            if not np.array_equal(replica.counts, back.counts):
                return "CSV round trip changed a replica"
        return None

    def probes(self):
        """Feed malformed histogram CSVs; each should be rejected naming file and line.

        One repeats an (m, n) row, one leaves a row out.  They are probes,
        not ops, so the workload's ops stay free of failures.
        """
        grid = np.rint(reference_pnd(THETA_A, 4) * 1000).astype(int)
        rows = [f"{m},{n},{grid[m, n]}" for m in range(5) for n in range(5)]
        cases = {
            "duplicate-row": rows[:7] + [rows[6].rsplit(",", 1)[0] + ",7"] + rows[7:],
            "missing-row": rows[:7] + rows[8:],
        }
        rejected = 0
        for name, body in cases.items():
            path = os.path.join(self.workdir, f"{name}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(["m,n,count"] + body) + "\n")
            try:
                io.read_histogram_csv(path)
            except ValueError as exc:
                rejected += re.search(re.escape(path) + r":\d+", str(exc)) is not None
        print(f"malformed histogram CSVs rejected with file:line: {rejected} of {len(cases)}")
        return {"io.rejected": (rejected, "count")}


WORKLOADS = {
    "recovery": Recovery,
    "nuisance_fit": NuisanceFit,
    "crossover": Crossover,
    "ingest": Ingest,
}
