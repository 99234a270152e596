"""Span recording for the traced benchmark pass, and the per-layer metrics derived from it.

For the length of one traced op, timing wrappers replace the names through
which twinloss modules call each other (``twinloss.mle.model_pnd``,
``twinloss.fisher.classical_fim`` and so on), so each span nests under the
call that caused it.  The wrappers live here; nothing under ``src/`` changes.
Spans stay in memory as [name, start, end, parent index, op id, amount] and
are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict

# (module, attribute, span name).  Each wrapper sits on the name the calling
# module looks up at call time, so patching it catches every call.
PATCHES = (
    ("pnd", "lossy_tmsv_pnd", "pnd.series"),
    ("pnd", "apply_dark_counts", "pnd.dark"),
    ("mle", "model_pnd", "pnd.model"),
    ("fisher", "model_pnd", "pnd.model"),
    ("sim", "model_pnd", "pnd.model"),
    ("mle", "fit", "mle.fit"),
    ("mle", "minimize", "mle.minimize"),
    ("mle", "kl_objective", "mle.objective"),
    ("mle", "covariance_estimate", "mle.covariance"),
    ("mle", "observed_fim", "fisher.observed"),
    ("fisher", "classical_fim", "fisher.classical"),
    ("fisher", "crossover_curve", "fisher.crossover"),
    ("fisher", "qfim_inverse_analytic", "gaussian.qfim"),
    ("sim", "sample_shots", "sim.sample"),
    ("sim", "bootstrap", "sim.bootstrap"),
    ("io", "read_shot_list", "io.read_shots"),
    ("io", "write_histogram_csv", "io.write_hist"),
    ("io", "read_histogram_csv", "io.read_hist"),
)


# Work done by one call, read from its arguments or result.  The benchmark
# passes crossover_curve's source and n_rays by keyword.
AMOUNTS = {
    "pnd.series": lambda args, kwargs, result: int(result.probs.size),
    "mle.minimize": lambda args, kwargs, result: float(result.fun),
    "fisher.crossover": lambda args, kwargs, result: [
        kwargs["source"], kwargs["n_rays"], len(result.points)
    ],
    "sim.sample": lambda args, kwargs, result: int(result.shots),
    "sim.bootstrap": lambda args, kwargs, result: sum(h.shots for h in result),
    "io.read_shots": lambda args, kwargs, result: os.path.getsize(args[0]),
    "io.write_hist": lambda args, kwargs, result: os.path.getsize(args[0]),
}

# Span name -> reported layer.  Nelder-Mead's own work shows as self time of
# both fit and minimize; together they are the optimizer layer.
LAYER = {"mle.fit": "mle.optimizer", "mle.minimize": "mle.optimizer"}

SELF_LAYERS = (
    "pnd.series", "pnd.dark", "pnd.model", "mle.objective", "mle.optimizer",
    "mle.covariance", "fisher.classical", "fisher.observed", "fisher.crossover",
    "gaussian.qfim", "sim.sample", "sim.bootstrap", "io.read_shots",
    "io.write_hist", "io.read_hist",
)
CALL_COUNTS = (
    "pnd.series", "pnd.dark", "mle.objective", "fisher.classical", "fisher.observed",
    "sim.sample", "sim.bootstrap", "io.write_hist", "io.read_hist", "gaussian.qfim",
)


class Tracer:
    """Records nested spans of the twinloss calls made inside traced ops."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        # traced wall time of each op that completed, set by the caller
        self.op_walls: dict[int, float] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    def _wrap(self, name, fn):
        amount = AMOUNTS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if amount is not None:
                span[5] = amount(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Install the wrappers for the length of one op."""
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = getattr(self.package, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            self._op = op_id
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._op = None
            self._stack.clear()


def _self_times(spans):
    children = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            children[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - children[i] for i, span in enumerate(spans)]


def _ancestor(spans, index, names):
    parent = spans[index][3]
    while parent is not None and spans[parent][0] not in names:
        parent = spans[parent][3]
    return parent


def op_counts(spans, op_ids) -> dict:
    """Exact work counts summed over the given ops."""
    ops = set(op_ids)
    picked = [i for i, span in enumerate(spans) if span[4] in ops]
    calls = defaultdict(int)
    amounts = defaultdict(float)
    for i in picked:
        calls[spans[i][0]] += 1
        if isinstance(spans[i][5], (int, float)):
            amounts[spans[i][0]] += spans[i][5]

    fim_names = {"fisher.classical", "fisher.observed"}
    model_in_fim = sum(
        1 for i in picked if spans[i][0] == "pnd.model" and _ancestor(spans, i, fim_names) is not None
    )

    # per fit: objective evals under each start; the winner has the lowest objective
    starts = defaultdict(list)
    evals = defaultdict(int)
    for i in picked:
        if spans[i][0] == "mle.objective":
            evals[_ancestor(spans, i, {"mle.minimize"})] += 1
    for i in picked:
        if spans[i][0] == "mle.minimize":
            starts[_ancestor(spans, i, {"mle.fit"})].append((spans[i][5], evals[i]))
    winning = sum(min(runs, key=lambda run: run[0])[1] for runs in starts.values())

    rays = points = fims_in_crossover = 0
    for i in picked:
        if spans[i][0] == "fisher.crossover" and spans[i][5][0] == "pnrd-fim":
            rays += spans[i][5][1]
            points += spans[i][5][2]
    for i in picked:
        if spans[i][0] == "fisher.classical":
            owner = _ancestor(spans, i, {"fisher.crossover"})
            fims_in_crossover += owner is not None and spans[owner][5][0] == "pnrd-fim"

    return {
        "calls": dict(calls),
        "amounts": dict(amounts),
        "model_evals_in_fim": model_in_fim,
        "objective_evals": calls["mle.objective"],
        "winning_evals": winning,
        "rays": rays,
        "points": points,
        "fims_in_crossover": fims_in_crossover,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, window: list[int], untraced_total: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run.

    Self times are means per traced op over every traced op.  Counts are
    means per op over ``window``, a fixed set of leading ops, so they repeat
    exactly for a given seed.  Returns (metrics, breakdown), where breakdown
    holds the layer shares of traced op time.
    """
    spans = tracer.spans
    n_ops = len(tracer.op_walls)
    self_times = _self_times(spans)
    by_layer = defaultdict(float)
    root_total = 0.0
    per_op_roots = defaultdict(float)
    for i, span in enumerate(spans):
        if span[4] not in tracer.op_walls:
            continue  # the op failed
        by_layer[LAYER.get(span[0], span[0])] += self_times[i]
        if span[3] is None:
            per_op_roots[span[4]] += span[2] - span[1]
            root_total += span[2] - span[1]
    traced_total = sum(tracer.op_walls.values())
    unattributed = max(
        (wall - per_op_roots[op]) / wall for op, wall in tracer.op_walls.items() if wall > 0
    )

    counts = op_counts(spans, window)
    calls, amounts = counts["calls"], counts["amounts"]
    n_window = len(window)
    m = {}
    for layer in CALL_COUNTS:
        m[f"{layer}.calls"] = (calls.get(layer, 0) / n_window, "count")
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = (by_layer.get(layer, 0.0) / n_ops, "s")
    m["pnd.series.cells"] = (amounts.get("pnd.series", 0) / n_window, "count")
    m["mle.evals_per_fit"] = (_ratio(counts["objective_evals"], calls.get("mle.fit", 0)), "count")
    m["mle.winning_start_share"] = (_ratio(counts["winning_evals"], counts["objective_evals"]), "ratio")
    fims = calls.get("fisher.classical", 0) + calls.get("fisher.observed", 0)
    m["fisher.model_evals_per_fim"] = (_ratio(counts["model_evals_in_fim"], fims), "count")
    m["fisher.crossover.fims_per_ray"] = (_ratio(counts["fims_in_crossover"], counts["rays"]), "count")
    m["fisher.crossover.point_yield"] = (_ratio(counts["points"], counts["rays"]), "ratio")
    shots = amounts.get("sim.sample", 0) + amounts.get("sim.bootstrap", 0)
    m["sim.shots_drawn"] = (shots / n_window, "count")
    m["io.read_shots.bytes"] = (amounts.get("io.read_shots", 0) / n_window, "B")
    m["io.write_hist.bytes"] = (amounts.get("io.write_hist", 0) / n_window, "B")
    m["trace.overhead_frac"] = (traced_total / untraced_total - 1.0, "ratio")
    m["trace.unattributed_frac"] = (unattributed, "ratio")

    shares = {layer: t / traced_total for layer, t in by_layer.items()}
    shares["bench"] = (traced_total - root_total) / traced_total
    top = max((layer for layer in shares if layer != "bench"), key=shares.get)
    return m, {"top_layer": top, "shares": shares}
