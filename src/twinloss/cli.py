"""Command-line interface: simulate, fit, information matrices, crossover.

Exit codes: 0 success, 2 validation error, 3 numeric failure, 4 I/O error.
A batch fit writes a row for every file, failed ones included, and exits
with the code of the first file that failed.  The environment variable
TWINLOSS_SEED supplies the default seed when ``--seed`` is omitted.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys

import numpy as np

from . import io as tio
from .fisher import (
    NumericError,
    classical_fim,
    crossover_curve,
    qfim_inverse_analytic,
    qfim_tmsv,
)
from .mle import Histogram, fit
from .pnd import PARAM_NAMES, ParamSet
from .sim import BOOTSTRAP_MODES, bootstrap, relative_error_map, rms_error, sample_shots

FIT_COLUMNS = ("eta1", "eta2", "r", "nu1", "nu2", "objective_nats", "rms")

# the exceptions the CLI reports, in the order it checks them: classes,
# exit code and the label of the stderr line
_FAILURES = (
    ((ValueError, KeyError), 2, "error"),
    ((NumericError, np.linalg.LinAlgError, FloatingPointError), 3, "numeric failure"),
    ((OSError,), 4, "i/o error"),
)
_REPORTED = tuple(cls for classes, _, _ in _FAILURES for cls in classes)


def _failure(exc: Exception) -> tuple[int, str]:
    """Exit code and stderr message for an exception of a class in ``_REPORTED``."""
    code, label = next((c, lab) for classes, c, lab in _FAILURES if isinstance(exc, classes))
    return code, f"{label}: {exc}"


def _default_seed() -> int:
    raw = os.environ.get("TWINLOSS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"TWINLOSS_SEED must be an integer, got {raw!r}") from None


def _resolve_seed(args) -> int:
    return args.seed if args.seed is not None else _default_seed()


def _parse_cutoff(raw: str | None):
    if raw is None:
        return None
    parts = raw.split(",")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"cutoff must be an integer or 'a,b' pair, got {raw!r}") from None
    if len(values) == 1:
        return values[0]
    if len(values) == 2:
        return (values[0], values[1])
    raise ValueError(f"cutoff must be an integer or 'a,b' pair, got {raw!r}")


def _parse_free(raw: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in raw.split(",") if name.strip())


def _theta_from_args(args) -> ParamSet:
    return ParamSet(**{name: getattr(args, name) for name in PARAM_NAMES})


def _add_theta_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta1", type=float, required=True, help="arm-1 transmission amplitude")
    parser.add_argument("--eta2", type=float, required=True, help="arm-2 transmission amplitude")
    parser.add_argument("--r", type=float, required=True, help="squeezing parameter")
    parser.add_argument("--nu1", type=float, default=0.0, help="arm-1 dark-count rate")
    parser.add_argument("--nu2", type=float, default=0.0, help="arm-2 dark-count rate")


def _emit_json(obj, out: str | None) -> None:
    if out is None:
        print(json.dumps(obj, indent=2))
    else:
        tio.write_json(out, obj)


def _map_jobs(func, payloads, jobs: int) -> list:
    """``func`` over ``payloads`` in order, on ``jobs`` worker processes when jobs > 1."""
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(func, payloads))
    return [func(p) for p in payloads]


def _simulate_one(payload) -> tuple[str, int]:
    theta, shots, cutoff, seed, stream, path = payload
    hist = sample_shots(theta, shots, cutoff, seed=seed, stream=stream)
    tio.write_histogram_csv(path, Histogram(counts=hist.counts))
    return path, hist.overflow


def cmd_simulate(args) -> int:
    theta = _theta_from_args(args)
    seed = _resolve_seed(args)
    cutoff = _parse_cutoff(args.cutoff)
    if args.shots < 1:
        raise ValueError("--shots must be >= 1")
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    os.makedirs(args.out_dir, exist_ok=True)
    payloads = [
        (
            theta,
            args.shots,
            cutoff,
            seed,
            stream,
            os.path.join(args.out_dir, f"{args.prefix}{stream:04d}.csv"),
        )
        for stream in range(args.trials)
    ]
    results = _map_jobs(_simulate_one, payloads, args.jobs)
    for path, overflow in results:
        if overflow:
            print(f"{path}: {overflow} overflow shots", file=sys.stderr)
    print(f"wrote {len(results)} histogram(s) to {args.out_dir}")
    return 0


def _fit_one(payload) -> dict:
    path, init, free, starts, seed = payload
    result = fit(tio.read_counts(path), init, free=free, n_starts=starts, seed=seed)
    row = {"file": path}
    row.update(tio.result_to_dict(result))
    return row


def _fit_or_fail(payload) -> dict:
    """``_fit_one``, or an error row holding the exit code and message of its failure."""
    try:
        return _fit_one(payload)
    except _REPORTED as exc:
        code, message = _failure(exc)
        return {"file": payload[0], "error": code, "message": message}


def cmd_fit(args) -> int:
    seed = _resolve_seed(args)
    free = _parse_free(args.free)
    init = tio.read_params_json(args.init_json) if args.init_json else None
    payloads = [(path, init, free, args.starts, seed) for path in args.inputs]
    if len(payloads) > 1 and args.out is None:
        raise ValueError("batch fit needs --out for the summary CSV")
    if len(payloads) == 1:
        row = _fit_one(payloads[0])
        if not row["converged"]:
            print(f"{row['file']}: fit did not converge", file=sys.stderr)
        _emit_json(row, args.out)
        return 0

    rows = _map_jobs(_fit_or_fail, payloads, args.jobs)
    failed = [row for row in rows if "error" in row]
    for row in failed:
        print(f"{row['file']}: {row['message']}", file=sys.stderr)

    # one record per file holding every summary column; a failed file's
    # record holds only its name and error code
    table = [{**row.get("theta_hat", {}), **row} for row in rows]
    fitted = [rec for rec in table if "error" not in rec]
    values = np.array([[rec[c] for c in FIT_COLUMNS] for rec in fitted], dtype=float)
    blank = [""] * len(FIT_COLUMNS)
    mean = values.mean(axis=0).tolist() if fitted else blank
    stddev = values.std(axis=0, ddof=1).tolist() if len(fitted) > 1 else blank
    summary = [["mean", *mean, "", "", ""], ["stddev", *stddev, "", "", ""]]
    header = ("file",) + FIT_COLUMNS + ("converged", "iterations", "error")
    body = [[rec.get(c, "") for c in header] for rec in table]
    tio.write_csv(args.out, header, body + summary)
    n_bad = sum(1 for rec in fitted if not rec["converged"])
    if n_bad:
        print(f"{n_bad} fit(s) did not converge", file=sys.stderr)
    print(f"wrote {len(table)} fit rows to {args.out}")
    return failed[0]["error"] if failed else 0


def cmd_fisher(args) -> int:
    theta = _theta_from_args(args)
    params = _parse_free(args.params)
    fim = classical_fim(theta, params=params, cutoff=_parse_cutoff(args.cutoff))
    _emit_json(
        {
            "labels": list(fim.labels),
            "matrix": fim.entries.tolist(),
            "condition_number": float(np.linalg.cond(fim.entries)),
        },
        args.out,
    )
    return 0


def cmd_qfim(args) -> int:
    bounds = qfim_inverse_analytic(args.eta1, args.eta2, args.r)
    fim = qfim_tmsv(args.eta1, args.eta2, args.r)
    _emit_json(
        {
            "labels": list(fim.labels),
            "qfim": fim.entries.tolist(),
            "qfim_inverse": bounds.tolist(),
            "variance_bounds": {
                label: float(value) for label, value in zip(fim.labels, np.diag(bounds))
            },
            "condition_number": float(np.linalg.cond(fim.entries)),
        },
        args.out,
    )
    return 0


def cmd_crossover(args) -> int:
    curve = crossover_curve(args.r, source=args.source, n_rays=args.rays)
    tio.write_csv(args.out, ("eta1", "eta2"), curve.points.tolist())
    try:
        diagonal = curve.diagonal_point()
    except ValueError:
        diagonal = None
    print(
        json.dumps(
            {
                "r": args.r,
                "source": args.source,
                "n_points": int(curve.points.shape[0]),
                "diagonal": diagonal,
            }
        )
    )
    return 0


def cmd_bootstrap(args) -> int:
    hist = tio.read_counts(args.input)
    theta = tio.read_params_json(args.params_json) if args.params_json else None
    replicas = bootstrap(
        hist,
        args.mode,
        n_resamples=args.resamples,
        resample_size=args.size,
        seed=_resolve_seed(args),
        theta=theta,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    for i, replica in enumerate(replicas):
        if replica.overflow:
            print(f"replica {i}: {replica.overflow} overflow shots", file=sys.stderr)
        tio.write_histogram_csv(
            os.path.join(args.out_dir, f"{args.prefix}{i:04d}.csv"),
            Histogram(counts=replica.counts),
        )
    print(f"wrote {len(replicas)} replica(s) to {args.out_dir}")
    return 0


def cmd_relerr(args) -> int:
    hist = tio.read_counts(args.input)
    theta = tio.read_params_json(args.params_json)
    grid = relative_error_map(hist, theta)
    if args.out is not None:
        rows = (
            (m, n, float(grid[m, n]))
            for m in range(grid.shape[0])
            for n in range(grid.shape[1])
        )
        tio.write_csv(args.out, ("m", "n", "relative_error"), rows)
    finite = grid[np.isfinite(grid)]
    print(
        json.dumps(
            {
                "mean_abs": float(np.abs(finite).mean()) if finite.size else None,
                "rms": rms_error(hist, theta),
            }
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinloss",
        description="Twin-beam transmission estimation: simulation, fitting, and information bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample joint count histograms from the model")
    _add_theta_flags(p)
    p.add_argument("--shots", type=int, required=True, help="shots per trial")
    p.add_argument("--trials", type=int, default=1, help="number of independent trials")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default TWINLOSS_SEED or 0)")
    p.add_argument("--cutoff", default=None, help="grid cutoff, integer or 'a,b'")
    p.add_argument("--out-dir", required=True, help="directory for histogram CSVs")
    p.add_argument("--prefix", default="trial-", help="output filename prefix")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="maximum-likelihood fit of histogram file(s)")
    p.add_argument("inputs", nargs="+", help="histogram CSV or m,n shot-list files")
    p.add_argument("--free", default=",".join(PARAM_NAMES), help="comma-separated free parameters")
    p.add_argument("--init-json", default=None, help="starting parameters (JSON)")
    p.add_argument("--starts", type=int, default=4, help="optimizer restarts")
    p.add_argument("--seed", type=int, default=None, help="jitter seed (default TWINLOSS_SEED or 0)")
    p.add_argument("--out", default=None, help="result JSON (single) or summary CSV (batch)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("fisher", help="classical Fisher information of the count model")
    _add_theta_flags(p)
    p.add_argument(
        "--params", default=",".join(PARAM_NAMES), help="comma-separated parameters to differentiate"
    )
    p.add_argument("--cutoff", default=None, help="grid cutoff, integer or 'a,b'")
    p.add_argument("--out", default=None, help="output JSON (default stdout)")
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("qfim", help="quantum Fisher information bound for the twin beam")
    p.add_argument("--eta1", type=float, required=True)
    p.add_argument("--eta2", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--out", default=None, help="output JSON (default stdout)")
    p.set_defaults(func=cmd_qfim)

    p = sub.add_parser("crossover", help="equal-sensitivity frontier vs a coherent probe")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--source", choices=("pnrd-fim", "three-param-qfim"), default="pnrd-fim")
    p.add_argument("--rays", type=int, default=17, help="rays through the (eta1, eta2) square")
    p.add_argument("--out", required=True, help="curve CSV path")
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser("bootstrap", help="resample a histogram into replica files")
    p.add_argument("--input", required=True, help="histogram CSV or m,n shot-list file")
    p.add_argument("--mode", choices=BOOTSTRAP_MODES, required=True)
    p.add_argument("--resamples", type=int, default=100)
    p.add_argument("--size", type=int, default=None, help="shots per replica (default: observed)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default TWINLOSS_SEED or 0)")
    p.add_argument("--params-json", default=None, help="model parameters for parametric mode")
    p.add_argument("--out-dir", required=True, help="directory for replica CSVs")
    p.add_argument("--prefix", default="replica-", help="output filename prefix")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("relerr", help="per-bin relative error of data against the model")
    p.add_argument("--input", required=True, help="histogram CSV or m,n shot-list file")
    p.add_argument("--params-json", required=True, help="model parameters (JSON)")
    p.add_argument("--out", default=None, help="per-bin CSV path")
    p.set_defaults(func=cmd_relerr)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _REPORTED as exc:
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return code
