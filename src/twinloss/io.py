"""On-disk formats: histogram CSV, shot lists, parameter and result JSON.

All writers are atomic (temp file + rename) and emit UTF-8 with LF line
endings.  Histogram CSV holds the full grid with header ``m,n,count`` and
rows sorted by (m, n); parameter JSON uses the keys eta1, eta2, r, nu1,
nu2, phi and round-trips floats exactly.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings

import numpy as np

from .mle import Histogram, MleResult
from .pnd import ParamSet


def _atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-twinloss-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write a delimited table atomically, UTF-8 with LF endings."""
    lines = [",".join(str(h) for h in header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    """Write a JSON document atomically with a trailing newline."""
    _atomic_write_text(path, json.dumps(obj, indent=2) + "\n")


def write_histogram_csv(path, hist: Histogram) -> None:
    """Write the full count grid with header ``m,n,count``, sorted by (m, n)."""
    if hist.overflow:
        warnings.warn(
            f"{hist.overflow} overflow shots have no CSV representation",
            UserWarning,
            stacklevel=2,
        )
    rows = (
        (m, n, int(hist.counts[m, n]))
        for m in range(hist.counts.shape[0])
        for n in range(hist.counts.shape[1])
    )
    write_csv(path, ("m", "n", "count"), rows)


def read_histogram_csv(path) -> Histogram:
    """Read a ``m,n,count`` grid holding each (m, n) up to the largest indices once."""
    with open(path, encoding="utf-8") as handle:
        lines = [(at, line.strip()) for at, line in enumerate(handle, start=1) if line.strip()]
    if not lines or lines[0][1].replace(" ", "") != "m,n,count":
        raise ValueError(f"{path}: expected header 'm,n,count'")
    entries, seen = [], {}
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        try:
            m, n, count = (int(part) for part in parts)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer field") from None
        if m < 0 or n < 0 or count < 0:
            raise ValueError(f"{path}:{lineno}: negative value")
        if (m, n) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate row {m},{n}")
        seen[m, n] = lineno
        entries.append((m, n, count))
    if not entries:
        raise ValueError(f"{path}: no data rows")
    table = np.array(entries, dtype=np.int64)
    counts = np.zeros((int(table[:, 0].max()) + 1, int(table[:, 1].max()) + 1), np.int64)
    counts[table[:, 0], table[:, 1]] = table[:, 2]
    if len(entries) < counts.size:
        gap = next(cell for cell in np.ndindex(counts.shape) if cell not in seen)
        # name the first row that sorts after the gap, or the last row
        lineno = min((at for cell, at in seen.items() if cell > gap), default=lines[-1][0])
        raise ValueError(f"{path}:{lineno}: missing row {gap[0]},{gap[1]}")
    return Histogram(counts=counts)


def read_shot_list(path) -> Histogram:
    """Bin a raw shot record with one ``m,n`` pair per line.

    A leading non-numeric header line is tolerated; the grid spans the
    largest observed pair.
    """
    pairs = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(parts)}")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError:
                if lineno == 1:
                    continue
                raise ValueError(f"{path}:{lineno}: non-integer field") from None
    if not pairs:
        raise ValueError(f"{path}: no shots")
    return Histogram.from_shots(np.array(pairs, dtype=np.int64))


def write_params_json(path, theta: ParamSet) -> None:
    write_json(path, theta.to_dict())


def read_params_json(path) -> ParamSet:
    """Load a parameter set through ``ParamSet.from_dict``, naming the file in errors."""
    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
    try:
        return ParamSet.from_dict(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def result_to_dict(result: MleResult) -> dict:
    """JSON-ready view of a fit result."""
    return {
        "theta_hat": result.theta_hat.to_dict(),
        "free": list(result.free),
        "objective_nats": float(result.objective),
        "rms": float(result.rms_error),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "evaluations": int(result.evaluations),
        "message": result.message,
        "start_objectives": [float(v) for v in result.start_objectives],
        "covariance": None
        if result.covariance is None
        else [[float(v) for v in row] for row in result.covariance],
        "covariance_labels": list(result.free),
        "condition_number": None
        if result.condition_number is None
        else float(result.condition_number),
    }


def write_result_json(path, result: MleResult) -> None:
    write_json(path, result_to_dict(result))
