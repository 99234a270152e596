"""On-disk formats: histogram CSV, shot lists, parameter and result JSON.

All writers are atomic (temp file + rename) and emit UTF-8 with LF line
endings.  Histogram CSV holds the full grid with header ``m,n,count`` and
rows sorted by (m, n); parameter JSON uses the keys eta1, eta2, r, nu1 and
nu2 and round-trips floats exactly.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import warnings

import numpy as np

from .mle import Histogram, MleResult
from .pnd import ParamSet

_INT64_MAX = np.iinfo(np.int64).max


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


def _lines(path):
    """The lines of a UTF-8 text file; a byte that is not UTF-8 raises ``path:line``."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            # such bytes decode to lone surrogates, which do not encode
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
            yield line


def _int_rows(path, lines, width: int):
    """Parse ``(lineno, line)`` pairs, skipping blank lines, into ``(lineno, values)``.

    Each line must hold ``width`` comma-separated integers within int64 and
    >= 0; the first that does not raises ValueError naming ``path:line``.
    """
    for lineno, line in lines:
        parts = line.strip().split(",")
        if parts == [""]:
            continue
        if len(parts) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
        try:
            values = tuple(int(part) for part in parts)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer field") from None
        if max(values) > _INT64_MAX:
            raise ValueError(f"{path}:{lineno}: value out of range")
        if min(values) < 0:
            raise ValueError(f"{path}:{lineno}: negative value")
        yield lineno, values


def read_histogram_csv(path) -> Histogram:
    """Read a ``m,n,count`` grid holding each (m, n) up to the largest indices once."""
    lines = [(at, line.strip()) for at, line in enumerate(_lines(path), start=1) if line.strip()]
    if not lines or lines[0][1].replace(" ", "") != "m,n,count":
        raise ValueError(f"{path}: expected header 'm,n,count'")
    entries, seen = [], {}
    for lineno, (m, n, count) in _int_rows(path, lines[1:], 3):
        if (m, n) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate row {m},{n}")
        seen[m, n] = lineno
        entries.append((m, n, count))
    if not entries:
        raise ValueError(f"{path}: no data rows")
    table = np.array(entries, dtype=np.int64)
    rows, cols = int(table[:, 0].max()) + 1, int(table[:, 1].max()) + 1
    # check before allocating: a short file can name a grid of any size
    if len(entries) < rows * cols:
        # at most len(entries) of the first len(entries) + 1 cells in (m, n)
        # order are present, so the first gap lies among them
        cells = (divmod(index, cols) for index in range(len(entries) + 1))
        gap = next(cell for cell in cells if cell not in seen)
        # name the first row that sorts after the gap, or the last row
        lineno = min((at for cell, at in seen.items() if cell > gap), default=lines[-1][0])
        raise ValueError(f"{path}:{lineno}: missing row {gap[0]},{gap[1]}")
    counts = np.zeros((rows, cols), np.int64)
    counts[table[:, 0], table[:, 1]] = table[:, 2]
    return Histogram(counts=counts)


def read_shot_list(path) -> Histogram:
    """Bin a raw shot record with one ``m,n`` pair per line.

    A first non-blank line of two fields that are not both integers is a
    header; the grid spans the largest observed pair, and one too large to
    allocate raises ValueError.  Records numpy's C parser refuses are re-read
    by ``_int_rows``, which accepts odd but valid lines and names ``path:line``.
    """
    # no generator here (one cost ~9 MB peak RSS over many reads); a bad
    # byte on the first line fails the C parser, and the fallback names it
    lineno, line = 0, ""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.strip():
                break
    fields = line.split(",")
    try:
        list(map(int, fields))
        header = 0
    except ValueError:
        # skip through the header's physical line, blank lines before it included
        header = lineno if len(fields) == 2 else 0
    table = None
    try:
        # promoted warnings catch the empty records and float-to-int
        # parsing that some numpy versions only warn about
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                path, delimiter=",", dtype=np.int64, comments=None, ndmin=2,
                encoding="utf-8", skiprows=header,
            )
    except (ValueError, Warning):
        pass
    if table is None or table.shape[1] != 2 or not table.size or table.min() < 0:
        lines = itertools.islice(enumerate(_lines(path), start=1), header, None)
        table = np.array([pair for _, pair in _int_rows(path, lines, 2)], dtype=np.int64)
    if not table.size:
        raise ValueError(f"{path}: no shots")
    try:
        return Histogram.from_shots(table)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_counts(path) -> Histogram:
    """Read a count file with the reader its first non-blank line calls for.

    A line of exactly two comma-separated fields starts an ``m,n`` shot list
    (``read_shot_list``); anything else, an empty file included, is read as a
    ``m,n,count`` histogram CSV (``read_histogram_csv``).
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        first = next((line for line in handle if line.strip()), "")
    return read_shot_list(path) if first.count(",") == 1 else read_histogram_csv(path)


def write_params_json(path, theta: ParamSet) -> None:
    write_json(path, theta.to_dict())


def read_params_json(path) -> ParamSet:
    """Load a parameter set through ``ParamSet.from_dict``, naming the file in errors."""
    try:
        raw = json.loads("".join(_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg} (column {exc.colno})") from None
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
