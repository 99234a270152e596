"""End-to-end checks of the command-line interface via ``main(argv)``."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from twinloss.cli import main
from twinloss.fisher import classical_fim
from twinloss.io import read_histogram_csv, write_histogram_csv, write_params_json
from twinloss.mle import Histogram, fit
from twinloss.pnd import ParamSet, model_pnd
from twinloss.sim import sample_shots


def _exact_counts(theta, cutoff=12, shots=1e15):
    return np.rint(model_pnd(theta, cutoff).probs * shots).astype(np.int64)


def test_simulate_writes_trial_files(tmp_path, theta_a):
    out_dir = tmp_path / "trials"
    code = main(
        [
            "simulate",
            "--eta1", "0.39202", "--eta2", "0.38206", "--r", "1.3",
            "--nu1", "0.03419", "--nu2", "0.06568",
            "--shots", "500", "--trials", "3", "--cutoff", "12",
            "--seed", "7", "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["trial-0000.csv", "trial-0001.csv", "trial-0002.csv"]
    hist = read_histogram_csv(out_dir / "trial-0001.csv")
    assert hist.counts.shape == (13, 13)
    ref = sample_shots(theta_a, 500, 12, seed=7, stream=1)
    assert np.array_equal(hist.counts, ref.counts)


def test_simulate_parallel_matches_serial(tmp_path):
    base = [
        "simulate",
        "--eta1", "0.39202", "--eta2", "0.38206", "--r", "1.3",
        "--shots", "400", "--trials", "2", "--cutoff", "12", "--seed", "9",
    ]
    assert main(base + ["--out-dir", str(tmp_path / "serial")]) == 0
    assert main(base + ["--out-dir", str(tmp_path / "par"), "--jobs", "2"]) == 0
    for name in ("trial-0000.csv", "trial-0001.csv"):
        serial = (tmp_path / "serial" / name).read_bytes()
        assert (tmp_path / "par" / name).read_bytes() == serial


def test_simulate_rectangular_cutoff(tmp_path):
    code = main(
        [
            "simulate",
            "--eta1", "0.3", "--eta2", "0.3", "--r", "0.5",
            "--shots", "200", "--cutoff", "6,8", "--seed", "4",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    hist = read_histogram_csv(tmp_path / "trial-0000.csv")
    assert hist.counts.shape == (7, 9)


def test_fit_exact_counts_reaches_zero_objective(tmp_path, capsys, monkeypatch, theta_a):
    monkeypatch.delenv("TWINLOSS_SEED", raising=False)
    hist_path = tmp_path / "hist.csv"
    write_histogram_csv(hist_path, Histogram(counts=_exact_counts(theta_a)))
    init_path = tmp_path / "init.json"
    write_params_json(init_path, theta_a)
    code = main(
        [
            "fit", str(hist_path),
            "--init-json", str(init_path),
            "--free", "r,eta1,eta2",
            "--starts", "1",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["file"] == str(hist_path)
    assert doc["converged"] is True
    assert doc["objective_nats"] < 1e-10
    assert doc["free"] == ["eta1", "eta2", "r"]

    ref = fit(
        read_histogram_csv(hist_path),
        theta_a,
        free=("eta1", "eta2", "r"),
        n_starts=1,
        seed=0,
    )
    for name in ("eta1", "eta2", "r"):
        assert doc["theta_hat"][name] == getattr(ref.theta_hat, name)


def test_fit_single_with_out_writes_json(tmp_path, theta_a):
    hist_path = tmp_path / "hist.csv"
    write_histogram_csv(hist_path, Histogram(counts=_exact_counts(theta_a)))
    init_path = tmp_path / "init.json"
    write_params_json(init_path, theta_a)
    out = tmp_path / "result.json"
    code = main(
        [
            "fit", str(hist_path),
            "--init-json", str(init_path),
            "--free", "eta1",
            "--starts", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["free"] == ["eta1"]
    assert abs(doc["theta_hat"]["eta1"] - theta_a.eta1) < 1e-6
    assert doc["theta_hat"]["r"] == theta_a.r


def test_fit_batch_writes_summary_csv(tmp_path, theta_a):
    counts = _exact_counts(theta_a)
    init_path = tmp_path / "init.json"
    write_params_json(init_path, theta_a)
    paths = []
    for i in range(2):
        path = tmp_path / f"t{i}.csv"
        write_histogram_csv(path, Histogram(counts=counts))
        paths.append(str(path))
    out = tmp_path / "batch.csv"
    code = main(
        [
            "fit", *paths,
            "--init-json", str(init_path),
            "--free", "eta1,eta2,r",
            "--starts", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "file,eta1,eta2,r,nu1,nu2,objective_nats,rms,converged,iterations,error"
    assert len(lines) == 5
    assert lines[1].split(",")[1:] == lines[2].split(",")[1:]
    assert lines[3].startswith("mean,")
    stddev = lines[4].split(",")
    assert stddev[0] == "stddev"
    assert all(float(v) == 0.0 for v in stddev[1:8])


def test_fit_batch_without_out_fails_before_fitting(tmp_path, capsys, monkeypatch, theta_a):
    calls = []
    monkeypatch.setattr("twinloss.cli.fit", lambda *args, **kwargs: calls.append(args))
    paths = []
    for i in range(2):
        path = tmp_path / f"t{i}.csv"
        write_histogram_csv(path, Histogram(counts=_exact_counts(theta_a)))
        paths.append(str(path))
    assert main(["fit", *paths, "--starts", "1"]) == 2
    assert "batch fit needs --out" in capsys.readouterr().err
    assert calls == []


def _batch_args(tmp_path, theta, inputs):
    """Fit arguments for ``inputs``, which name good files ("ok"), bad ones and missing ones."""
    init_path = tmp_path / "init.json"
    write_params_json(init_path, theta)
    paths = []
    for i, kind in enumerate(inputs):
        path = tmp_path / f"t{i}.csv"
        if kind == "ok":
            write_histogram_csv(path, Histogram(counts=_exact_counts(theta)))
        elif kind == "bad":
            path.write_text("m,n,count\n0,0,x\n")
        paths.append(str(path))
    return ["fit", *paths, "--init-json", str(init_path), "--free", "eta1,eta2,r", "--starts", "1"]


def test_fit_batch_keeps_every_row_when_one_file_fails(tmp_path, capsys, theta_a):
    args = _batch_args(tmp_path, theta_a, ["ok", "ok", "bad"])
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(args + ["--out", str(serial)]) == 2
    bad = tmp_path / "t2.csv"
    assert f"{bad}: error: {bad}:2: non-integer field\n" in capsys.readouterr().err
    assert main(args + ["--out", str(parallel), "--jobs", "2"]) == 2
    assert parallel.read_bytes() == serial.read_bytes()

    lines = serial.read_text().splitlines()
    assert len(lines) == 6
    assert lines[1].split(",")[-1] == ""
    assert lines[1].split(",")[1:] == lines[2].split(",")[1:]
    assert lines[3] == f"{bad}" + "," * 10 + "2"
    mean, stddev = lines[4].split(","), lines[5].split(",")
    assert mean[:8] == ["mean"] + lines[1].split(",")[1:8]
    assert stddev[0] == "stddev"
    assert all(float(v) == 0.0 for v in stddev[1:8])
    assert mean[8:] == stddev[8:] == ["", "", ""]


def test_fit_batch_exits_with_first_failure_and_blanks_undefined_summary(
    tmp_path, capsys, theta_a
):
    out = tmp_path / "batch.csv"
    args = _batch_args(tmp_path, theta_a, ["ok", "missing", "bad"])
    assert main(args + ["--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"{tmp_path / 't1.csv'}: i/o error: " in err
    assert f"{tmp_path / 't2.csv'}: error: " in err
    lines = out.read_text().splitlines()
    assert [line.split(",")[-1] for line in lines[1:4]] == ["", "4", "2"]
    # one fitted row: its mean is the row itself, and no stddev is defined
    assert lines[4].split(",")[1:8] == lines[1].split(",")[1:8]
    assert lines[5] == "stddev" + "," * 10


def test_qfim_reports_inverse_diagonal(capsys):
    code = main(["qfim", "--eta1", "0.39202", "--eta2", "0.38206", "--r", "1.3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["labels"] == ["eta1", "eta2", "r"]
    diag = [doc["qfim_inverse"][i][i] for i in range(3)]
    assert np.allclose(diag, [1.7404032483, 1.6574383888, 8.3050528021], rtol=1e-6)
    assert doc["variance_bounds"]["r"] == pytest.approx(8.3050528021, rel=1e-6)
    assert doc["condition_number"] > 1.0


def test_fisher_matches_library(capsys, theta_a):
    code = main(
        [
            "fisher",
            "--eta1", "0.39202", "--eta2", "0.38206", "--r", "1.3",
            "--nu1", "0.03419", "--nu2", "0.06568",
            "--params", "eta1,eta2",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    ref = classical_fim(theta_a, params=("eta1", "eta2"))
    assert doc["labels"] == ["eta1", "eta2"]
    assert np.array_equal(np.array(doc["matrix"]), ref.entries)
    assert doc["condition_number"] > 1.0


def test_crossover_writes_curve_and_summary(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["crossover", "--r", "0.25", "--rays", "9", "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["source"] == "pnrd-fim"
    assert doc["n_points"] >= 3
    assert abs(doc["diagonal"] - 0.45441185) < 5e-4
    lines = out.read_text().splitlines()
    assert lines[0] == "eta1,eta2"
    points = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert points.shape == (doc["n_points"], 2)
    assert np.all((points > 0.0) & (points < 1.0))


def test_bootstrap_writes_replica_files(tmp_path, theta_a):
    hist = sample_shots(theta_a, 2000, 12, seed=3)
    src = tmp_path / "hist.csv"
    write_histogram_csv(src, Histogram(counts=hist.counts))
    out_dir = tmp_path / "boot"
    code = main(
        [
            "bootstrap",
            "--input", str(src),
            "--mode", "nonparam-with-replacement",
            "--resamples", "3",
            "--seed", "1",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["replica-0000.csv", "replica-0001.csv", "replica-0002.csv"]
    replica = read_histogram_csv(out_dir / "replica-0000.csv")
    assert replica.counts.shape == hist.counts.shape
    assert replica.counts.sum() == hist.counts.sum()


def test_relerr_exact_vacuum_is_zero(tmp_path, capsys):
    src = tmp_path / "hist.csv"
    write_histogram_csv(src, Histogram(counts=np.array([[1234]])))
    params = tmp_path / "theta.json"
    write_params_json(params, ParamSet(eta1=0.3, eta2=0.4, r=0.0))
    out = tmp_path / "relerr.csv"
    code = main(
        ["relerr", "--input", str(src), "--params-json", str(params), "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mean_abs"] == 0.0
    assert doc["rms"] == 0.0
    assert out.read_text() == "m,n,relative_error\n0,0,0.0\n"


def test_ingest_reads_shot_lists(tmp_path, capsys):
    src = tmp_path / "shots.csv"
    src.write_text("m,n\n" + "0,0\n" * 60 + "1,1\n" * 25 + "0,1\n" * 15)
    params = tmp_path / "theta.json"
    write_params_json(params, ParamSet(eta1=0.5, eta2=0.5, r=0.5))
    code = main(["relerr", "--input", str(src), "--ingest", "--params-json", str(params)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rms"] > 0.0


def test_out_of_range_inputs_exit_2(tmp_path, capsys):
    shots = tmp_path / "big.csv"
    shots.write_text("m,n\n0,1\n99999999999999999999,1\n")
    hist = tmp_path / "bighist.csv"
    hist.write_text("m,n,count\n0,0,99999999999999999999\n")
    assert main(["fit", "--ingest", str(shots), "--starts", "1"]) == 2
    assert "big.csv:3: value out of range" in capsys.readouterr().err
    assert main(["fit", str(hist), "--starts", "1"]) == 2
    assert "bighist.csv:2: value out of range" in capsys.readouterr().err
    # a short file naming a 9.2e9-cell grid fails before the grid is allocated
    hist.write_text("m,n,count\n0,0,1\n0,9206208256,1\n")
    assert main(["fit", str(hist), "--starts", "1"]) == 2
    assert "bighist.csv:3: missing row 0,1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "record",
    ["m,n\n0,1\n0,9206208256\n", "m,n\n0,1\n9223372036854775807,9223372036854775807\n"],
    ids=["memory", "overflow"],
)
def test_shot_list_grid_too_large_exits_2(tmp_path, record):
    resource = pytest.importorskip("resource")
    shots = tmp_path / "huge.csv"
    shots.write_text(record)
    # the first record asks for a 68.6 GiB grid: cap the child's address
    # space at 3 GiB so the allocation fails there, never in this process
    cap = 3 << 30
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from twinloss.cli import main\n"
        f"sys.exit(main(['fit', '--ingest', {str(shots)!r}, '--starts', '1']))\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2, proc.stderr
    assert f"error: {shots}: largest counts " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_env_var_supplies_default_seed(tmp_path, monkeypatch):
    args = [
        "simulate",
        "--eta1", "0.7", "--eta2", "0.6", "--r", "0.8",
        "--shots", "300", "--cutoff", "16", "--trials", "1",
    ]
    monkeypatch.setenv("TWINLOSS_SEED", "11")
    assert main(args + ["--out-dir", str(tmp_path / "env")]) == 0
    monkeypatch.delenv("TWINLOSS_SEED")
    assert main(args + ["--out-dir", str(tmp_path / "flag"), "--seed", "11"]) == 0
    env_bytes = (tmp_path / "env" / "trial-0000.csv").read_bytes()
    assert env_bytes == (tmp_path / "flag" / "trial-0000.csv").read_bytes()

    monkeypatch.setenv("TWINLOSS_SEED", "abc")
    assert main(args + ["--out-dir", str(tmp_path / "bad")]) == 2


def test_validation_error_exits_2(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--eta1", "1.5", "--eta2", "0.5", "--r", "1.0",
            "--shots", "10", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_init_json_exits_2(tmp_path, capsys):
    init_path = tmp_path / "init.json"
    init_path.write_text(json.dumps({"eta1": None, "eta2": 0.5, "r": 1.0}))
    data = tmp_path / "data.csv"
    write_histogram_csv(data, Histogram(counts=np.array([[5]])))
    code = main(["fit", str(data), "--init-json", str(init_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "init.json" in err and "eta1" in err


def test_fit_seed_out_of_range_exits_2(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data.csv"
    write_histogram_csv(data, Histogram(counts=np.array([[50, 3], [4, 9]])))
    assert main(["fit", str(data), "--starts", "1", "--seed", "-1"]) == 2
    assert main(["fit", str(data), "--starts", "1", "--seed", str(2**64)]) == 2
    monkeypatch.setenv("TWINLOSS_SEED", "-3")
    assert main(["fit", str(data), "--starts", "1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_bad_cutoff_exits_2(tmp_path):
    code = main(
        [
            "simulate",
            "--eta1", "0.5", "--eta2", "0.5", "--r", "1.0",
            "--shots", "10", "--cutoff", "1,2,3", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 2


def test_numeric_failure_exits_3(capsys):
    code = main(
        ["fisher", "--eta1", "1.0", "--eta2", "0.5", "--r", "1.0", "--params", "eta1"]
    )
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_missing_input_exits_4(capsys):
    code = main(["fit", "/no/such/file.csv"])
    assert code == 4
    assert "i/o error" in capsys.readouterr().err


def test_usage_errors_and_help(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "twinloss", "qfim", "--eta1", "0.5", "--eta2", "0.5", "--r", "1.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["labels"] == ["eta1", "eta2", "r"]
