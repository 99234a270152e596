"""Round trips and validation for the on-disk CSV and JSON formats."""

import json
import re

import numpy as np
import pytest
from conftest import parse_shot_list
from hypothesis import given, settings
from hypothesis import strategies as st

from twinloss.io import (
    read_histogram_csv,
    read_params_json,
    read_shot_list,
    result_to_dict,
    write_csv,
    write_histogram_csv,
    write_json,
    write_params_json,
    write_result_json,
)
from twinloss.mle import Histogram, MleResult
from twinloss.pnd import ParamSet


def test_histogram_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 50, size=(5, 7))
    path = tmp_path / "hist.csv"
    write_histogram_csv(path, Histogram(counts=counts))
    back = read_histogram_csv(path)
    assert back.counts.shape == (5, 7)
    assert np.array_equal(back.counts, counts)
    assert back.overflow == 0


def test_histogram_csv_exact_bytes(tmp_path):
    counts = np.array([[3, 0], [1, 2]])
    path = tmp_path / "hist.csv"
    write_histogram_csv(path, Histogram(counts=counts))
    raw = path.read_bytes()
    assert raw == b"m,n,count\n0,0,3\n0,1,0\n1,0,1\n1,1,2\n"
    assert b"\r" not in raw


def test_histogram_csv_overflow_warns(tmp_path):
    hist = Histogram(counts=np.array([[1]]), overflow=2)
    with pytest.warns(UserWarning, match="overflow"):
        write_histogram_csv(tmp_path / "hist.csv", hist)


# "\udcff" stands for the byte 0xff, which is not UTF-8
HISTOGRAM_MESSAGES = {"m,n,count\n0,0,1\n0,\udcff,2\n": r"bad\.csv:3: not valid UTF-8"}


@pytest.mark.parametrize(
    "text",
    [
        "a,b,c\n0,0,1\n",
        "m,n,count\n0,0,1.5\n",
        "m,n,count\n0,-1,3\n",
        "m,n,count\n0,1\n",
        "m,n,count\n",
        "",
        *HISTOGRAM_MESSAGES,
    ],
)
def test_read_histogram_csv_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ValueError, match=HISTOGRAM_MESSAGES.get(text)):
        read_histogram_csv(path)


def test_read_histogram_csv_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("m,n,count\n0,0,4\n0,1,2\n1,0,x\n")
    with pytest.raises(ValueError, match=":4:"):
        read_histogram_csv(path)


def test_read_histogram_csv_rejects_duplicate_row(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("m,n,count\n0,0,5\n0,0,7\n")
    with pytest.raises(ValueError, match=r"dup\.csv:3: duplicate row 0,0"):
        read_histogram_csv(path)


def test_read_histogram_csv_rejects_missing_row(tmp_path):
    path = tmp_path / "gap.csv"
    # the second file names a 9.2e9-cell grid; it must fail before allocating it
    for text, match in (
        ("m,n,count\n0,0,5\n0,1,1\n1,1,2\n", r"gap\.csv:4: missing row 1,0"),
        ("m,n,count\n0,0,1\n0,9206208256,1\n", r"gap\.csv:3: missing row 0,1"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_histogram_csv(path)


def test_read_shot_list_bins_pairs(tmp_path):
    path = tmp_path / "shots.csv"
    path.write_text("m,n\n0,1\n0,1\n2,0\n\n1,1\n")
    hist = read_shot_list(path)
    expected = np.zeros((3, 2), np.int64)
    expected[0, 1] = 2
    expected[2, 0] = 1
    expected[1, 1] = 1
    assert np.array_equal(hist.counts, expected)
    assert hist.shots == 4


def test_read_shot_list_matches_from_shots(tmp_path):
    rng = np.random.default_rng(3)
    shots = rng.integers(0, 6, size=(200, 2))
    path = tmp_path / "shots.csv"
    path.write_text("".join(f"{m},{n}\n" for m, n in shots))
    hist = read_shot_list(path)
    assert np.array_equal(hist.counts, Histogram.from_shots(shots).counts)


SHOT_LIST_MESSAGES = {
    "m,n\n0,1\n2,-1\n": r"bad\.csv:3: negative value",
    "m,n\n0,1\n99999999999999999999,1\n": r"bad\.csv:3: value out of range",
    "m,n\n0,1\n2,\udcff\n": r"bad\.csv:3: not valid UTF-8",
    "m,\udcffn\n0,1\n": r"bad\.csv:1: not valid UTF-8",
}


@pytest.mark.parametrize("text", ["", "0,1\nfoo,bar\n", "0,1,2\n", *SHOT_LIST_MESSAGES])
def test_read_shot_list_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ValueError, match=SHOT_LIST_MESSAGES.get(text)):
        read_shot_list(path)


def test_read_histogram_csv_rejects_value_beyond_int64(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("m,n,count\n0,0,99999999999999999999\n")
    with pytest.raises(ValueError, match=r"big\.csv:2: value out of range"):
        read_histogram_csv(path)


def test_read_shot_list_names_file_line_in_large_record(tmp_path):
    # the C parser rejects the record; the error must still count file lines,
    # blank ones included, not parsed rows
    lines = ["m,n"] + [
        "" if lineno % 1000 == 0 else f"{lineno % 7},{lineno % 5}"
        for lineno in range(2, 100_001)
    ]
    lines[70_002] = "x,1"
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"big\.csv:70003: non-integer field"):
        read_shot_list(path)


_PAD = st.sampled_from(["", " ", "\t"])
_NUMBER = st.tuples(_PAD, st.sampled_from(["", "+"]), st.integers(0, 12).map(str), _PAD)
_TOKEN = st.one_of(
    _NUMBER.map("".join),
    # 20 digits, small or beyond int64: large in-range values would size a huge grid
    st.one_of(st.integers(0, 12), st.integers(2**63, 10**20 - 1)).map("{:020d}".format),
    st.sampled_from(["-1", "-0", "x", "1.0", "1_0", "#", ""]),
)
# clean pairs are listed twice so that about half the records are accepted
_LINES = st.one_of(
    st.lists(_NUMBER.map("".join), min_size=2, max_size=2).map(",".join),
    st.lists(_NUMBER.map("".join), min_size=2, max_size=2).map(",".join),
    st.lists(_TOKEN, min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", " ", "\t "]),
)


@pytest.fixture(scope="module")
def record_path(tmp_path_factory):
    return tmp_path_factory.mktemp("records") / "record.csv"


@settings(max_examples=200)
@given(
    header=st.booleans(),
    lines=st.lists(_LINES, max_size=6),
    newline=st.sampled_from(["\n", "\r\n"]),
    final=st.booleans(),
)
def test_read_shot_list_matches_line_oracle(record_path, header, lines, newline, final):
    text = newline.join((["m,n"] if header else []) + lines) + (newline if final else "")
    record_path.write_bytes(text.encode("utf-8"))
    pairs, bad_line = parse_shot_list(text)
    if bad_line is not None:
        expected = rf"{re.escape(str(record_path))}:{bad_line}:"
    elif not pairs:
        expected = rf"{re.escape(str(record_path))}: no shots"
    else:
        hist = read_shot_list(record_path)
        assert np.array_equal(hist.counts, Histogram.from_shots(pairs).counts)
        return
    with pytest.raises(ValueError, match=expected):
        read_shot_list(record_path)


def test_params_json_round_trip_is_exact(tmp_path):
    theta = ParamSet(
        eta1=1.0 / 3.0,
        eta2=float(np.sqrt(0.5)),
        r=1.3,
        nu1=0.1 / 3.0,
        nu2=0.0,
    )
    path = tmp_path / "theta.json"
    write_params_json(path, theta)
    back = read_params_json(path)
    for name in ("eta1", "eta2", "r", "nu1", "nu2"):
        assert getattr(back, name) == getattr(theta, name)


def test_read_params_json_defaults_and_validation(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"eta1": 0.5, "eta2": 0.6, "r": 1.0}))
    theta = read_params_json(path)
    assert theta.nu1 == 0.0 and theta.nu2 == 0.0

    path.write_text(json.dumps([0.5, 0.6, 1.0]))
    with pytest.raises(ValueError, match="object"):
        read_params_json(path)

    path.write_text('{"eta1": 0.5,\n  "eta2": ')
    with pytest.raises(ValueError, match=r"theta\.json:2: Expecting value"):
        read_params_json(path)


@pytest.mark.parametrize("value", [None, "abc", [0.5], True])
def test_read_params_json_rejects_non_numbers_naming_file_and_key(tmp_path, value):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"eta1": value, "eta2": 0.6, "r": 1.0}))
    with pytest.raises(ValueError, match=r"theta\.json: eta1 must be a number"):
        read_params_json(path)


def test_result_to_dict_keys_and_none_covariance():
    result = MleResult(
        theta_hat=ParamSet(eta1=0.4, eta2=0.4, r=1.3),
        objective=1.5e-7,
        iterations=210,
        converged=True,
        covariance=None,
        rms_error=2e-4,
        free=("eta1", "eta2", "r"),
        condition_number=None,
    )
    doc = result_to_dict(result)
    assert set(doc) == {
        "theta_hat",
        "free",
        "objective_nats",
        "rms",
        "converged",
        "iterations",
        "evaluations",
        "message",
        "start_objectives",
        "covariance",
        "covariance_labels",
        "condition_number",
    }
    assert doc["covariance"] is None
    assert doc["condition_number"] is None
    assert doc["covariance_labels"] == ["eta1", "eta2", "r"]
    assert doc["theta_hat"]["eta1"] == 0.4


def test_write_result_json_round_trips(tmp_path):
    result = MleResult(
        theta_hat=ParamSet(eta1=0.4, eta2=0.4, r=1.3),
        objective=0.0,
        iterations=5,
        converged=True,
        covariance=np.array([[2.0]]),
        rms_error=0.0,
        free=("r",),
        condition_number=1.0,
    )
    path = tmp_path / "result.json"
    write_result_json(path, result)
    text = path.read_text()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["covariance"] == [[2.0]]
    assert doc["converged"] is True


def test_write_csv_cell_formatting(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ("a", "b", "c"), [(True, 3, 0.1)])
    assert path.read_bytes() == b"a,b,c\ntrue,3,0.1\n"


def test_write_json_emits_trailing_newline(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"x": 1})
    assert path.read_text().endswith("\n")


def test_writes_leave_no_temp_files(tmp_path):
    path = tmp_path / "hist.csv"
    write_histogram_csv(path, Histogram(counts=np.array([[5]])))
    write_histogram_csv(path, Histogram(counts=np.array([[7]])))
    assert [p.name for p in tmp_path.iterdir()] == ["hist.csv"]
    assert read_histogram_csv(path).counts[0, 0] == 7
