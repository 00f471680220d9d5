"""End-to-end CLI behaviour: exit codes, CSV formats, manifests, determinism."""

import datetime
import importlib.util
import math
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from eivreg import cli, csvio, montecarlo
from eivreg.asymptotics import (estimate_score_cov, law_inputs, named_weight_limit,
                                score_cov_model)
from eivreg.csvio import read_matrix_csv, write_matrix_csv
from eivreg.estimators import lse
from eivreg.exceptions import ConfigError, EivregError
from eivreg.model import STREAMS, DesignRule, generate, make_restricted_b
from eivreg.config import config_digest, load_config, parse_config
from eivreg.montecarlo import run_plan
from eivreg.risk import adr_restricted
from test_kernel import record_pools

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "default.yaml"
WORKLOADS = ROOT / "perfbench" / "workloads"


def _write_config(path, **model_overrides):
    doc = {
        "model": {"n": 400, "p": 2, "q": 2, "sigma_eps2": 2.0,
                  "sigma_delta2": 0.5, "sigma_psi2": 0.5,
                  "error_family": "gaussian",
                  "M": {"kind": "uniform", "low": -4.0, "high": 4.0,
                        "seed": 1848}},
        "restriction": {"R1": [[1.0, -0.5]], "R2": [[1.0], [0.8]],
                        "theta": [[0.3]], "theta0": [[0.9]]},
        "simulation": {"master_seed": 314, "reps": 300,
                       "B_seed": [[1.6, 0.8], [-0.5, 1.3]],
                       "estimators": ["UE", "B2", "B3", "B4"]},
        "score_cov": {"n": 400, "reps": 300},
        "risk": {"weight": "identity", "q0": "B2", "grid": 20},
    }
    doc["model"].update(model_overrides)
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return doc


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "cfg.yaml"
    _write_config(path)
    return path


def _noiseless_fixture(tmp_path):
    cfg_path = tmp_path / "noiseless.yaml"
    doc = _write_config(cfg_path, sigma_eps2=0.0, sigma_delta2=0.0,
                        sigma_psi2=0.0)
    # exact restriction: the projected truth satisfies the same theta the
    # restricted estimators enforce, so every estimator recovers it
    doc["restriction"]["theta0"] = [[0.0]]
    cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    run = parse_config(doc)
    B = make_restricted_b(run.model, run.restriction, run.simulation.B_seed)
    ds = generate(run.model, B, np.random.default_rng(0))
    write_matrix_csv(tmp_path / "z.csv", ds.Z)
    write_matrix_csv(tmp_path / "x.csv", ds.X)
    return cfg_path, tmp_path / "z.csv", tmp_path / "x.csv", B


def test_estimate_recovers_noiseless_truth(tmp_path, capsys):
    cfg_path, z_csv, x_csv, B = _noiseless_fixture(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["estimate", "--config", str(cfg_path), "--z", str(z_csv),
                     "--x", str(x_csv), "--out", str(out)])
    assert code == 0
    for name in ("b_lse", "b1", "b2", "b3", "b4"):
        got = read_matrix_csv(out / f"{name}.csv")
        assert np.linalg.norm(got - B) <= 1e-8
    manifest = (out / "manifest.txt").read_text()
    assert "command=estimate" in manifest
    assert "config_digest=" in manifest


def test_estimate_outputs_byte_identical(tmp_path):
    cfg_path, z_csv, x_csv, _ = _noiseless_fixture(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["estimate", "--config", str(cfg_path), "--z", str(z_csv),
                     "--x", str(x_csv), "--out", str(out1)]) == 0
    assert cli.main(["estimate", "--config", str(cfg_path), "--z", str(z_csv),
                     "--x", str(x_csv), "--out", str(out2)]) == 0
    for f in sorted(out1.glob("*.csv")):
        assert f.read_bytes() == (out2 / f.name).read_bytes()


def test_estimate_outputs_identical_with_byte_order_mark(tmp_path):
    run = load_config(CONFIG)
    B = make_restricted_b(run.model, run.restriction, run.simulation.B_seed)
    ds = generate(run.model, B, np.random.default_rng(0))
    for name, arr in (("x", ds.X), ("z", ds.Z)):
        # headerless, so that a mark glued to the first cell would cost a row
        plain, bom = (tmp_path / v / f"{name}.csv" for v in ("plain", "bom"))
        plain.parent.mkdir(exist_ok=True)
        bom.parent.mkdir(exist_ok=True)
        np.savetxt(plain, arr, fmt="%.17g", delimiter=",")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for v in ("plain", "bom"):
        assert cli.main(["estimate", "--config", str(CONFIG),
                         "--x", str(tmp_path / v / "x.csv"),
                         "--z", str(tmp_path / v / "z.csv"),
                         "--out", str(tmp_path / f"est_{v}")]) == 0
    names = sorted(p.name for p in (tmp_path / "est_plain").glob("*.csv"))
    assert names == sorted(p.name for p in (tmp_path / "est_bom").glob("*.csv"))
    assert names
    for name in names:
        assert ((tmp_path / "est_plain" / name).read_bytes()
                == (tmp_path / "est_bom" / name).read_bytes()), name


def test_estimate_malformed_csv_exit_2(tmp_path, capsys):
    cfg_path, z_csv, x_csv, _ = _noiseless_fixture(tmp_path)
    bad = tmp_path / "bad.csv"
    lines = (tmp_path / "z.csv").read_text().splitlines()
    lines[3] = lines[3].replace(",", ",abc", 1)
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = cli.main(["estimate", "--config", str(cfg_path), "--z", str(bad),
                     "--x", str(x_csv), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "row 4" in err


def _random_cells(rows, cols, seed):
    """Numbers spelled with 1 to 17 significant digits and exponents across
    the double range, subnormals and the extremes included."""
    g = np.random.default_rng(seed)
    mant = g.standard_normal((rows, cols))
    expo = g.integers(-300, 300, (rows, cols))
    digits = g.integers(1, 18, (rows, cols))
    cells = [[format(float(m) * 10.0 ** int(e), f".{int(d)}g")
              for m, e, d in zip(mr, er, dr)]
             for mr, er, dr in zip(mant, expo, digits)]
    cells[0][0], cells[1][-1] = "5e-324", "-1.7976931348623157e308"
    cells[2][0] = "0.1"
    return cells


@pytest.fixture()
def text_reads(monkeypatch):
    """The paths that `read_matrix_csv` has read through the text path."""
    paths, parse = [], csvio._parse_cells
    monkeypatch.setattr(csvio, "_parse_cells",
                        lambda path, text: paths.append(path) or parse(path, text))
    return paths


@pytest.mark.parametrize("header, newline, blank_lines", [
    (True, "\n", False), (False, "\n", False), (True, "\r\n", True),
    (False, "\r\n", False), (True, "\n", True)])
def test_read_matrix_csv_grid_matches_cell_parser(tmp_path, text_reads, header,
                                                  newline, blank_lines):
    cells = _random_cells(400, 3, seed=len(newline) + 2 * header)
    lines = [",".join(row) for row in cells]
    if blank_lines:
        lines[5:5] = ["", ""]
        lines.append("")
    if header:
        lines.insert(0, "col_1,col_2,col_3")
    text = newline.join(lines) + newline
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    got = read_matrix_csv(path)
    assert text_reads == []  # streamed by numpy
    loop = csvio._parse_cells(path, text)
    assert loop.shape == (400, 3)
    assert got.tobytes() == loop.tobytes() and got.dtype == loop.dtype


@pytest.mark.parametrize("text, expected", [
    ('"1.5",2\n3,4\n', [[1.5, 2.0], [3.0, 4.0]]),          # quoted cells
    ('1,2\n"3",4\n', [[1.0, 2.0], [3.0, 4.0]]),            # quoted later
    ("1,2\n  \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),          # blank row
    ("1,2\n,\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),           # empty cells
    ("1_0,2\n3,4\n", [[10.0, 2.0], [3.0, 4.0]]),           # Python float syntax
])
def test_read_matrix_csv_falls_back_to_cell_parser(tmp_path, text_reads, text,
                                                   expected):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    np.testing.assert_array_equal(read_matrix_csv(path), np.array(expected))
    assert text_reads == [path]


@pytest.mark.parametrize("text", ["a,b\r1,2\r3,4\r", " , \n1,2\n3,4\n"],
                         ids=["bare-cr-rows", "blank-first-row"])
def test_read_matrix_csv_streams_unusual_first_lines(tmp_path, text_reads, text):
    # readline and csv split bare CRs alike, and a blank first record is
    # skipped as a header by the stream and as blank by the text path
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    np.testing.assert_array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])
    assert text_reads == []


@pytest.mark.parametrize("text, message", [
    ("", "no data rows"),
    ("col_1,col_2\n\n", "header but no data rows"),
    ("col_1,col_2\n1,2\n3,4,5\n", "row 3 has 3 fields, expected 2"),
    ("1,2\nabc,4\n", "row 2, column 1: could not parse 'abc'"),
    ("col_1,col_2\n1,2\n3, inf\n", "row 3, column 2: non-finite value 'inf'"),
    ("1,2\n\nnan,4\n", "row 3, column 1: non-finite value 'nan'"),
    ("col_1,col_2\n1,2\n\n3,4,5\n", "row 4 has 3 fields, expected 2"),
    pytest.param(b"col_1,col_2\n1,2\n3,4\xe9\n",
                 "row 3: byte 0xe9 is not UTF-8", id="not-utf8"),
    pytest.param(b"1,2\n" * 3000 + b"3,\xe94\n",
                 "row 3001: byte 0xe9 is not UTF-8", id="not-utf8-past-8k"),
    pytest.param(b"\xef\xbb\xbf1,2\n\xe9,4\n",
                 "row 2: byte 0xe9 is not UTF-8", id="bom-then-not-utf8"),
])
def test_read_matrix_csv_messages(tmp_path, text, message):
    path = tmp_path / "m.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with pytest.raises(ConfigError) as err:
        read_matrix_csv(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("body", [b"1,2\n3,4\n", b"col_1,col_2\n1,2\n3,4\n"],
                         ids=["headerless", "header"])
def test_read_matrix_csv_drops_byte_order_mark(tmp_path, text_reads, body):
    # the mark must not glue itself to the first cell and make a header of
    # the first data row; numpy streams the file as well
    path = tmp_path / "m.csv"
    path.write_bytes(b"\xef\xbb\xbf" + body)
    np.testing.assert_array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])
    assert text_reads == []


NUMBERS = st.one_of(st.integers(-10**6, 10**6).map(str),
                    st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.floats(allow_nan=False, allow_infinity=False).map(
                        lambda x: format(x, ".17g")))
ODD_CELLS = ["nan", "inf", "-inf", "1e999", "1_0", '"1.5"', '"1,5"', "abc",
             "", "  ", " 2.5 ", "\t-3"]
ODD_RECORDS = ["", "  ", "\t", " , ", ",", '"a",b', '"1.5",2', "x, ", "a b"]
# departures from a plain grid, a file taking at most two of them
TWISTS = ("odd cell", "odd record", "ragged", "mixed line breaks",
          "no final line break", "byte-order mark", "not UTF-8", "long")


@st.composite
def matrix_files(draw):
    """CSV files near the edge of what numpy streams: a header or none; LF,
    CRLF and bare-CR rows; quoted, blank, non-finite and odd cells; blank,
    whitespace-only and quoted records, also first; ragged rows; a
    byte-order mark; a byte that is not UTF-8, also past the first 8 KiB."""
    width = draw(st.integers(1, 3))
    twists = draw(st.sets(st.sampled_from(TWISTS), max_size=2))
    rows = [draw(st.lists(NUMBERS, min_size=width, max_size=width))
            for _ in range(draw(st.integers(0, 4)))]
    if "odd cell" in twists and rows:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(ODD_CELLS))
    if "ragged" in twists and rows:
        draw(st.sampled_from(rows)).append("1")
    lines = [",".join(row) for row in rows]
    if "long" in twists:  # the rest of the file starts past the first 8 KiB
        lines[:0] = [",".join(["0.125"] * width)] * 1400
    if draw(st.booleans()):
        lines.insert(0, ",".join(f"col_{j + 1}" for j in range(width)))
    if "odd record" in twists:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(ODD_RECORDS)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) if "mixed line breaks" in twists
            else newline for _ in lines]
    if "no final line break" in twists and ends:
        ends[-1] = ""
    data = "".join(map(str.__add__, lines, ends)).encode("utf-8")
    if "byte-order mark" in twists:
        data = b"\xef\xbb\xbf" + data
    if "not UTF-8" in twists:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xe9", b"\xff", b"\x80"])) + data[at:]
    return data


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=matrix_files())
@example(data=b'"1.5",2\n3,4\n')             # a quoted number in the first row
@example(data=b"a,b\r1,2\r3,4\r")             # bare CR, in the first line too
@example(data=b"1,2\r\n3,4\r5,6\n")           # bare CR in the body only
@example(data=b"col_1,col_2\n")               # a header with no data rows
@example(data=b"col_1,col_2\r\n\r\n  \r\n")   # and blank records after it
@example(data=b"1,2\n" * 3000 + b"3,\xe94\n")  # not UTF-8 past the first 8 KiB
def test_read_matrix_csv_stream_matches_text_path(tmp_path, data):
    # the one-pass read returns what a whole-text read and the cell parser
    # return, bit for bit, or raises the same message, and warns of nothing
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    try:
        want = csvio._parse_cells(path, data.decode("utf-8-sig"))
    except UnicodeDecodeError as exc:
        row = exc.object.count(b"\n", 0, exc.start) + 1
        want = f"{path}: row {row}: byte 0x{exc.object[exc.start]:02x} is not UTF-8"
    except ConfigError as exc:
        want = str(exc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = read_matrix_csv(path)
        except ConfigError as exc:
            got = str(exc)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray), got
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())


def test_read_matrix_csv_memory_is_a_few_file_sizes(tmp_path):
    # the rows stream from the file into numpy: no copy of the text is held
    path = tmp_path / "big.csv"
    write_matrix_csv(path, np.random.default_rng(7).standard_normal((20_000, 2)))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        got = read_matrix_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (20_000, 2)
    assert peak <= 0.75 * size, (peak, size)


def _estimate_peak(tmp_path, n):
    """tracemalloc's peak over `cmd_estimate` on an n-row X and Z of
    configs/default.yaml, and the bytes of X and Z as arrays."""
    run = load_config(CONFIG)
    g = np.random.default_rng(n)
    x = 3.0 * g.standard_normal((n, run.model.p))  # well above sigma_delta2
    paths = tmp_path / f"x{n}.csv", tmp_path / f"z{n}.csv"
    write_matrix_csv(paths[0], x)
    write_matrix_csv(paths[1], x @ run.simulation.B_seed + g.standard_normal((n, run.model.q)))
    out = cli.Outputs(tmp_path / f"o{n}")
    tracemalloc.start()
    try:
        assert cli.cmd_estimate(run, paths[1], paths[0], out) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, 8 * n * (run.model.p + run.model.q)


def test_estimate_memory_is_linear_in_n(tmp_path):
    # X and Z as arrays, and loadtxt's growth slack on the one being read
    (peak, _), (peak2, data2) = (_estimate_peak(tmp_path, n) for n in (20_000, 40_000))
    assert 1.8 <= peak2 / peak <= 2.2, (peak, peak2)
    assert peak2 <= 1.25 * data2, (peak2, data2)


def test_simulate_memory_is_a_few_times_its_outputs(tmp_path):
    # replications are drawn and solved a chunk at a time: besides the scaled
    # errors and losses, the peak holds the covariance's centred copy of the
    # errors and one chunk's temporaries
    run = load_config(CONFIG).with_fields({"simulation.reps": 8000})
    plan = montecarlo.replication_plan(run, run.simulation.estimators)
    tracemalloc.start()
    try:
        summary = run_plan(plan)
        assert np.isfinite(summary.cov_empirical).all()
        write_matrix_csv(tmp_path / "losses.csv", summary.losses, summary.labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = summary.errors.nbytes + summary.losses.nbytes
    assert summary.rep_count == plan.reps
    assert peak <= 2.5 * outputs, (peak, outputs)


def _traced_peak(fn):
    """fn()'s result and tracemalloc's peak over it."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_marginal_memory_is_its_outputs():
    # a replication adds its scaled errors and losses and the covariance's
    # centred copy of its errors; a chunk's draws and temporaries do not grow
    def summary_with_cov(plan):
        summary = run_plan(plan)
        assert np.isfinite(summary.cov_empirical).all()
        return summary

    peaks, outputs = [], []
    for reps in (4000, 16_000):
        run = load_config(CONFIG).with_fields({"simulation.reps": reps})
        plan = montecarlo.replication_plan(run, run.simulation.estimators)
        summary, peak = _traced_peak(lambda: summary_with_cov(plan))
        assert summary.rep_count == reps
        peaks.append(peak)
        outputs.append(summary.errors.nbytes + summary.losses.nbytes)
    assert peaks[1] - peaks[0] <= 2 * (outputs[1] - outputs[0]), (peaks, outputs)


def test_score_cov_marginal_memory_is_three_scores():
    # a draw adds its score, and the standard error's column of products
    # and np.var's centred copy of it; a chunk's X'X and X'Z do not grow
    run = load_config(CONFIG)
    cfg, B = score_cov_model(run)
    key = (run.simulation.master_seed, STREAMS["score_cov"])
    low, high = (_traced_peak(lambda: estimate_score_cov(cfg, B, reps, key))[1]
                 for reps in (4000, 16_000))
    per_score = (high - low) / (16_000 - 4000) / (8 * cfg.p * cfg.q)
    assert per_score <= 3.5, per_score


@pytest.mark.parametrize("rows", [20_000, 80_000])
def test_write_matrix_csv_memory_does_not_grow_with_rows(tmp_path, rows):
    # each row is formatted and written on its own
    arr = np.random.default_rng(rows).standard_normal((rows, 4))
    tracemalloc.start()
    try:
        write_matrix_csv(tmp_path / "m.csv", arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 1024, peak


def test_matrix_csv_row_template_matches_fmt(tmp_path):
    # the row template writes each number exactly as fmt, cell by cell,
    # and a header row as the csv module would
    arr = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                    [0.1, 3.0, -2.0], [1e16, 0.0, -1.7976931348623157e308],
                    [2.5e-308, 1 / 3, 123456789.0]])
    path = tmp_path / "m.csv"
    write_matrix_csv(path, arr, header=("UE", "B2", "B3"))
    lines = ["UE,B2,B3", *(",".join(format(x, ".17g") for x in row)
                           for row in arr.tolist())]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    plain = tmp_path / "plain.csv"
    write_matrix_csv(plain, arr)
    assert plain.read_bytes() == ("\n".join(["col_1,col_2,col_3", *lines[1:]])
                                  + "\n").encode()
    rows = tmp_path / "rows.csv"
    csvio.write_rows_csv(rows, ["UE", "B2", "B3"], arr.tolist())
    assert rows.read_bytes() == path.read_bytes()


def _python(args, env_extra=None, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter run with `args`, eivreg importable and the
    variables of `env_extra` set, its output captured."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]),
        **(env_extra or {})}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, **kwargs)


def test_cli_import_leaves_out_the_process_pool():
    # only a run with more than one chunk needs concurrent.futures
    code = ("import sys, eivreg.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    assert _python(["-c", code], check=True).stdout.strip() == "[]"


def test_pooled_simulate_leaves_out_multiprocessing(tmp_path):
    # the pool's workers are threads: a pooled draw starts no process
    path = tmp_path / "c.yaml"
    _write_config(path, error_family="shifted-exponential")
    argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "o"),
            "--workers", "2", "--reps", "200"]
    code = (f"import sys; from eivreg import cli; code = cli.main({argv!r}); "
            "print(code, 'concurrent.futures.thread' in sys.modules, "
            "'multiprocessing' in sys.modules)")
    assert _python(["-c", code], check=True).stdout.split() == ["0", "True", "False"]


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # at p = q = 16 the covariance blocks are 256x256, large enough that
    # OpenBLAS splits a reduction over its threads: every CSV of simulate,
    # law, adr and efficiency must be the same at one and at two BLAS
    # threads.  On a one-core machine OpenBLAS runs one thread at either
    # setting, so there this test cannot show anything.
    p = q = 16
    g = np.random.default_rng(16)
    doc = {"model": {"n": 400, "p": p, "q": q, "sigma_eps2": 2.0,
                     "sigma_delta2": 0.5, "sigma_psi2": 0.5,
                     "error_family": "shifted-exponential",
                     "M": {"kind": "uniform", "low": -4.0, "high": 4.0, "seed": 1848}},
           "restriction": {"R1": g.standard_normal((2, p)).tolist(),
                           "R2": g.standard_normal((q, 2)).tolist(),
                           "theta": [[0.3, 0.1], [0.0, 0.2]],
                           "theta0": [[0.9, 0.0], [0.0, 0.5]]},
           "simulation": {"master_seed": 7, "reps": 200},
           "score_cov": {"n": 400, "reps": 2},
           "risk": {"weight": "identity", "q0": "B2", "grid": 5}}
    path = tmp_path / "c16.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    commands = ("simulate", "law", "adr", "efficiency")
    for threads in ("1", "2"):
        out = tmp_path / threads
        code = (f"from eivreg import cli; print(*[cli.main([cmd, '--config', "
                f"{str(path)!r}, '--out', {str(out)!r} + '/' + cmd, '--workers', "
                f"'1']) for cmd in {commands!r}])")
        env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        run = _python(["-c", code], env, check=True)
        assert run.stdout.splitlines()[-1] == "0 0 0 0"
    one, two = (sorted(f.relative_to(tmp_path / t)
                       for f in (tmp_path / t).rglob("*.csv")) for t in ("1", "2"))
    assert one == two and len(one) > 10
    differ = [str(f) for f in one
              if (tmp_path / "1" / f).read_bytes() != (tmp_path / "2" / f).read_bytes()]
    assert differ == []


def test_pooled_simulate_draws_the_design_as_often_as_one_worker(tmp_path,
                                                                monkeypatch):
    # the row sampler draws M once and its pool tasks share it
    path = tmp_path / "c.yaml"
    _write_config(path, error_family="shifted-exponential")
    rows = DesignRule.rows
    calls, opened = [], record_pools(monkeypatch)
    monkeypatch.setattr(DesignRule, "rows",
                        lambda self, n, p: calls.append(n) or rows(self, n, p))
    counts = []
    for workers in (1, 2):
        calls.clear()
        assert cli.main(["simulate", "--config", str(path), "--out",
                         str(tmp_path / str(workers)), "--workers", str(workers),
                         "--reps", "256"]) == 0
        counts.append(len(calls))
    assert opened == [2]
    assert counts[0] == counts[1]


def _cap_address_space():
    """Cap the address space at 4 GiB: a larger allocation then fails at once,
    whatever the machine's overcommit policy."""
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def test_n_beyond_memory_exits_2_naming_the_field(tmp_path):
    # the 10**10 x 2 design takes 160 GB; one BLAS thread keeps the child small
    proc = _python(["-m", "eivreg.cli", "law", "--config", str(CONFIG),
                    "--out", str(tmp_path / "o"), "--n", "10000000000"],
                   preexec_fn=_cap_address_space,
                   env_extra={"OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 2
    assert proc.stderr == ("error: field 'model.n' = 10000000000 needs a "
                           "10000000000x2 design M, more than memory holds\n")


def test_estimate_shape_mismatch_exit_2(tmp_path, capsys):
    cfg_path, z_csv, x_csv, _ = _noiseless_fixture(tmp_path)
    short, wide = tmp_path / "short.csv", tmp_path / "wide.csv"
    write_matrix_csv(short, np.zeros((10, 2)))
    write_matrix_csv(wide, np.ones((400, 3)))
    for z, x, message in ((short, x_csv, "Z has 10 rows but X has 400"),
                          (z_csv, wide, "expected X with 2 and Z with 2 "
                                        "columns, got 3 and 2")):
        code = cli.main(["estimate", "--config", str(cfg_path), "--z", str(z),
                         "--x", str(x), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_config_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("model: {n: 100}\n", encoding="utf-8")
    code = cli.main(["law", "--config", str(path), "--out",
                     str(tmp_path / "o")])
    assert code == 2


def test_numerical_failure_exit_3(tmp_path, capsys):
    path = tmp_path / "hopeless.yaml"
    # flat design with no latent variance: the attenuation correction is at
    # its breakdown point and the replication engine trips the exclusion cap
    _write_config(path, n=120, sigma_delta2=1.0, sigma_psi2=0.0,
                  M={"kind": "uniform", "low": -0.05, "high": 0.05, "seed": 3})
    code = cli.main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "o"), "--reps", "60", "--workers", "1"])
    assert code == 3


def test_exception_classes_are_exit_codes():
    # a ConfigError is the ValueError of a document, option or input file
    assert issubclass(ConfigError, ValueError)
    assert not issubclass(EivregError, ValueError)


@pytest.mark.parametrize("error, code", [
    (EivregError("singular"), 3), (np.linalg.LinAlgError("singular"), 3),
    (ValueError("out of range"), 2), (ConfigError("bad field"), 2)],
    ids=["eivreg", "linalg", "value", "config"])
def test_main_exit_code_per_exception(tmp_path, config_path, monkeypatch,
                                      capsys, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_command", fail)
    assert cli.main(["law", "--config", str(config_path), "--out",
                     str(tmp_path / "o")]) == code
    prefix = "numerical failure: " if code == 3 else "error: "
    assert capsys.readouterr().err == f"{prefix}{error}\n"


def test_efficiency_grid_rows_and_header(tmp_path, config_path):
    out = tmp_path / "eff"
    code = cli.main(["efficiency", "--config", str(config_path), "--out",
                     str(out), "--workers", "1"])
    assert code == 0
    lines = (out / "efficiency.csv").read_text().splitlines()
    assert lines[0] == "scale,theta0_norm2,adr_ue,adr_re,relative_efficiency,verdict"
    assert len(lines) == 21  # header + exactly the configured 20 grid rows


def _efficiency_rows(tmp_path, doc, direction):
    """The rows `efficiency` writes for `doc`, each checked to be, bit for
    bit, the drift-free report at its scale along `direction`."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "eff"
    assert cli.main(["efficiency", "--config", str(path), "--out", str(out),
                     "--workers", "1"]) == 0
    rows = [line.split(",")
            for line in (out / "efficiency.csv").read_text().splitlines()[1:]]
    run = parse_config(doc)
    pm, lam = law_inputs(run)
    report = adr_restricted(run.risk.weight, pm, lam, run.restriction,
                            named_weight_limit(pm, run.risk.q0))
    for row in rows:
        want = report.at(float(row[0]) * direction)
        assert row[1:] == [*map(csvio.fmt, (want.theta0_norm2, want.adr_ue,
                                            want.adr_re, want.relative_efficiency)),
                           want.verdict]
    return rows


def test_efficiency_sweeps_all_ones_direction_at_zero_drift(tmp_path):
    doc = _write_config(tmp_path / "cfg.yaml")
    doc["restriction"].update(R2=[[1.0, 0.0], [0.0, 1.0]], theta=[[0.3, 0.1]],
                              theta0=[[0.0, 0.0]])
    ones = np.ones((1, 2))
    rows = _efficiency_rows(tmp_path, doc, ones / np.linalg.norm(ones))
    assert len(rows) == doc["risk"]["grid"]


def test_estimate_naive_estimator_matches_lse(tmp_path):
    run = load_config(CONFIG)
    B = make_restricted_b(run.model, run.restriction, run.simulation.B_seed)
    ds = generate(run.model, B, np.random.default_rng(1))
    write_matrix_csv(tmp_path / "x.csv", ds.X)
    write_matrix_csv(tmp_path / "z.csv", ds.Z)
    out = tmp_path / "est"
    assert cli.main(["estimate", "--config", str(CONFIG), "--z",
                     str(tmp_path / "z.csv"), "--x", str(tmp_path / "x.csv"),
                     "--out", str(out)]) == 0
    write_matrix_csv(tmp_path / "lse.csv", lse(ds.X, ds.Z))
    assert (out / "b_lse.csv").read_bytes() == (tmp_path / "lse.csv").read_bytes()


def test_adr_zero_direction_verdict(tmp_path):
    path = tmp_path / "cfg0.yaml"
    doc = _write_config(path)
    doc["restriction"]["theta0"] = [[0.0]]
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "adr"
    code = cli.main(["adr", "--config", str(path), "--out", str(out),
                     "--workers", "1"])
    assert code == 0
    lines = (out / "adr.csv").read_text().splitlines()
    assert lines[0].startswith("estimator,adr_ue,adr_re")
    for line in lines[1:]:
        assert line.endswith("RE-dominates")


def test_simulate_writes_comparison(tmp_path, config_path):
    out = tmp_path / "sim"
    code = cli.main(["simulate", "--config", str(config_path), "--out",
                     str(out), "--workers", "2"])
    assert code == 0
    verdict = (out / "verdict.txt").read_text()
    assert "law_agreement=" in verdict
    assert (out / "cov_empirical.csv").exists()
    assert (out / "compare_cov.csv").exists()
    assert read_matrix_csv(out / "cov_empirical.csv").shape == (16, 16)


@pytest.mark.parametrize("family, n", [("shifted-exponential", []),
                                       ("gaussian", ["--n", "5"])],
                         ids=["skewed", "gaussian-below-2p+q"])
def test_simulate_outputs_identical_at_1_and_2_workers(tmp_path, monkeypatch,
                                                       family, n):
    # skewed errors draw through the thread pool at 2 workers; gaussian
    # errors at n = 5 < 2p + q draw through the row sampler, in-process
    opened = record_pools(monkeypatch)
    path = tmp_path / "c.yaml"
    path.write_text(CONFIG.read_text(encoding="utf-8").replace(
        "error_family: gaussian", f"error_family: {family}"), encoding="utf-8")
    assert f"error_family: {family}" in path.read_text(encoding="utf-8")
    for reps in ("400", "65"):  # 65: one block of the seeding contract plus one
        outs = [tmp_path / reps / f"w{w}" for w in (1, 2)]
        for w, out in enumerate(outs, start=1):
            assert cli.main(["simulate", "--config", str(path), "--out", str(out),
                             "--workers", str(w), "--reps", reps, *n]) == 0
        _assert_same_csvs(*outs)
    assert opened == ([] if family == "gaussian" else [2, 2])


def _assert_same_csvs(a, b):
    """Directories `a` and `b` hold the same CSV files, at least one, byte for byte."""
    names = sorted(f.name for f in a.glob("*.csv"))
    assert names and names == sorted(f.name for f in b.glob("*.csv"))
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("config", [CONFIG, WORKLOADS / "wide.yaml",
                                    WORKLOADS / "tall.yaml"],
                         ids=["default", "wide", "tall"])
def test_law_adr_efficiency_identical_across_reruns(tmp_path, config):
    for command in ("law", "adr", "efficiency"):
        runs = [tmp_path / command / run for run in ("a", "b")]
        for out in runs:
            assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
        assert all((out / "manifest.txt").is_file() for out in runs)
        _assert_same_csvs(*runs)


@pytest.mark.parametrize("config", [CONFIG, WORKLOADS / "tall.yaml"],
                         ids=["default", "tall"])
def test_simulate_identical_at_1_and_2_workers_on_shipped_configs(tmp_path, config):
    # tall's skewed errors draw through the thread pool at 2 workers
    outs = [tmp_path / f"w{w}" for w in (1, 2)]
    for w, out in enumerate(outs, start=1):
        assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                         "--workers", str(w)]) == 0
    _assert_same_csvs(*outs)


def test_sigma_delta2_at_ch_min_exits_2_on_default_config(tmp_path, capsys):
    path = tmp_path / "delta.yaml"
    path.write_text(CONFIG.read_text(encoding="utf-8").replace(
        "sigma_delta2: 0.5", "sigma_delta2: 1.0e12"), encoding="utf-8")
    assert "sigma_delta2: 1.0e12" in path.read_text(encoding="utf-8")
    for command in ("law", "adr", "efficiency", "simulate", "verify"):
        assert cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert "field 'model.sigma_delta2'" in err and "Traceback" not in err


def test_simulate_skips_law_comparison_for_non_limit_estimators(tmp_path):
    path = tmp_path / "c.yaml"
    doc = _write_config(path)
    doc["simulation"]["estimators"] = ["LSE", "UE"]
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out),
                     "--reps", "20", "--workers", "1"]) == 0
    verdict = (out / "verdict.txt").read_text().splitlines()
    assert verdict[-1] == "law_agreement=SKIPPED (non-limit estimators present)"
    assert not (out / "compare_cov.csv").exists()


def test_adr_falls_back_to_q0_without_restricted_labels(tmp_path):
    path = tmp_path / "c.yaml"
    doc = _write_config(path)
    doc["simulation"]["estimators"] = ["LSE", "UE"]
    doc["risk"]["q0"] = "B3"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "adr"
    assert cli.main(["adr", "--config", str(path), "--out", str(out)]) == 0
    rows = (out / "adr.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["B3"]


def test_seed_override_changes_outputs(tmp_path, config_path):
    out_a, out_b, out_c = (tmp_path / x for x in ("a", "b", "c"))
    for out, seed in ((out_a, None), (out_b, None), (out_c, "555")):
        args = ["simulate", "--config", str(config_path), "--out", str(out),
                "--reps", "100", "--workers", "1"]
        if seed:
            args += ["--seed", seed]
        assert cli.main(args) == 0
    same = (out_a / "cov_empirical.csv").read_bytes()
    assert same == (out_b / "cov_empirical.csv").read_bytes()
    assert same != (out_c / "cov_empirical.csv").read_bytes()


# every subcommand, simulate at both worker counts perfbench/run.py uses, and
# verify, whose criteria draw on the pool, at both too
@pytest.mark.parametrize("command, workers", [
    ("simulate", 1), ("simulate", 2), ("law", 1), ("adr", 1),
    ("efficiency", 1), ("estimate", 1), ("verify", 1), ("verify", 2)])
def test_benchmark_arguments_are_accepted(tmp_path, command, workers):
    # the arguments perfbench/run.py passes to every command it runs
    run = load_config(CONFIG)
    argv = [command, "--config", str(CONFIG), "--out", str(tmp_path / "o"),
            "--seed", str(run.simulation.master_seed), "--workers", str(workers)]
    if command == "estimate":
        cfg = run.model.at_n(50)
        B = make_restricted_b(cfg, run.restriction, run.simulation.B_seed)
        ds = generate(cfg, B, np.random.default_rng(0))
        write_matrix_csv(tmp_path / "x.csv", ds.X)
        write_matrix_csv(tmp_path / "z.csv", ds.Z)
        argv += ["--x", str(tmp_path / "x.csv"), "--z", str(tmp_path / "z.csv")]
    assert cli.main(argv) == 0
    # the manifest lists every file the command wrote, and nothing else
    written = sorted(p.name for p in (tmp_path / "o").iterdir()
                     if p.is_file() and p.name != "manifest.txt")
    manifest = (tmp_path / "o" / "manifest.txt").read_text().splitlines()
    assert f"command={command}" in manifest
    assert f"output_paths={';'.join(written)}" in manifest


def _manifest(out) -> dict:
    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    return dict(line.split("=", 1) for line in lines)


def test_options_are_digested_with_the_document(tmp_path, config_path):
    # --reps and --n set fields of the document: the manifest digests the
    # document as run, not the file
    outs = [tmp_path / "file", tmp_path / "options"]
    for out, options in zip(outs, ([], ["--reps", "64", "--n", "4000"])):
        assert cli.main(["simulate", "--config", str(config_path), "--out", str(out),
                         "--workers", "1", *options]) == 0
    doc = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    digest = config_digest(doc)
    doc["model"]["n"] = 4000
    doc["simulation"]["reps"] = doc["score_cov"]["reps"] = 64
    assert [_manifest(out)["config_digest"] for out in outs] == [digest,
                                                                 config_digest(doc)]


def _bench_workloads() -> dict:
    """perfbench/run.py's table of the commands each workload runs."""
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("workload", ["desk", "wide", "tall"])
def test_benchmark_command_lines_digest_the_file(tmp_path, monkeypatch, workload):
    # --seed equal to the file's master_seed, as perfbench/run.py passes it,
    # leaves the document, and so the digest, as the file has them
    monkeypatch.setattr(montecarlo, "run_plan", lambda plan, workers=1: run_plan(
        replace(plan, reps=64), workers=workers))  # the digest does not see reps
    config = WORKLOADS / f"{workload}.yaml"
    doc = yaml.safe_load(config.read_text(encoding="utf-8"))
    p, q = doc["model"]["p"], doc["model"]["q"]
    data = 3.0 * np.random.default_rng(0).standard_normal((50, p + q))
    write_matrix_csv(tmp_path / "x.csv", data[:, :p])
    write_matrix_csv(tmp_path / "z.csv", data[:, p:])
    for i, cmd in enumerate(_bench_workloads()[workload]):
        out = tmp_path / str(i)
        argv = [cmd.sub, "--config", str(config), "--out", str(out),
                "--seed", str(doc["simulation"]["master_seed"]),
                "--workers", str(cmd.workers)]
        if cmd.sub == "estimate":
            argv += ["--x", str(tmp_path / "x.csv"), "--z", str(tmp_path / "z.csv")]
        assert cli.main(argv) == 0
        assert _manifest(out)["config_digest"] == config_digest(doc)


def _amplifying_config(path, n):
    """configs/default.yaml at model.n = n with a restriction that scales the
    truth B by about 1e155 / sqrt(n): B'B overflows below n = 30 or so."""
    doc = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    doc["model"]["n"] = n
    doc["restriction"] = {"R1": [[1e-5, 0.0]], "R2": [[1.0], [0.0]],
                          "theta": [[0.3]], "theta0": [[1e150]]}
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def test_n_option_checks_the_truth_b_as_the_file_does(tmp_path, capsys):
    # pytest turns a RuntimeWarning into an error
    errs = []
    for name, n, options in (("file", 20, []), ("option", 1000, ["--n", "20"])):
        config = _amplifying_config(tmp_path / f"{name}.yaml", n)
        assert cli.main(["simulate", "--config", str(config), "--out",
                         str(tmp_path / name), "--reps", "64", "--workers", "1",
                         *options]) == 2
        errs.append(capsys.readouterr().err)
    assert errs == ["error: field 'simulation.B_seed' and the restriction give a "
                    "truth B whose B'B overflows at n = 20\n"] * 2


@pytest.mark.parametrize("n", [1000, 100])
def test_overflowing_scaled_errors_exit_2(tmp_path, capsys, n):
    # the truth B passes the B'B check at n; the restricted estimators' losses
    # overflow, and at n = 100 the empirical covariance too.  verify meets
    # them in criterion 2's replications
    config = _amplifying_config(tmp_path / "c.yaml", n)
    for command in ("simulate", "verify"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(config), "--out", str(out),
                         "--reps", "64", "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: fields 'simulation.B_seed', 'restriction.R1', 'restriction.R2', "
            "'restriction.theta', 'restriction.theta0' and 'model.n' give a truth B "
            "whose scaled errors overflow double precision")
        assert len(err.splitlines()) == 1
        assert not list(out.rglob("*.csv"))


def test_adr_exits_2_on_an_overflowing_bias_cost(tmp_path, capsys):
    # theta0' F theta0 overflows at the restriction's own drift, with no numpy
    # warning on the way; the efficiency sweep's drifts stay finite
    config = _amplifying_config(tmp_path / "c.yaml", 1000)
    assert cli.main(["adr", "--config", str(config), "--out",
                     str(tmp_path / "adr")]) == 2
    assert capsys.readouterr().err == (
        "error: fields 'restriction.R1', 'restriction.R2', 'restriction.theta0' "
        "and 'risk.weight' give a drift whose bias cost overflows double precision\n")
    assert not (tmp_path / "adr" / "adr.csv").exists()
    assert cli.main(["efficiency", "--config", str(config), "--out",
                     str(tmp_path / "eff")]) == 0
    rows = (tmp_path / "eff" / "efficiency.csv").read_text().splitlines()[1:]
    assert len(rows) == 21
    assert all(math.isfinite(float(cell)) for row in rows
               for cell in row.split(",")[:-1])


def test_law_outputs_blocks_and_manifest(tmp_path, config_path):
    out = tmp_path / "law"
    code = cli.main(["law", "--config", str(config_path), "--out", str(out),
                     "--workers", "1"])
    assert code == 0
    blocks = (out / "blocks.txt").read_text()
    assert "labels=UE;B2;B3;B4" in blocks
    assert (out / "cov_1_4.csv").exists()
    assert (out / "mean_UE.csv").exists()
    mean_ue = read_matrix_csv(out / "mean_UE.csv")
    np.testing.assert_array_equal(mean_ue, np.zeros((2, 2)))
    cov11 = read_matrix_csv(out / "cov_1_1.csv")
    assert cov11.shape == (4, 4)


# configs that the exit-code rows below name, each one field (or, for a
# section of None, one section) off `_write_config`'s, or off
# configs/default.yaml's for those in SHIPPED_BASE
BAD_CONFIGS = {
    "theta_1x2": ("restriction", "theta", [[0.3, 0.1]]),
    "r1_3cols": ("restriction", "R1", [[1.0, -0.5, 0.2]]),
    "r1_rank": ("restriction", "R1", [[0.0, 0.0]]),
    "q0_b9": ("risk", "q0", "B9"),
    "weight_asym": ("risk", "weight", [[1.0, 0.5], [0.0, 1.0]]),
    "b_seed_2x3": ("simulation", "B_seed", [[1.6, 0.8, 0.1], [-0.5, 1.3, 0.2]]),
    "weight_eye": ("risk", "weight", "eye"),
    "n_empty": ("model", "n", None),
    "grid_list": ("risk", "grid", [1, 2]),
    "model_list": (None, "model", [1, 2]),
    "estimators_5": ("simulation", "estimators", 5),
    "reps_many": ("simulation", "reps", "many"),
    "estimators_dup": ("simulation", "estimators", ["UE", "UE"]),
    # R2'R2 has condition number about 4e14 although R2 has rank 2
    "r2_near_singular": (None, "restriction", {
        "R1": [[1.0, -0.5]], "R2": [[1.0, 1.0], [0.0, 1e-7]],
        "theta": [[0.3, 0.3]], "theta0": [[0.9, 0.9]]}),
    "grid_0": ("risk", "grid", 0),
    "grid_neg": ("risk", "grid", -4),
    "scale_max": ("risk", "scale_max", 3.5),
    "sim_reps_1": ("simulation", "reps", 1),
    "score_reps_0": ("score_cov", "reps", 0),
    "score_reps_1": ("score_cov", "reps", 1),
    "score_n_2": ("score_cov", "n", 2),
    "m_huge": ("model", "M", {"kind": "uniform", "low": -4.0, "high": 1.0e300,
                              "seed": 1848}),
    "delta_huge": ("model", "sigma_delta2", 1.0e12),
    "m_rank_1": ("model", "M", {"kind": "uniform", "low": 1.0, "high": 1.0,
                                "seed": 1848}),
    # an explicit 400x2 M at model.n = score_cov.n = 400
    "m_explicit_400": ("model", "M", np.random.default_rng(1848).uniform(
        -4.0, 4.0, (400, 2)).tolist()),
    # an explicit 50x2 M with score_cov.n left at 400
    "m_explicit_50": (None, "model", {
        "n": 50, "p": 2, "q": 2, "sigma_eps2": 2.0, "sigma_delta2": 0.5,
        "sigma_psi2": 0.5, "error_family": "gaussian",
        "M": np.random.default_rng(1848).uniform(-4.0, 4.0, (50, 2)).tolist()}),
    "delta_0": ("model", "sigma_delta2", 0.0),
    # variances whose squares overflow double precision
    "delta_1e300": ("model", "sigma_delta2", 1.0e300),
    "psi_1e300": ("model", "sigma_psi2", 1.0e300),
    "family_cauchy": ("model", "error_family", "cauchy"),
    "m_normal": ("model", "M", {"kind": "normal"}),
    "eps_1e300": ("model", "sigma_eps2", 1.0e300),
    "eps_neg": ("model", "sigma_eps2", -1.0),
    "p_0": ("model", "p", 0),
    "n_2": ("model", "n", 2),
    "m_explicit_2x2": ("model", "M", [[1.0, 0.0], [0.0, 1.0]]),
    "master_seed_neg": ("simulation", "master_seed", -1),
    "master_seed_2pow32": ("simulation", "master_seed", 2 ** 32),
    # a drift or a truth B whose squares overflow double precision
    "theta0_1e300": ("restriction", "theta0", [[1.0e300]]),
    "b_seed_1e300": ("simulation", "B_seed", [[1.0e300, 0.8], [-0.5, 1.3]]),
    # a misspelt section, and one whose YAML value is a date
    "section_misspelt": (None, "simulaton", {"reps": 10}),
    "section_date": (None, "notes", datetime.date(2026, 10, 20)),
    "estimators_lse": ("simulation", "estimators", ["LSE"]),
    "estimators_b9": ("simulation", "estimators", ["UE", "B9"]),
    "r1_nan": ("restriction", "R1", [[math.nan, -0.5]]),
    "r2_missing": (None, "restriction", {"R1": [[1.0, -0.5]], "theta": [[0.3]]}),
    "score_n_2pow61": ("score_cov", "n", 2 ** 61),
    "score_reps_1e10": ("score_cov", "reps", 10_000_000_000),
    # M by 2^k and the three variances by 4^k: the score covariance, which
    # scales by 2^(4k), overflows from k = 255
    **{f"scaled_{k}": (None, "model", {
        "n": 400, "p": 2, "q": 2, "sigma_eps2": math.ldexp(2.0, 2 * k),
        "sigma_delta2": math.ldexp(0.5, 2 * k),
        "sigma_psi2": math.ldexp(0.5, 2 * k), "error_family": "gaussian",
        "M": {"kind": "uniform", "low": math.ldexp(-4.0, k),
              "high": math.ldexp(4.0, k), "seed": 1848}}) for k in (254, 255, 256)},
}
# the shipped configuration's variances near the top of double precision
SHIPPED_BASE = {"delta_1e300", "psi_1e300", "eps_1e300"}


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad option values this way
        return exc.code


# (command, options, exit code, a part of stderr), each with an explicit id:
# the command and the option or config name, so inserting a case or rewording
# a message renames no case.
EXIT_CASES = [
    pytest.param("simulate", ["--workers", "0"], 2, "--workers",
                 id="simulate-workers-0"),
    pytest.param("simulate", ["--workers", "-3"], 2, "--workers",
                 id="simulate-workers-neg"),
    pytest.param("law", ["--workers", "0"], 2, "--workers", id="law-workers-0"),
    pytest.param("simulate", ["--reps", "1", "--workers", "1"], 2,
                 "--reps: must be at least 2, got 1", id="simulate-reps-1"),
    pytest.param("simulate", ["--reps", "4", "--workers", "1"], 0, "",
                 id="simulate-reps-4"),
    pytest.param("law", ["--out", "{tmp}/file/o"], 2, "file/o", id="law-out_under_file"),
    pytest.param("estimate", ["--z", "{tmp}/z_inf.csv", "--x", "{tmp}/x.csv"], 2,
                 "z_inf.csv: row 3, column 2: non-finite value 'inf'",
                 id="estimate-z_inf"),
    pytest.param("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x_nan.csv"], 2,
                 "x_nan.csv: row 3, column 2: non-finite value 'nan'",
                 id="estimate-x_nan"),
    pytest.param("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv",
                              "--out", "{tmp}/blocked"], 2,
                 "cannot write {tmp}/blocked/b1.csv", id="estimate-out_blocked"),
    pytest.param("law", ["--out", "{tmp}/blocked"], 2,
                 "cannot write {tmp}/blocked/score_cov.csv", id="law-out_blocked"),
    pytest.param("law", ["--config", "{tmp}/theta_1x2.yaml"], 2,
                 "restriction: theta must be 1x1, got (1, 2)", id="law-theta_1x2"),
    pytest.param("law", ["--config", "{tmp}/r1_3cols.yaml"], 2,
                 "fields 'R1' and 'R2' must be r1x2 and 2xr2 for R1 B R2 at p=2, q=2, "
                 "got (1, 3) and (2, 1)", id="law-r1_3cols"),
    pytest.param("adr", ["--config", "{tmp}/r1_rank.yaml"], 2,
                 "restriction: R1 must have full row rank", id="adr-r1_rank"),
    pytest.param("efficiency", ["--config", "{tmp}/q0_b9.yaml"], 2,
                 "field 'q0' must be one of B2, B3, B4, got 'B9'",
                 id="efficiency-q0_b9"),
    pytest.param("adr", ["--config", "{tmp}/weight_asym.yaml"], 2,
                 "field 'weight' must be a symmetric positive definite 2x2 matrix",
                 id="adr-weight_asym"),
    pytest.param("simulate", ["--config", "{tmp}/weight_asym.yaml", "--workers", "1"],
                 2, "field 'weight' must be a symmetric positive definite 2x2 matrix",
                 id="simulate-weight_asym"),
    pytest.param("simulate", ["--seed", "-10", "--workers", "1"], 2,
                 "--seed: must be at least 0, got -10", id="simulate-seed-neg"),
    pytest.param("law", ["--config", "{tmp}/b_seed_2x3.yaml"], 2,
                 "field 'B_seed' must be 2x2 at p=2, q=2, got (2, 3)",
                 id="law-b_seed_2x3"),
    pytest.param("adr", ["--config", "{tmp}/b_seed_2x3.yaml"], 2,
                 "field 'B_seed' must be 2x2 at p=2, q=2, got (2, 3)",
                 id="adr-b_seed_2x3"),
    pytest.param("simulate", ["--config", "{tmp}/b_seed_2x3.yaml", "--workers", "1"], 2,
                 "field 'B_seed' must be 2x2 at p=2, q=2, got (2, 3)",
                 id="simulate-b_seed_2x3"),
    pytest.param("law", ["--config", "{tmp}/weight_eye.yaml"], 2,
                 "field 'weight' must be 'identity' or a matrix, got 'eye'",
                 id="law-weight_eye"),
    pytest.param("law", ["--config", "{tmp}/n_empty.yaml"], 2,
                 "field 'model.n' must be an integer, got None", id="law-n_empty"),
    pytest.param("efficiency", ["--config", "{tmp}/grid_list.yaml"], 2,
                 "field 'risk.grid' must be an integer, got [1, 2]",
                 id="efficiency-grid_list"),
    pytest.param("law", ["--config", "{tmp}/model_list.yaml"], 2,
                 "section 'model' must be a mapping, got [1, 2]", id="law-model_list"),
    pytest.param("simulate", ["--config", "{tmp}/estimators_5.yaml", "--workers", "1"],
                 2, "field 'simulation.estimators' must be a list of labels, got 5",
                 id="simulate-estimators_5"),
    pytest.param("simulate", ["--config", "{tmp}/reps_many.yaml", "--workers", "1"], 2,
                 "field 'simulation.reps' must be an integer, got 'many'",
                 id="simulate-reps_many"),
    pytest.param("law", ["--config", "{tmp}/estimators_dup.yaml"], 2,
                 "field 'simulation.estimators' repeats a label, got ['UE', 'UE']",
                 id="law-estimators_dup"),
    pytest.param("simulate",
                 ["--config", "{tmp}/estimators_dup.yaml", "--workers", "1"], 2,
                 "field 'simulation.estimators' repeats a label, got ['UE', 'UE']",
                 id="simulate-estimators_dup"),
    pytest.param("law", ["--config", "{tmp}/r2_near_singular.yaml"], 2,
                 "restriction: R2 must have full column rank",
                 id="law-r2_near_singular"),
    pytest.param("estimate", ["--config", "{tmp}/r2_near_singular.yaml",
                              "--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"], 2,
                 "restriction: R2 must have full column rank",
                 id="estimate-r2_near_singular"),
    # out-of-range run settings fail in parse_config under every command,
    # not only under the one that uses them
    pytest.param("law", ["--config", "{tmp}/grid_0.yaml"], 2,
                 "field 'risk.grid' must be at least 2, got 0", id="law-grid_0"),
    pytest.param("efficiency", ["--config", "{tmp}/grid_0.yaml"], 2,
                 "field 'risk.grid' must be at least 2, got 0", id="efficiency-grid_0"),
    pytest.param("law", ["--config", "{tmp}/grid_neg.yaml"], 2,
                 "field 'risk.grid' must be at least 2, got -4", id="law-grid_neg"),
    pytest.param("efficiency", ["--config", "{tmp}/grid_neg.yaml"], 2,
                 "field 'risk.grid' must be at least 2, got -4",
                 id="efficiency-grid_neg"),
    # a field the risk section no longer has
    pytest.param("law", ["--config", "{tmp}/scale_max.yaml"], 2,
                 "unknown risk fields: ['scale_max']", id="law-scale_max"),
    pytest.param("efficiency", ["--config", "{tmp}/scale_max.yaml"], 2,
                 "unknown risk fields: ['scale_max']", id="efficiency-scale_max"),
    pytest.param("law", ["--config", "{tmp}/sim_reps_1.yaml"], 2,
                 "field 'simulation.reps' must be at least 2, got 1",
                 id="law-sim_reps_1"),
    pytest.param("simulate", ["--config", "{tmp}/sim_reps_1.yaml", "--workers", "1"], 2,
                 "field 'simulation.reps' must be at least 2, got 1",
                 id="simulate-sim_reps_1"),
    pytest.param("law", ["--config", "{tmp}/score_reps_0.yaml"], 2,
                 "field 'score_cov.reps' must be at least 2, got 0",
                 id="law-score_reps_0"),
    pytest.param("verify", ["--config", "{tmp}/score_reps_0.yaml", "--workers", "1"], 2,
                 "field 'score_cov.reps' must be at least 2, got 0",
                 id="verify-score_reps_0"),
    # options a command never reads are not accepted
    pytest.param("law", ["--reps", "1"], 2, "unrecognized arguments: --reps 1",
                 id="law-reps-unrecognized"),
    pytest.param("adr", ["--reps", "10"], 2, "unrecognized arguments: --reps 10",
                 id="adr-reps-unrecognized"),
    pytest.param("estimate", ["--n", "10", "--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"],
                 2, "unrecognized arguments: --n 10", id="estimate-n-unrecognized"),
    pytest.param("law", ["--config", "{tmp}/score_n_2.yaml"], 2,
                 "field 'score_cov.n' must be at least 3, got 2", id="law-score_n_2"),
    pytest.param("estimate", ["--config", "{tmp}/score_n_2.yaml",
                              "--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"], 2,
                 "field 'score_cov.n' must be at least 3, got 2",
                 id="estimate-score_n_2"),
    # the design and sigma_delta2 against it are checked when the
    # configuration is read, with no numpy warning on the way
    *[pytest.param(cmd, ["--config", "{tmp}/m_huge.yaml", "--workers", "1"], 2,
                   "field 'model.M' is too large: M'M overflows double precision",
                   id=f"{cmd}-m_huge")
      for cmd in ("law", "adr", "efficiency", "simulate", "verify")],
    # an explicit design cannot be redrawn at score_cov.n
    *[pytest.param(cmd, ["--config", "{tmp}/m_explicit_50.yaml", "--workers", "1"], 2,
                   "field 'score_cov.n' must equal model.n = 50 when 'model.M' is an "
                   "explicit matrix, got 400", id=f"{cmd}-m_explicit_50")
      for cmd in ("law", "adr", "efficiency", "simulate", "verify")],
    pytest.param("estimate", ["--config", "{tmp}/m_explicit_50.yaml",
                              "--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"], 2,
                 "field 'score_cov.n' must equal model.n = 50 when 'model.M' is an "
                 "explicit matrix, got 400", id="estimate-m_explicit_50"),
    *[pytest.param(cmd, ["--config", "{tmp}/delta_huge.yaml", "--workers", "1", *data],
                   2, "field 'model.sigma_delta2' = 1000000000000.0 reaches ch_min(sigma)",
                   id=f"{cmd}-delta_huge")
      for cmd, data in (("law", []), ("adr", []), ("efficiency", []),
                        ("simulate", []), ("verify", []),
                        ("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"]))],
    pytest.param("law", ["--config", "{tmp}/m_rank_1.yaml"], 2,
                 "field 'model.M' does not have full column rank", id="law-m_rank_1"),
    pytest.param("estimate", ["--config", "{tmp}/m_rank_1.yaml",
                              "--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"], 2,
                 "field 'model.M' does not have full column rank",
                 id="estimate-m_rank_1"),
    # an explicit design cannot be redrawn at another n: verify's criteria
    # move the model, and --n sets model.n, which M's rows no longer match
    pytest.param("verify", ["--config", "{tmp}/m_explicit_400.yaml", "--workers", "1"],
                 2, "field 'model.M' is an explicit matrix with 400 rows and cannot "
                 "be redrawn at n = 500", id="verify-m_explicit_400"),
    pytest.param("law", ["--config", "{tmp}/m_explicit_400.yaml", "--n", "60"], 2,
                 "field 'model.M' must be 60x2, got (400, 2)",
                 id="law-m_explicit_400-n-60"),
    # an all-zero X without measurement error fails the attenuation check
    pytest.param("estimate", ["--config", "{tmp}/delta_0.yaml",
                              "--z", "{tmp}/z.csv", "--x", "{tmp}/x_zero.csv"], 3,
                 "numerical failure: attenuation correction breaks down: ch_min(sigma_d)",
                 id="estimate-delta_0-x_zero"),
    pytest.param("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x_huge.csv"], 2,
                 "X'X or X'Z overflows: the data are too large in magnitude for double "
                 "precision", id="estimate-x_huge"),
    # a variance near the top of double precision: no numpy warning on the way
    *[pytest.param(cmd, ["--config", "{tmp}/delta_1e300.yaml", "--workers", "1", *data],
                   2, "field 'model.sigma_delta2' = 1e+300 reaches ch_min(sigma)",
                   id=f"{cmd}-delta_1e300")
      for cmd, data in (("law", []), ("adr", []), ("efficiency", []),
                        ("simulate", []), ("verify", []),
                        ("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"]))],
    *[pytest.param(cmd, ["--config", "{tmp}/psi_1e300.yaml", "--workers", "1", *data],
                   0, "", id=f"{cmd}-psi_1e300")
      for cmd, data in (("law", []), ("adr", []), ("efficiency", []),
                        ("simulate", []),
                        ("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"]))],
    # the checks run without a warning there, and criteria 2 to 4 fail
    pytest.param("verify", ["--config", "{tmp}/psi_1e300.yaml", "--workers", "1"], 4, "",
                 id="verify-psi_1e300"),
    # one draw has no standard error for criterion 4 to measure against
    *[pytest.param(cmd, ["--config", "{tmp}/score_reps_1.yaml", "--workers", "1"], 2,
                   "field 'score_cov.reps' must be at least 2, got 1",
                   id=f"{cmd}-score_reps_1")
      for cmd in ("law", "verify")],
    *[pytest.param(cmd, ["--config", f"{{tmp}}/{name}.yaml", *data], 2, message,
                   id=f"{cmd}-{name}")
      for name, message in (
          ("family_cauchy", "field 'model.error_family' must be one of gaussian, "
                            "shifted-exponential, scaled-t, got 'cauchy'"),
          ("m_normal", "field 'M.kind' must be 'uniform', got 'normal'"))
      for cmd, data in (("law", []),
                        ("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"]))],
    # Z alone near the top of double precision: the exact sampler keeps X's
    # block exact and the law comparison's norms do not overflow
    *[pytest.param(cmd, ["--config", "{tmp}/eps_1e300.yaml", "--workers", "1", *data],
                   0, "", id=f"{cmd}-eps_1e300")
      for cmd, data in (("law", []), ("adr", []), ("efficiency", []),
                        ("simulate", []),
                        ("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"]))],
    *[pytest.param(cmd, ["--config", f"{{tmp}}/{name}.yaml", *data], 2, message,
                   id=f"{cmd}-{name}")
      for name, message in (
          ("eps_neg", "field 'model.sigma_eps2' must be at least 0, got -1.0"),
          ("p_0", "field 'model.p' must be at least 1, got 0"),
          ("n_2", "field 'model.n' must be at least 3, got 2"),
          ("m_explicit_2x2", "field 'model.M' must be 400x2, got (2, 2)"),
          ("master_seed_neg",
           "field 'simulation.master_seed' must be at least 0, got -1"))
      for cmd, data in (("law", []),
                        ("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"]))],
    # rejected when the configuration is read, with no numpy warning on the way
    *[pytest.param(cmd, ["--config", f"{{tmp}}/{name}.yaml", "--workers", "1"], 2,
                   message, id=f"{cmd}-{name}")
      for name, message in (
          ("theta0_1e300", "field 'restriction.theta0' is too large: "
                           "||theta0||^2 overflows double precision"),
          ("b_seed_1e300", "field 'simulation.B_seed' and the restriction give "
                           "a truth B whose B'B overflows at n = 400"))
      for cmd in ("law", "adr", "efficiency", "simulate", "verify")],
    *[pytest.param(cmd, ["--config", f"{{tmp}}/{name}.yaml", *data], 2, message,
                   id=f"{cmd}-{name}")
      for name, message in (
          ("section_misspelt", "unknown sections: ['simulaton']"),
          ("section_date", "unknown sections: ['notes']"))
      for cmd, data in (("law", []), ("simulate", ["--workers", "1"]),
                        ("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"]))],
    pytest.param("law", ["--config", "{tmp}/estimators_lse.yaml"], 2,
                 "no law-compatible estimators configured", id="law-estimators_lse"),
    # the joint scale's edge: exit 0 with finite CSVs below, exit 2 above
    *[pytest.param(cmd, ["--config", f"{{tmp}}/scaled_{k}.yaml", "--workers", "1"],
                   code, "" if code == 0 else
                   "fields 'model.M', 'model.sigma_eps2', 'model.sigma_delta2', "
                   "'model.sigma_psi2' and 'score_cov.n' give a score covariance "
                   "that overflows double precision", id=f"{cmd}-scaled_{k}")
      for k, code in ((254, 0), (255, 2), (256, 2))
      for cmd in ("law", "adr", "efficiency", "simulate", "verify")],
    # criterion 3's absolute 0.05 line fails with Z near the top of double precision
    pytest.param("verify", ["--config", "{tmp}/eps_1e300.yaml", "--workers", "1"], 4,
                 "", id="verify-eps_1e300"),
    # a sample size whose design numpy cannot even shape
    pytest.param("law", ["--n", str(2 ** 61)], 2,
                 f"field 'model.n' = {2 ** 61} needs a {2 ** 61}x2 design M, "
                 "more than memory holds", id="law-n-2pow61"),
    pytest.param("law", ["--config", "{tmp}/score_n_2pow61.yaml"], 2,
                 f"field 'score_cov.n' = {2 ** 61} needs a {2 ** 61}x2 design M, "
                 "more than memory holds", id="law-score_n_2pow61"),
    # a config or data file that cannot be read, or a document that is no run
    pytest.param("law", ["--config", "{tmp}/absent.yaml"], 2,
                 "cannot read config {tmp}/absent.yaml", id="law-config_absent"),
    pytest.param("law", ["--config", "{tmp}/doc_list.yaml"], 2,
                 "configuration document must be a mapping", id="law-doc_list"),
    pytest.param("law", ["--config", "{tmp}/r1_nan.yaml"], 2,
                 "field 'R1' contains non-finite entries", id="law-r1_nan"),
    pytest.param("law", ["--config", "{tmp}/r2_missing.yaml"], 2,
                 "restriction section missing field 'R2'", id="law-r2_missing"),
    pytest.param("simulate", ["--config", "{tmp}/estimators_b9.yaml", "--workers", "1"],
                 2, "unknown estimator labels in config: ['B9']",
                 id="simulate-estimators_b9"),
    pytest.param("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/absent.csv"], 2,
                 "cannot read {tmp}/absent.csv", id="estimate-x_absent"),
    # a replication count whose scaled errors or score draws memory cannot hold
    *[pytest.param(cmd, ["--reps", "10000000000", "--workers", "1"], 2,
                   "field 'simulation.reps' = 10000000000 needs 10000000000x16 scaled "
                   "errors, more than memory holds", id=f"{cmd}-reps_1e10")
      for cmd in ("simulate", "verify")],
    pytest.param("verify", ["--config", "{tmp}/score_reps_1e10.yaml", "--workers", "1"],
                 2, "field 'score_cov.reps' = 10000000000 needs 10000000000x4 score "
                 "draws, more than memory holds", id="verify-score_reps_1e10"),
    # numpy splits a key word of 2^32 or more, so distinct seeds could share
    # a generator: refused in the file and as --seed, and 2^32 - 1 runs
    pytest.param("law", ["--config", "{tmp}/master_seed_2pow32.yaml"], 2,
                 "field 'simulation.master_seed' must be below 2^32, got 4294967296",
                 id="law-master_seed_2pow32"),
    pytest.param("simulate", ["--seed", str(2 ** 32), "--workers", "1"], 2,
                 "field 'simulation.master_seed' must be below 2^32, got 4294967296",
                 id="simulate-seed_2pow32"),
    pytest.param("simulate", ["--seed", str(2 ** 32 - 1), "--reps", "4", "--workers", "1"],
                 0, "", id="simulate-seed_2pow32_minus_1"),
]


@pytest.mark.parametrize("command, extra, code, message", EXIT_CASES)
def test_option_exit_codes(tmp_path, config_path, capsys, command, extra, code,
                           message):
    (tmp_path / "file").write_text("", encoding="utf-8")
    (tmp_path / "doc_list.yaml").write_text("[1, 2]\n", encoding="utf-8")
    for name in ("b1.csv", "score_cov.csv"):  # output files that cannot be written
        (tmp_path / "blocked" / name).mkdir(parents=True)
    data = np.random.default_rng(0).standard_normal((10, 2))
    write_matrix_csv(tmp_path / "z.csv", data)
    write_matrix_csv(tmp_path / "x.csv", 3.0 * data)  # well above sigma_delta2
    write_matrix_csv(tmp_path / "x_zero.csv", np.zeros_like(data))
    write_matrix_csv(tmp_path / "x_huge.csv", 1e200 * data)  # X'X overflows
    for name, bad in (("z_inf.csv", np.inf), ("x_nan.csv", np.nan)):
        cells = data.copy()
        cells[1, 1] = bad
        write_matrix_csv(tmp_path / name, cells)
    for name, (section, key, value) in BAD_CONFIGS.items():
        if f"{{tmp}}/{name}.yaml" not in extra:  # write only the one it reads
            continue
        path = tmp_path / f"{name}.yaml"
        doc = (yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
               if name in SHIPPED_BASE else _write_config(path))
        (doc if section is None else doc[section])[key] = value
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    argv = [command, "--config", str(config_path), "--out", str(tmp_path / "o"),
            *(arg.format(tmp=tmp_path) for arg in extra)]
    assert _exit_code(argv) == code
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err
    assert "Traceback" not in err
    if code == 0:  # a success writes finite numbers only
        for path in (tmp_path / "o").glob("*.csv"):
            cells = path.read_text(encoding="utf-8").replace("\n", ",").split(",")
            assert not {c.strip().lower() for c in cells} & {"nan", "inf", "-inf"}, path


def test_option_exit_case_ids_are_unique():
    # every case is named, and pytest would silently suffix a repeated id;
    # pytest's own ids hold "extra"
    ids = [getattr(case, "id", None) for case in EXIT_CASES]
    assert None not in ids and len(set(ids)) == len(ids)
    assert not [i for i in ids if "extra" in i]


@pytest.mark.parametrize("command", ["law", "simulate"])
def test_design_rank_checked_once_per_model(tmp_path, monkeypatch, command):
    # one check for each model made: at model.n and at score_cov.n
    calls = []
    matrix_rank = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank",
                        lambda *a, **kw: calls.append(a) or matrix_rank(*a, **kw))
    assert cli.main([command, "--config", str(CONFIG), "--out", str(tmp_path),
                     "--workers", "1"]) == 0
    assert len(calls) == 2


def test_estimate_reports_cross_product_overflow(tmp_path, config_path, capsys):
    # finite entries whose cross products overflow double precision
    x = np.array([[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308]])
    write_matrix_csv(tmp_path / "x.csv", x)
    write_matrix_csv(tmp_path / "z.csv", np.ones((3, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["estimate", "--config", str(config_path),
                         "--z", str(tmp_path / "z.csv"),
                         "--x", str(tmp_path / "x.csv"),
                         "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "overflow" in err
    assert "RuntimeWarning" not in err
