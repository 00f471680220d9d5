"""End-to-end CLI behaviour: exit codes, CSV formats, manifests, determinism."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from eivreg import cli, csvio
from eivreg.asymptotics import law_inputs, named_weight_limit
from eivreg.csvio import read_matrix_csv, write_matrix_csv
from eivreg.estimators import lse
from eivreg.exceptions import ConfigError
from eivreg.model import generate, make_restricted_b
from eivreg.config import load_config, parse_config
from eivreg.risk import adr_restricted, drift_direction

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"


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
    B = make_restricted_b(run.model, run.restriction, run.b_truth_seed())
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


@pytest.mark.parametrize("header, newline, blank_lines", [
    (True, "\n", False), (False, "\n", False), (True, "\r\n", True),
    (False, "\r\n", False), (True, "\n", True)])
def test_read_matrix_csv_grid_matches_cell_parser(tmp_path, header, newline,
                                                  blank_lines):
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
    loop = csvio._parse_cells(path, text)
    assert loop.shape == (400, 3)
    np.testing.assert_array_equal(csvio._parse_grid(path, text), loop)
    got = read_matrix_csv(path)
    assert got.tobytes() == loop.tobytes() and got.dtype == loop.dtype


@pytest.mark.parametrize("text, expected", [
    ('"1.5",2\n3,4\n', [[1.5, 2.0], [3.0, 4.0]]),          # quoted cells
    ("a,b\r1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),         # bare CR rows
    ("1,2\n  \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),          # blank row
    (" , \n1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),         # blank first row
    ("1_0,2\n3,4\n", [[10.0, 2.0], [3.0, 4.0]]),           # Python float syntax
])
def test_read_matrix_csv_falls_back_to_cell_parser(tmp_path, text, expected):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValueError):
        csvio._parse_grid(path, text)
    np.testing.assert_array_equal(read_matrix_csv(path), np.array(expected))


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
def test_read_matrix_csv_drops_byte_order_mark(tmp_path, body):
    # the mark must not glue itself to the first cell and make a header of
    # the first data row; the one-call grid parse reads the file as well
    path = tmp_path / "m.csv"
    path.write_bytes(b"\xef\xbb\xbf" + body)
    expected = [[1.0, 2.0], [3.0, 4.0]]
    np.testing.assert_array_equal(read_matrix_csv(path), expected)
    text = body.decode("utf-8")
    np.testing.assert_array_equal(csvio._parse_grid(path, text), expected)


def test_read_matrix_csv_memory_is_a_few_file_sizes(tmp_path):
    # the rows stream from the file into numpy: no in-memory copy of the
    # text per parsing stage
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
    assert peak <= 4 * size, (peak, size)


def test_cli_import_leaves_out_the_process_pool():
    # only a run with more than one chunk needs concurrent.futures
    code = ("import sys, eivreg.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_estimate_shape_mismatch_exit_2(tmp_path, capsys):
    cfg_path, z_csv, x_csv, _ = _noiseless_fixture(tmp_path)
    short = tmp_path / "short.csv"
    write_matrix_csv(short, np.zeros((10, 2)))
    code = cli.main(["estimate", "--config", str(cfg_path), "--z", str(short),
                     "--x", str(x_csv), "--out", str(tmp_path / "o")])
    assert code == 2


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


def test_efficiency_grid_rows_and_header(tmp_path, config_path):
    out = tmp_path / "eff"
    code = cli.main(["efficiency", "--config", str(config_path), "--out",
                     str(out), "--workers", "1"])
    assert code == 0
    lines = (out / "efficiency.csv").read_text().splitlines()
    assert lines[0] == "scale,theta0_norm2,adr_ue,adr_re,relative_efficiency,verdict"
    assert len(lines) == 21  # header + exactly the configured 20 grid rows


def test_efficiency_scale_max_rows(tmp_path):
    path = tmp_path / "cfg.yaml"
    doc = _write_config(path)
    doc["risk"].update(scale_max=3.5, grid=8)
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "eff"
    assert cli.main(["efficiency", "--config", str(path), "--out", str(out),
                     "--workers", "1"]) == 0
    rows = [line.split(",")
            for line in (out / "efficiency.csv").read_text().splitlines()[1:]]
    scales = np.linspace(0.0, 3.5, 8)
    assert [row[0] for row in rows] == [csvio.fmt(s) for s in scales]
    # each row is, bit for bit, the drift-free report at that drift
    run = parse_config(doc)
    pm, lam = law_inputs(run)
    report = adr_restricted(run.risk.weight, pm, lam, run.restriction,
                            named_weight_limit(pm, run.risk.q0))
    direction = drift_direction(run.restriction)
    for s, row in zip(scales, rows):
        want = report.at(s * direction)
        assert row[1:] == [*map(csvio.fmt, (want.theta0_norm2, want.adr_ue,
                                            want.adr_re, want.relative_efficiency)),
                           want.verdict]


def test_estimate_naive_estimator_matches_lse(tmp_path):
    run = load_config(CONFIG)
    B = make_restricted_b(run.model, run.restriction, run.b_truth_seed())
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
# section of None, one section) off the default
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
    "scale_max_neg": ("risk", "scale_max", -1.0),
    "sim_reps_1": ("simulation", "reps", 1),
    "score_reps_0": ("score_cov", "reps", 0),
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
}


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad option values this way
        return exc.code


@pytest.mark.parametrize("command, extra, code, message", [
    ("simulate", ["--workers", "0"], 2, "--workers"),
    ("simulate", ["--workers", "-3"], 2, "--workers"),
    ("law", ["--workers", "0"], 2, "--workers"),
    ("simulate", ["--reps", "1", "--workers", "1"], 2,
     "--reps: must be at least 2, got 1"),
    ("simulate", ["--reps", "4", "--workers", "1"], 0, ""),
    ("law", ["--out", "{tmp}/file/o"], 2, "file/o"),
    ("estimate", ["--z", "{tmp}/z_inf.csv", "--x", "{tmp}/x.csv"], 2,
     "z_inf.csv: row 3, column 2: non-finite value 'inf'"),
    ("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x_nan.csv"], 2,
     "x_nan.csv: row 3, column 2: non-finite value 'nan'"),
    ("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv",
                  "--out", "{tmp}/blocked"], 2, "cannot write {tmp}/blocked/b1.csv"),
    ("law", ["--out", "{tmp}/blocked"], 2,
     "cannot write {tmp}/blocked/score_cov.csv"),
    ("law", ["--config", "{tmp}/theta_1x2.yaml"], 2,
     "restriction: theta must be 1x1, got (1, 2)"),
    ("law", ["--config", "{tmp}/r1_3cols.yaml"], 2,
     "fields 'R1' and 'R2' must be r1x2 and 2xr2 for R1 B R2 at p=2, q=2, "
     "got (1, 3) and (2, 1)"),
    ("adr", ["--config", "{tmp}/r1_rank.yaml"], 2,
     "restriction: R1 must have full row rank"),
    ("efficiency", ["--config", "{tmp}/q0_b9.yaml"], 2,
     "field 'q0' must be one of B2, B3, B4, got 'B9'"),
    ("adr", ["--config", "{tmp}/weight_asym.yaml"], 2,
     "field 'weight' must be a symmetric positive definite 2x2 matrix"),
    ("simulate", ["--config", "{tmp}/weight_asym.yaml", "--workers", "1"], 2,
     "field 'weight' must be a symmetric positive definite 2x2 matrix"),
    ("simulate", ["--seed", "-10", "--workers", "1"], 2,
     "--seed: must be at least 0, got -10"),
    ("law", ["--config", "{tmp}/b_seed_2x3.yaml"], 2,
     "field 'B_seed' must be 2x2 at p=2, q=2, got (2, 3)"),
    ("adr", ["--config", "{tmp}/b_seed_2x3.yaml"], 2,
     "field 'B_seed' must be 2x2 at p=2, q=2, got (2, 3)"),
    ("simulate", ["--config", "{tmp}/b_seed_2x3.yaml", "--workers", "1"], 2,
     "field 'B_seed' must be 2x2 at p=2, q=2, got (2, 3)"),
    ("law", ["--config", "{tmp}/weight_eye.yaml"], 2,
     "field 'weight' must be 'identity' or a matrix, got 'eye'"),
    ("law", ["--config", "{tmp}/n_empty.yaml"], 2,
     "field 'model.n' must be an integer, got None"),
    ("efficiency", ["--config", "{tmp}/grid_list.yaml"], 2,
     "field 'risk.grid' must be an integer, got [1, 2]"),
    ("law", ["--config", "{tmp}/model_list.yaml"], 2,
     "section 'model' must be a mapping, got [1, 2]"),
    ("simulate", ["--config", "{tmp}/estimators_5.yaml", "--workers", "1"], 2,
     "field 'simulation.estimators' must be a list of labels, got 5"),
    ("simulate", ["--config", "{tmp}/reps_many.yaml", "--workers", "1"], 2,
     "field 'simulation.reps' must be an integer, got 'many'"),
    ("law", ["--config", "{tmp}/estimators_dup.yaml"], 2,
     "field 'simulation.estimators' repeats a label, got ['UE', 'UE']"),
    ("simulate", ["--config", "{tmp}/estimators_dup.yaml", "--workers", "1"], 2,
     "field 'simulation.estimators' repeats a label, got ['UE', 'UE']"),
    ("law", ["--config", "{tmp}/r2_near_singular.yaml"], 2,
     "restriction: R2 must have full column rank"),
    ("estimate", ["--config", "{tmp}/r2_near_singular.yaml",
                  "--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"], 2,
     "restriction: R2 must have full column rank"),
    # out-of-range run settings fail in parse_config under every command,
    # not only under the one that uses them
    ("law", ["--config", "{tmp}/grid_0.yaml"], 2,
     "field 'risk.grid' must be at least 2, got 0"),
    ("efficiency", ["--config", "{tmp}/grid_0.yaml"], 2,
     "field 'risk.grid' must be at least 2, got 0"),
    ("law", ["--config", "{tmp}/grid_neg.yaml"], 2,
     "field 'risk.grid' must be at least 2, got -4"),
    ("efficiency", ["--config", "{tmp}/grid_neg.yaml"], 2,
     "field 'risk.grid' must be at least 2, got -4"),
    ("law", ["--config", "{tmp}/scale_max_neg.yaml"], 2,
     "field 'risk.scale_max' must be positive, got -1.0"),
    ("efficiency", ["--config", "{tmp}/scale_max_neg.yaml"], 2,
     "field 'risk.scale_max' must be positive, got -1.0"),
    ("law", ["--config", "{tmp}/sim_reps_1.yaml"], 2,
     "field 'simulation.reps' must be at least 2, got 1"),
    ("simulate", ["--config", "{tmp}/sim_reps_1.yaml", "--workers", "1"], 2,
     "field 'simulation.reps' must be at least 2, got 1"),
    ("law", ["--config", "{tmp}/score_reps_0.yaml"], 2,
     "field 'score_cov.reps' must be at least 1, got 0"),
    ("verify", ["--config", "{tmp}/score_reps_0.yaml", "--workers", "1"], 2,
     "field 'score_cov.reps' must be at least 1, got 0"),
    # options a command never reads are not accepted
    ("law", ["--reps", "1"], 2, "unrecognized arguments: --reps 1"),
    ("adr", ["--reps", "10"], 2, "unrecognized arguments: --reps 10"),
    ("estimate", ["--n", "10", "--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"], 2,
     "unrecognized arguments: --n 10"),
    ("law", ["--config", "{tmp}/score_n_2.yaml"], 2,
     "field 'score_cov.n' must be at least 3, got 2"),
    ("estimate", ["--config", "{tmp}/score_n_2.yaml",
                  "--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"], 2,
     "field 'score_cov.n' must be at least 3, got 2"),
    # the design and sigma_delta2 against it are checked when the
    # configuration is read, with no numpy warning on the way
    *[(cmd, ["--config", "{tmp}/m_huge.yaml", "--workers", "1"], 2,
       "field 'model.M' is too large: M'M overflows double precision")
      for cmd in ("law", "adr", "efficiency", "simulate", "verify")],
    # an explicit design cannot be redrawn at score_cov.n
    *[(cmd, ["--config", "{tmp}/m_explicit_50.yaml", "--workers", "1"], 2,
       "field 'score_cov.n' must equal model.n = 50 when 'model.M' is an "
       "explicit matrix, got 400")
      for cmd in ("law", "adr", "efficiency", "simulate", "verify")],
    ("estimate", ["--config", "{tmp}/m_explicit_50.yaml",
                  "--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"], 2,
     "field 'score_cov.n' must equal model.n = 50 when 'model.M' is an "
     "explicit matrix, got 400"),
    *[(cmd, ["--config", "{tmp}/delta_huge.yaml", "--workers", "1", *data], 2,
       "field 'model.sigma_delta2' = 1000000000000.0 reaches ch_min(sigma)")
      for cmd, data in (("law", []), ("adr", []), ("efficiency", []),
                        ("simulate", []), ("verify", []),
                        ("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"]))],
    ("law", ["--config", "{tmp}/m_rank_1.yaml"], 2,
     "field 'model.M' does not have full column rank"),
    ("estimate", ["--config", "{tmp}/m_rank_1.yaml",
                  "--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"], 2,
     "field 'model.M' does not have full column rank"),
    # an explicit design cannot be redrawn at another n
    ("verify", ["--config", "{tmp}/m_explicit_400.yaml", "--workers", "1"], 2,
     "field 'model.M' is an explicit matrix with 400 rows and cannot be "
     "redrawn at n = 500"),
    ("law", ["--config", "{tmp}/m_explicit_400.yaml", "--n", "60"], 2,
     "field 'model.M' is an explicit matrix with 400 rows and cannot be "
     "redrawn at n = 60"),
    # an all-zero X without measurement error fails the attenuation check
    ("estimate", ["--config", "{tmp}/delta_0.yaml",
                  "--z", "{tmp}/z.csv", "--x", "{tmp}/x_zero.csv"], 3,
     "numerical failure: attenuation correction breaks down: ch_min(sigma_d)"),
    ("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x_huge.csv"], 2,
     "X'X or X'Z overflows: the data are too large in magnitude for double "
     "precision"),
    # a variance near the top of double precision: no numpy warning on the way
    *[(cmd, ["--config", "{tmp}/delta_1e300.yaml", "--workers", "1", *data], 2,
       "field 'model.sigma_delta2' = 1e+300 reaches ch_min(sigma)")
      for cmd, data in (("law", []), ("adr", []), ("efficiency", []),
                        ("simulate", []), ("verify", []),
                        ("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"]))],
    *[(cmd, ["--config", "{tmp}/psi_1e300.yaml", "--workers", "1", *data], 0, "")
      for cmd, data in (("law", []), ("adr", []), ("efficiency", []),
                        ("simulate", []),
                        ("estimate", ["--z", "{tmp}/z.csv", "--x", "{tmp}/x.csv"]))],
])
def test_option_exit_codes(tmp_path, config_path, capsys, command, extra, code,
                           message):
    (tmp_path / "file").write_text("", encoding="utf-8")
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
        path = tmp_path / f"{name}.yaml"
        doc = _write_config(path)
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
