"""Acceptance suite: every exit criterion at its stated tolerance.

The whole suite is executed once through the `verify` subcommand on the
default desk-scale configuration; each test then asserts one criterion from
the written report and prints its pass/fail line.  Criterion 4's message on
an overflowing Monte Carlo score covariance, and the numbers the details
print at variances near the top of double precision, are checked in-process.
"""

import csv
import re
from pathlib import Path

import pytest
import yaml

from eivreg import cli
from eivreg.asymptotics import law_inputs
from eivreg.config import parse_config
from eivreg.verify import (criterion_efficiency_curve, criterion_law_agreement,
                           criterion_naive_bias)

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"

CRITERIA = [
    (1, "restriction exactness"),
    (2, "corrected-estimator sqrt(n) rate"),
    (3, "naive-estimator attenuation bias"),
    (4, "joint law agreement"),
    (5, "risk decomposition identity"),
    (6, "dominance thresholds"),
    (7, "efficiency curve shape"),
    (8, "affine limit closure"),
    (9, "reproducibility"),
]


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    code = cli.main(["verify", "--config", str(CONFIG), "--out", str(out),
                     "--workers", "4"])
    rows = {}
    with (out / "criteria.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            rows[int(row["number"])] = row
    return code, rows, out


def test_verify_exit_code_zero(verify_run):
    code, rows, _ = verify_run
    assert len(rows) == len(CRITERIA)
    assert code == 0


@pytest.mark.parametrize("number,name", CRITERIA,
                         ids=[f"criterion_{n}" for n, _ in CRITERIA])
def test_criterion(verify_run, number, name, capsys):
    _, rows, _ = verify_run
    row = rows[number]
    passed = row["passed"] == "True"
    with capsys.disabled():
        print(f"\n{'PASS' if passed else 'FAIL'}  criterion {number}: "
              f"{row['name']} -- {row['detail']}")
    assert row["name"] == name
    assert passed, f"criterion {number} failed: {row['detail']}"


def test_report_file_written(verify_run):
    _, _, out = verify_run
    report = (out / "report.txt").read_text()
    assert report.count("\n") == len(CRITERIA)
    assert "FAIL" not in report
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "command=verify" in manifest
    assert "output_paths=criteria.csv;report.txt" in manifest


def test_law_agreement_names_an_overflowing_score_covariance():
    # at sigma_psi2 = 1e300 the Monte Carlo score covariance and its standard
    # error are inf, and their ratio would read "nan SE"
    doc = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    doc["model"]["sigma_psi2"] = 1.0e300
    doc["simulation"]["reps"] = 200
    doc["score_cov"]["reps"] = 100
    run = parse_config(doc)
    pm, lam = law_inputs(run)
    result = criterion_law_agreement(run, pm, lam)
    assert not result.passed
    assert "nan" not in result.detail
    assert ("the Monte Carlo score covariance overflows double precision"
            in result.detail)
    assert _longest_digit_run(result.detail) <= 12, result.detail


def _longest_digit_run(detail: str) -> int:
    """The most digits any number of `detail` prints in a row."""
    return max(map(len, re.findall(r"\d+", detail)), default=0)


def test_details_print_huge_numbers_in_scientific_notation():
    # at sigma_eps2 = 1e300 the naive estimates' noise and the dominance band
    # are of order 1e150 and 1e300; criterion 3's estimates satisfy their
    # restriction to the precision of their own size
    doc = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    doc["model"]["sigma_eps2"] = 1.0e300
    run = parse_config(doc)
    pm, lam = law_inputs(run)
    results = [criterion_naive_bias(run, run.simulation.master_seed),
               criterion_efficiency_curve(run, pm, lam)]
    assert not results[0].passed  # its 0.05 line is absolute
    for result in results:
        assert "e+" in result.detail
        assert _longest_digit_run(result.detail) <= 12, result.detail
