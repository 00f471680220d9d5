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

import numpy as np
import pytest
import yaml

from eivreg import cli, verify
from eivreg.asymptotics import AsymptoticLaw, estimate_score_cov, law_inputs
from eivreg.config import parse_config
from eivreg.linalg import AffineTransform, kron, rvec
from eivreg.verify import (criterion_efficiency_curve, criterion_law_agreement,
                           criterion_naive_bias)
from test_kernel import record_pools

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


def test_law_agreement_draws_the_score_check_on_the_workers(monkeypatch):
    # criterion 4's Monte Carlo score covariance of the row sampler draws on
    # a pool at 2 workers, bit for bit as in the calling thread at 1
    opened = record_pools(monkeypatch)
    draws = []

    def recording(*args, **kwargs):
        before = len(opened)
        mc = estimate_score_cov(*args, **kwargs)
        draws.append((mc, opened[before:]))
        return mc

    monkeypatch.setattr(verify, "estimate_score_cov", recording)
    doc = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    doc["model"]["error_family"] = "shifted-exponential"
    doc["simulation"]["reps"] = 200
    doc["score_cov"]["reps"] = 300
    run = parse_config(doc)
    pm, lam = law_inputs(run)
    for workers in (1, 2):
        criterion_law_agreement(run, pm, lam, workers=workers)
    (mc1, pools1), (mc2, pools2) = draws
    assert (pools1, pools2) == ([], [2])
    np.testing.assert_array_equal(mc1.cov, mc2.cov)
    assert mc1.standard_error == mc2.standard_error


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


DEFAULT_SEED = yaml.safe_load(
    CONFIG.read_text(encoding="utf-8"))["simulation"]["master_seed"]
LAW_MUTANTS = {
    "lift_iota_untransposed": (AffineTransform, "lift", lambda t: (
        kron(t.kappa, t.iota) + kron(t.alpha, t.beta.T))),
    "lift_kron_swapped": (AffineTransform, "lift", lambda t: (
        kron(t.iota.T, t.kappa) + kron(t.beta.T, t.alpha))),
    "block_untransposed": (AsymptoticLaw, "block", lambda law, i, j: (
        law.maps[i] @ law.lam @ law.maps[j])),
    "full_mean_reversed": (AsymptoticLaw, "full_mean", lambda law: np.concatenate(
        [rvec(t.rho) for t in reversed(law.transforms)])),
    "full_mean_without_rho": (AsymptoticLaw, "full_mean", lambda law: np.zeros(
        len(law.labels) * law.p * law.q)),
}


def test_affine_limit_closure_gaps_are_rounding():
    result = verify.criterion_affine_limits(DEFAULT_SEED)
    gaps = [float(x) for x in re.findall(r"\d\.\de[-+]\d+", result.detail)]
    assert result.passed
    assert len(gaps) == 4 and max(gaps) <= 1e-12, result.detail


@pytest.mark.parametrize("mutant", LAW_MUTANTS)
def test_affine_limit_closure_fails_on_a_wrong_block_law(monkeypatch, mutant):
    owner, name, wrong = LAW_MUTANTS[mutant]
    monkeypatch.setattr(owner, name, wrong)
    assert not verify.criterion_affine_limits(DEFAULT_SEED).passed
