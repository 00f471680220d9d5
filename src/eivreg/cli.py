"""Command-line interface.

Subcommands: estimate, simulate, law, adr, efficiency, verify.  One YAML
configuration document drives every subcommand; command-line overrides are
limited to the master seed, worker count and output directory, the sample
size (not under `estimate`, which takes n from its data) and the replication
count (under `simulate` and `verify`, the commands that replicate).  Every
run writes a plain-text manifest with the configuration digest so outputs
can be audited and reproduced.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .asymptotics import joint_law, law_inputs, named_weight_limit
from .config import RunConfig, load_config
from .csvio import (open_output, read_matrix_csv, write_manifest,
                    write_matrix_csv, write_rows_csv)
from .estimators import LAW_LABELS, NAMED_WEIGHTS, estimate_all
from .exceptions import ConfigError, EivregError
from .montecarlo import SimulationPlan, compare_law, run_plan
from .risk import (adr_restricted, dominance_report, drift_direction,
                   efficiency_curve)

# the file each estimator of `estimate` is written to
ESTIMATE_FILES = {"LSE": "b_lse.csv", "UE": "b1.csv",
                  **{lbl: f"{lbl.lower()}.csv" for lbl in NAMED_WEIGHTS}}
EFFICIENCY_HEADER = ["scale", "theta0_norm2", "adr_ue", "adr_re",
                     "relative_efficiency", "verdict"]


def _version() -> str:
    from . import __version__

    return __version__


def _make_out_dir(out) -> Path:
    """Create the output directory; a path that cannot be one is a bad option."""
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: "
                          f"{exc.strerror or exc}") from exc
    return out_dir


def _finish(out_dir: Path, command: str, run: RunConfig, written: list[Path]) -> None:
    write_manifest(out_dir / "manifest.txt", {
        "command": command,
        "config_digest": run.digest,
        "master_seed": run.simulation.master_seed,
        "artifact_version": _version(),
        "output_paths": sorted(p.name for p in written),
    })


def cmd_estimate(run: RunConfig, z_csv, x_csv, out_dir: Path) -> int:
    Z = read_matrix_csv(z_csv)
    X = read_matrix_csv(x_csv)
    if Z.shape[0] != X.shape[0]:
        raise ConfigError(
            f"Z has {Z.shape[0]} rows but X has {X.shape[0]}")
    if X.shape[1] != run.model.p or Z.shape[1] != run.model.q:
        raise ConfigError(
            f"expected X with {run.model.p} and Z with {run.model.q} columns, "
            f"got {X.shape[1]} and {Z.shape[1]}")
    est = estimate_all(X, Z, run.model.sigma_delta2, run.restriction)
    written = []
    for label, name in ESTIMATE_FILES.items():
        write_matrix_csv(out_dir / name, est[label])
        written.append(out_dir / name)
    write_manifest(out_dir / "estimators.txt", ESTIMATE_FILES)
    written.append(out_dir / "estimators.txt")
    _finish(out_dir, "estimate", run, written)
    return 0


def cmd_law(run: RunConfig, out_dir: Path) -> int:
    pm, lam = law_inputs(run)
    labels = tuple(l for l in run.simulation.estimators if l in LAW_LABELS)
    if not labels:
        raise ConfigError("no law-compatible estimators configured")
    law = joint_law(pm, lam, run.restriction, estimators=labels)
    written = []
    write_matrix_csv(out_dir / "score_cov.csv", lam)
    written.append(out_dir / "score_cov.csv")
    for lbl in labels:
        path = out_dir / f"mean_{lbl}.csv"
        write_matrix_csv(path, law.mean(lbl))
        written.append(path)
    pairs = [(i, j) for i in range(len(labels)) for j in range(len(labels))]
    for i, j in pairs:  # one block in memory at a time
        path = out_dir / f"cov_{i + 1}_{j + 1}.csv"
        write_matrix_csv(path, law.block(i, j))
        written.append(path)
    write_manifest(out_dir / "blocks.txt", {
        "labels": list(labels),
        **{f"block_{i + 1}_{j + 1}": f"cov_{i + 1}_{j + 1}.csv" for i, j in pairs},
    })
    written.append(out_dir / "blocks.txt")
    _finish(out_dir, "law", run, written)
    return 0


def cmd_simulate(run: RunConfig, out_dir: Path, workers: int = 1) -> int:
    plan = SimulationPlan(cfg=run.model, restr=run.restriction,
                          b_seed=run.b_truth_seed(), reps=run.simulation.reps,
                          master_seed=run.simulation.master_seed + 7,
                          estimators=run.simulation.estimators,
                          weight=run.risk.weight)
    summary = run_plan(plan, workers=workers)
    written = []
    for lbl, mat in summary.mean_errors.items():
        path = out_dir / f"mean_error_{lbl}.csv"
        write_matrix_csv(path, mat)
        written.append(path)
    write_matrix_csv(out_dir / "cov_empirical.csv", summary.cov_empirical)
    written.append(out_dir / "cov_empirical.csv")
    write_matrix_csv(out_dir / "losses.csv", np.column_stack(
        [summary.per_rep_losses[lbl] for lbl in summary.labels]), summary.labels)
    written.append(out_dir / "losses.csv")
    verdict_lines = [f"replications={summary.rep_count}",
                     f"excluded={len(summary.excluded)}"]
    if all(lbl in LAW_LABELS for lbl in summary.labels):
        pm, lam = law_inputs(run)
        law = joint_law(pm, lam, run.restriction, estimators=summary.labels)
        cmp = compare_law(summary, law)
        write_rows_csv(out_dir / "compare_cov.csv",
                       ["block_i", "block_j", "rel_frobenius"],
                       [[str(i + 1), str(j + 1), rel]
                        for (i, j), rel in cmp.cov_rel_fro.items()])
        written.append(out_dir / "compare_cov.csv")
        write_rows_csv(out_dir / "compare_means.csv",
                       ["estimator", "max_abs_se"],
                       [[lbl, float(cmp.mean_max_se[lbl])]
                        for lbl in summary.labels])
        written.append(out_dir / "compare_means.csv")
        verdict_lines.append(
            f"law_agreement={'PASS' if cmp.passed else 'FAIL'}")
        verdict_lines.append(f"worst_cov_block={cmp.worst_cov:.6f}")
        verdict_lines.append(f"worst_mean_se={cmp.worst_mean:.6f}")
    else:
        verdict_lines.append("law_agreement=SKIPPED (non-limit estimators present)")
    with open_output(out_dir / "verdict.txt") as fh:
        fh.write("\n".join(verdict_lines) + "\n")
    written.append(out_dir / "verdict.txt")
    _finish(out_dir, "simulate", run, written)
    return 0


def cmd_adr(run: RunConfig, out_dir: Path) -> int:
    pm, lam = law_inputs(run)
    w = run.risk.weight
    labels = [l for l in run.simulation.estimators if l in NAMED_WEIGHTS]
    if not labels:
        labels = [run.risk.q0]
    rows = []
    for lbl in labels:
        rep = dominance_report(w, pm, lam, run.restriction,
                               named_weight_limit(pm, lbl))
        rows.append([lbl, rep.adr_ue, rep.adr_re, rep.variance_gain,
                     rep.bias_form_min, rep.bias_form_max,
                     rep.lower_threshold, rep.upper_threshold,
                     rep.theta0_norm2, rep.relative_efficiency, rep.verdict])
    write_rows_csv(out_dir / "adr.csv",
                   ["estimator", "adr_ue", "adr_re", "variance_gain",
                    "bias_form_min", "bias_form_max", "lower_threshold",
                    "upper_threshold", "theta0_norm2", "relative_efficiency",
                    "verdict"],
                   rows)
    _finish(out_dir, "adr", run, [out_dir / "adr.csv"])
    return 0


def cmd_efficiency(run: RunConfig, out_dir: Path) -> int:
    pm, lam = law_inputs(run)
    report = adr_restricted(run.risk.weight, pm, lam, run.restriction,
                            named_weight_limit(pm, run.risk.q0))
    if run.risk.scale_max is not None:
        scales = np.linspace(0.0, run.risk.scale_max, run.risk.grid)
    else:
        scales = report.scale_grid(run.risk.grid)
    rows = efficiency_curve(report, drift_direction(run.restriction), scales)
    write_rows_csv(out_dir / "efficiency.csv", EFFICIENCY_HEADER,
                   [[float(s), r.theta0_norm2, r.adr_ue, r.adr_re,
                     r.relative_efficiency, r.verdict]
                    for s, r in zip(scales, rows)])
    _finish(out_dir, "efficiency", run, [out_dir / "efficiency.csv"])
    return 0


def cmd_verify(run: RunConfig, out_dir: Path, workers: int = 1) -> int:
    from .verify import run_acceptance

    results = run_acceptance(run, out_dir, workers=workers)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  criterion {r.number}: "
              f"{r.name} -- {r.detail}")
    _finish(out_dir, "verify", run,
            [out_dir / "criteria.csv", out_dir / "report.txt"])
    return 0 if all(r.passed for r in results) else 4


def run_command(command: str, run: RunConfig, out_dir, workers: int = 1) -> int:
    """Programmatic dispatcher for the config-driven subcommands."""
    out_dir = _make_out_dir(out_dir)
    with_workers = {"simulate": cmd_simulate, "verify": cmd_verify}
    if command in with_workers:
        return with_workers[command](run, out_dir, workers=workers)
    dispatch = {"law": cmd_law, "adr": cmd_adr, "efficiency": cmd_efficiency}
    return dispatch[command](run, out_dir)


def _apply_overrides(run: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        run = replace(run, simulation=replace(run.simulation,
                                              master_seed=args.seed))
    if getattr(args, "reps", None) is not None:
        run = replace(run, simulation=replace(run.simulation, reps=args.reps),
                      score_cov=replace(run.score_cov, reps=args.reps))
    if getattr(args, "n", None) is not None:
        run = replace(run, model=run.model.at_n(args.n))
        run.model.sigma()  # checked as parse_config checks model.n
    return run


def at_least(k: int):
    """argparse type of an integer option whose value must be at least `k`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < k:
            raise argparse.ArgumentTypeError(f"must be at least {k}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eivreg",
        description="Measurement-error multivariate regression: estimation, "
                    "asymptotic laws, risk analysis, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=at_least(0), help="override master seed")
        p.add_argument("--workers", type=at_least(1),
                       default=os.cpu_count() or 1,
                       help="worker processes (default: machine parallelism)")

    p_est = sub.add_parser("estimate", help="estimate from CSV data")
    common(p_est)
    p_est.add_argument("--z", required=True, help="responses CSV (n x q)")
    p_est.add_argument("--x", required=True, help="predictors CSV (n x p)")
    for name, desc in (("simulate", "replication study with law comparison"),
                       ("law", "asymptotic law blocks"),
                       ("adr", "risk comparison report"),
                       ("efficiency", "relative-efficiency sweep"),
                       ("verify", "full acceptance suite")):
        p = sub.add_parser(name, help=desc)
        common(p)
        p.add_argument("--n", type=int, help="override sample size")
        if name in ("simulate", "verify"):  # the commands that replicate
            p.add_argument("--reps", type=at_least(2),
                           help="override replication count")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = load_config(args.config)
        run = _apply_overrides(run, args)
        if args.command == "estimate":
            return cmd_estimate(run, args.z, args.x, _make_out_dir(args.out))
        return run_command(args.command, run, args.out, workers=args.workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EivregError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # input data out of range, e.g. X'X overflowing double precision
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
