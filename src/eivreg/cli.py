"""Command-line interface.

Subcommands: estimate, simulate, law, adr, efficiency, verify.  One YAML
configuration document drives every subcommand.  Besides the worker count
and output directory, the options set fields of that document before it is
parsed: `--seed` the master seed, `--n` the sample size (not under
`estimate`, which takes n from its data) and `--reps` both replication
counts (under `simulate` and `verify`, the commands that replicate).  Every
run writes a plain-text manifest with the digest of the document as run, so
outputs can be audited and reproduced.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import joint_law, law_inputs, named_weight_limit
from .config import RunConfig, load_config
from .csvio import (open_output, read_matrix_csv, write_manifest,
                    write_matrix_csv, write_rows_csv)
from .estimators import LAW_LABELS, NAMED_WEIGHTS, estimate_all
from .exceptions import ConfigError, EivregError
from .risk import adr_restricted, dominance_report, efficiency_curve

# the file each estimator of `estimate` is written to
ESTIMATE_FILES = {"LSE": "b_lse.csv", "UE": "b1.csv",
                  **{lbl: f"{lbl.lower()}.csv" for lbl in NAMED_WEIGHTS}}
# the report fields each row of adr.csv and efficiency.csv lists, in order
ADR_FIELDS = ("adr_ue", "adr_re", "variance_gain", "bias_form_min",
              "bias_form_max", "lower_threshold", "upper_threshold",
              "theta0_norm2", "relative_efficiency", "verdict")
EFFICIENCY_FIELDS = ("theta0_norm2", "adr_ue", "adr_re", "relative_efficiency",
                     "verdict")


class Outputs:
    """A command's output directory and the files written to it, each
    recorded as it is written, for the manifest to list."""

    def __init__(self, out_dir):
        """Create the directory; a path that cannot be one is a bad option."""
        self.dir, self.names = Path(out_dir), []
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.dir}: "
                              f"{exc.strerror or exc}") from exc

    def write(self, writer, name: str, *args) -> None:
        """`writer(path, *args)` for the file `name` in the directory."""
        writer(self.dir / name, *args)
        self.names.append(name)


def _write_lines(path, lines: list[str]) -> None:
    with open_output(path) as fh:
        fh.writelines(line + "\n" for line in lines)


def _finish(out: Outputs, command: str, run: RunConfig) -> None:
    write_manifest(out.dir / "manifest.txt", {
        "command": command,
        "config_digest": run.digest,
        "master_seed": run.simulation.master_seed,
        "artifact_version": __version__,
        "output_paths": sorted(out.names),
    })


def cmd_estimate(run: RunConfig, z_csv, x_csv, out: Outputs) -> int:
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
    for label, name in ESTIMATE_FILES.items():
        out.write(write_matrix_csv, name, est[label])
    out.write(write_manifest, "estimators.txt", ESTIMATE_FILES)
    _finish(out, "estimate", run)
    return 0


def cmd_law(run: RunConfig, out: Outputs) -> int:
    pm, lam = law_inputs(run)
    labels = tuple(l for l in run.simulation.estimators if l in LAW_LABELS)
    if not labels:
        raise ConfigError("no law-compatible estimators configured")
    law = joint_law(pm, lam, run.restriction, estimators=labels)
    out.write(write_matrix_csv, "score_cov.csv", lam)
    for lbl in labels:
        out.write(write_matrix_csv, f"mean_{lbl}.csv", law.mean(lbl))
    pairs = [(i, j) for i in range(len(labels)) for j in range(len(labels))]
    for i, j in pairs:  # one block in memory at a time
        out.write(write_matrix_csv, f"cov_{i + 1}_{j + 1}.csv", law.block(i, j))
    out.write(write_manifest, "blocks.txt", {
        "labels": list(labels),
        **{f"block_{i + 1}_{j + 1}": f"cov_{i + 1}_{j + 1}.csv" for i, j in pairs},
    })
    _finish(out, "law", run)
    return 0


def cmd_simulate(run: RunConfig, out: Outputs, workers: int = 1) -> int:
    from .montecarlo import compare_law, replication_plan, run_plan

    pm, lam = law_inputs(run)  # before drawing: a bad config fails at once
    summary = run_plan(replication_plan(run, run.simulation.estimators),
                       workers=workers)
    for lbl, mat in summary.mean_errors.items():
        out.write(write_matrix_csv, f"mean_error_{lbl}.csv", mat)
    out.write(write_matrix_csv, "cov_empirical.csv", summary.cov_empirical)
    out.write(write_matrix_csv, "losses.csv", summary.losses, summary.labels)
    verdict_lines = [f"replications={summary.rep_count}",
                     f"excluded={len(summary.excluded)}"]
    if all(lbl in LAW_LABELS for lbl in summary.labels):
        law = joint_law(pm, lam, run.restriction, estimators=summary.labels)
        cmp = compare_law(summary, law)
        out.write(write_rows_csv, "compare_cov.csv",
                  ["block_i", "block_j", "rel_frobenius"],
                  [[str(i + 1), str(j + 1), rel]
                   for (i, j), rel in cmp.cov_rel_fro.items()])
        out.write(write_rows_csv, "compare_means.csv",
                  ["estimator", "max_abs_se"],
                  [[lbl, float(cmp.mean_max_se[lbl])] for lbl in summary.labels])
        verdict_lines.append(
            f"law_agreement={'PASS' if cmp.passed else 'FAIL'}")
        verdict_lines.append(f"worst_cov_block={cmp.worst_cov:.6f}")
        verdict_lines.append(f"worst_mean_se={cmp.worst_mean:.6f}")
    else:
        verdict_lines.append("law_agreement=SKIPPED (non-limit estimators present)")
    out.write(_write_lines, "verdict.txt", verdict_lines)
    _finish(out, "simulate", run)
    return 0


def cmd_adr(run: RunConfig, out: Outputs) -> int:
    pm, lam = law_inputs(run)
    w = run.risk.weight
    labels = [l for l in run.simulation.estimators if l in NAMED_WEIGHTS]
    if not labels:
        labels = [run.risk.q0]
    rows = []
    for lbl in labels:
        rep = dominance_report(w, pm, lam, run.restriction,
                               named_weight_limit(pm, lbl))
        rows.append([lbl, *(getattr(rep, f) for f in ADR_FIELDS)])
    out.write(write_rows_csv, "adr.csv", ["estimator", *ADR_FIELDS], rows)
    _finish(out, "adr", run)
    return 0


def cmd_efficiency(run: RunConfig, out: Outputs) -> int:
    pm, lam = law_inputs(run)
    report = adr_restricted(run.risk.weight, pm, lam, run.restriction,
                            named_weight_limit(pm, run.risk.q0))
    out.write(write_rows_csv, "efficiency.csv", ["scale", *EFFICIENCY_FIELDS],
              [[s, *(getattr(r, f) for f in EFFICIENCY_FIELDS)]
               for s, r in efficiency_curve(report, run.restriction, run.risk.grid)])
    _finish(out, "efficiency", run)
    return 0


def cmd_verify(run: RunConfig, out: Outputs, workers: int = 1) -> int:
    from .verify import run_acceptance

    results = run_acceptance(run, out.dir, workers=workers)
    lines = [f"{'PASS' if r.passed else 'FAIL'}  criterion {r.number}: "
             f"{r.name} -- {r.detail}" for r in results]
    out.write(write_rows_csv, "criteria.csv",
              ["number", "name", "passed", "detail"],
              [[r.number, r.name, r.passed, r.detail] for r in results])
    out.write(_write_lines, "report.txt", lines)
    print("\n".join(lines))
    _finish(out, "verify", run)
    return 0 if all(r.passed for r in results) else 4


def run_command(command: str, run: RunConfig, out_dir, workers: int = 1) -> int:
    """Programmatic dispatcher for the config-driven subcommands."""
    out = Outputs(out_dir)
    with_workers = {"simulate": cmd_simulate, "verify": cmd_verify}
    if command in with_workers:
        return with_workers[command](run, out, workers=workers)
    dispatch = {"law": cmd_law, "adr": cmd_adr, "efficiency": cmd_efficiency}
    return dispatch[command](run, out)


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
                       help="worker threads (default: machine parallelism)")

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
        reps = getattr(args, "reps", None)
        options = {"simulation.master_seed": args.seed, "simulation.reps": reps,
                   "score_cov.reps": reps, "model.n": getattr(args, "n", None)}
        run = load_config(args.config).with_fields(
            {name: v for name, v in options.items() if v is not None})
        if args.command == "estimate":
            return cmd_estimate(run, args.z, args.x, Outputs(args.out))
        return run_command(args.command, run, args.out, workers=args.workers)
    # first: a LinAlgError is a ValueError
    except (EivregError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a ConfigError, or input data out of range
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
