"""Span tracer for one eivreg CLI process.

    python perfbench/tracer.py SPANS.npz -- <eivreg CLI arguments>

Wraps the public functions of each eivreg module at every place the function
object is bound (its defining module, the package namespace and every module
that imported it by name), runs ``eivreg.cli.main`` with the given arguments,
and writes the recorded spans to SPANS.npz when the command returns. Spans
are kept in memory until then. Each span has a name, start and end
(``perf_counter_ns``), the id of the enclosing span (-1 at top level) and two
numbers whose meaning depends on the span: output bytes for ``linalg.kron``
(computed from the result's shape and dtype), file bytes for
``csvio.read_matrix_csv``, and attempted and kept replications for
``montecarlo.run_plan``.

Installing the wrappers fails loudly when a listed function is missing from
its defining module, so a rename cannot silently zero a metric.

Spans recorded in pool worker processes stay in those processes and are not
written; the benchmark traces commands run at ``--workers 1``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from pathlib import Path

# defining module -> public functions (``Class.method`` for methods) to wrap;
# a span is named after the module's last component and the function
TARGETS = {
    "eivreg.model": ("generate", "ModelConfig.design"),
    "eivreg.estimators": ("build_kx", "restricted", "estimate_all"),
    "eivreg.montecarlo": ("run_plan",),
    "eivreg.asymptotics": ("estimate_score_cov", "score_sample", "population",
                           "joint_law"),
    "eivreg.risk": ("adr_restricted", "adr_unrestricted",
                    "variance_gain_compact", "dominance_report",
                    "efficiency_curve"),
    "eivreg.linalg": ("kron",),
    "eivreg.csvio": ("read_matrix_csv", "write_matrix_csv", "write_rows_csv",
                     "write_manifest"),
    "eivreg.config": ("load_config",),
    "eivreg.cli": ("run_command", "cmd_estimate"),
}


class SpanRecorder:
    """Spans of one process, held in flat arrays until ``save``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.a = array("d")
        self.b = array("d")
        self._open: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        sid = len(self.t0)
        self.parent.append(self._open[-1] if self._open else -1)
        self.name.append(name_id)
        self.t1.append(0)
        self.a.append(0.0)
        self.b.append(0.0)
        self._open.append(sid)
        self.t0.append(time.perf_counter_ns())
        return sid

    def end(self, sid: int, a: float = 0.0, b: float = 0.0) -> None:
        self.t1[sid] = time.perf_counter_ns()
        self._open.pop()
        self.a[sid] = a
        self.b[sid] = b

    def save(self, path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names, dtype=str),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 t0=np.frombuffer(self.t0, dtype=np.int64),
                 t1=np.frombuffer(self.t1, dtype=np.int64),
                 a=np.frombuffer(self.a, dtype=np.float64),
                 b=np.frombuffer(self.b, dtype=np.float64))


def _measures(span: str):
    """Per-span numbers (a, b) taken from the call's arguments and result."""
    if span == "linalg.kron":
        return lambda args, out: (float(out.nbytes), 0.0)
    if span == "csvio.read_matrix_csv":
        return lambda args, out: (float(os.path.getsize(args[0])), 0.0)
    if span == "montecarlo.run_plan":
        return lambda args, out: (float(args[0].reps), float(out.rep_count))
    return None


def _wrap(fn, span: str, rec: SpanRecorder):
    name_id = rec.name_id(span)
    measure = _measures(span)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.begin(name_id)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            if measure is not None and out is not None:
                rec.end(sid, *measure(args, out))
            else:
                rec.end(sid)

    return traced


def install(rec: SpanRecorder, targets=TARGETS) -> None:
    """Wrap every target at each place it is bound."""
    importlib.import_module("eivreg")
    for mod_name in targets:
        importlib.import_module(mod_name)
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "eivreg" or key.startswith("eivreg.")]
    missing = []
    for mod_name, funcs in targets.items():
        mod = sys.modules[mod_name]
        layer = mod_name.rsplit(".", 1)[-1]
        for qual in funcs:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                missing.append(f"{mod_name}.{qual}")
                continue
            wrapped = _wrap(fn, f"{layer}.{attr}", rec)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
    if missing:
        raise RuntimeError(
            "tracer: these traced functions no longer exist: "
            + ", ".join(missing)
            + "; update TARGETS in perfbench/tracer.py and the metric table")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.npz -- <eivreg CLI arguments>",
              file=sys.stderr)
        return 2
    spans_path, cli_args = Path(argv[0]), argv[2:]
    rec = SpanRecorder()
    install(rec)
    from eivreg import cli

    pid = os.getpid()
    try:
        return cli.main(cli_args)
    finally:
        if os.getpid() == pid:
            rec.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
