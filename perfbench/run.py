"""eivreg benchmark: runs one workload through the eivreg CLI and prints its
metrics.

    python3 perfbench/run.py --workload desk|wide|tall [--seed N]
                             [--seconds S] [--trace 0|1] [--tiny]

Run it from the root of a source checkout; it runs the program from ``src/``.
Every command is a fresh ``python -m eivreg.cli`` subprocess with BLAS pinned
to one thread, timed from start to exit. After each command its outputs are
checked (outside the timed region). The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. The lines before it list the metrics, the per-command
medians and the machine facts. ``.bench_work/<workload>/result.json`` holds
the full record: every sample, the checks' records, the traced span totals
and the machine facts.

See perfbench/README.md for the workloads, the metrics and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 7
# every process is killed once the run has lasted this long, so that a hung
# command still ends the run within its three-minute limit
RUN_LIMIT_S = 165.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Command:
    metric: str
    sub: str
    workers: int = 1


WORKLOADS = {
    "desk": (Command("simulate_s", "simulate"),
             Command("simulate_w2_s", "simulate", 2),
             Command("law_s", "law"), Command("adr_s", "adr"),
             Command("efficiency_s", "efficiency")),
    "wide": (Command("adr_s", "adr"), Command("efficiency_s", "efficiency")),
    "tall": (Command("simulate_s", "simulate"),
             Command("estimate_s", "estimate")),
}
CSV_ROWS = {"tall": 200_000}
TINY_ROWS = 2_000


# ---------------------------------------------------------------- processes

def _env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stderr: str = ""
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


def run_timed(argv: list[str], log: Path, timeout: float) -> Sample:
    """Run argv to completion; wall time, CPU time and peak RSS of the
    process and the children it waited for (pool workers included)."""
    with log.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(),
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = log.read_text(encoding="utf-8", errors="replace")
    return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                  stderr=text[-2000:])


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ------------------------------------------------------------------- inputs

def load_doc(path: Path) -> dict:
    with path.open(encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def tiny_doc(doc: dict) -> dict:
    """Smoke-test sizes: same shapes and families, far less work."""
    doc = json.loads(json.dumps(doc))
    doc["model"]["n"] = min(doc["model"]["n"], 400)
    doc["simulation"]["reps"] = min(doc["simulation"]["reps"], 1000)
    doc["score_cov"] = {"n": 400, "reps": 1000}
    doc["risk"]["grid"] = 5
    return doc


def write_data_csvs(doc: dict, seed: int, rows: int, work: Path):
    """X and Z drawn from the workload's model at `rows` rows, from `seed`,
    with B projected onto the restriction R1 B R2 = theta."""
    m, r = doc["model"], doc["restriction"]
    p, q = m["p"], m["q"]
    g = np.random.default_rng([seed, 2026])

    def draw(size, var):
        if m["error_family"] == "shifted-exponential":
            z = g.exponential(1.0, size) - 1.0
        else:
            z = g.standard_normal(size)
        return math.sqrt(var) * z

    r1, r2 = np.array(r["R1"], float), np.array(r["R2"], float)
    theta = np.array(r["theta"], float)
    b = g.uniform(-1.0, 1.0, size=(p, q))
    gap = r1 @ b @ r2 - theta
    b -= r1.T @ np.linalg.solve(r1 @ r1.T, gap) @ np.linalg.solve(
        r2.T @ r2, r2.T)
    design = g.uniform(m["M"]["low"], m["M"]["high"], size=(rows, p))
    d = design + draw((rows, p), m["sigma_psi2"])
    z = d @ b + draw((rows, q), m["sigma_eps2"])
    x = d + draw((rows, p), m["sigma_delta2"])
    paths = work / "x.csv", work / "z.csv"
    for path, arr in zip(paths, (x, z)):
        header = ",".join(f"col_{j + 1}" for j in range(arr.shape[1]))
        np.savetxt(path, arr, fmt="%.17g", delimiter=",", header=header,
                   comments="")
    return paths


# ------------------------------------------------------------------- checks

def _csv_rows(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _table(path: Path) -> list[dict]:
    rows = _csv_rows(path)
    return [dict(zip(rows[0], row)) for row in rows[1:]]


def _matrix(path: Path) -> np.ndarray:
    return np.array([[float(c) for c in row] for row in _csv_rows(path)[1:]])


def check_outputs(sub: str, out: Path, doc: dict) -> tuple[list, dict]:
    """Problems found in one command's outputs, and what is recorded but not
    gated: each CSV's sha256 and simulate's law-agreement verdict."""
    problems = []
    record = {"sha256": {}}
    csvs = sorted(out.rglob("*.csv"))
    if not csvs:
        problems.append("no CSV output")
    for path in csvs:
        rel = str(path.relative_to(out))
        record["sha256"][rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        for i, row in enumerate(_csv_rows(path)):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    problems.append(f"{rel}: row {i + 1} holds {cell!r}")
    if sub == "estimate":
        r = doc["restriction"]
        r1, r2 = np.array(r["R1"], float), np.array(r["R2"], float)
        theta = np.array(r["theta"], float)
        tol = 1e-8 * (1.0 + np.linalg.norm(theta))
        for name in ("b2", "b3", "b4"):
            gap = np.linalg.norm(r1 @ _matrix(out / f"{name}.csv") @ r2 - theta)
            if not gap <= tol:
                problems.append(f"{name}: restriction gap {gap:.3e} > {tol:.3e}")
    elif sub == "adr":
        for row in _table(out / "adr.csv"):
            ratio = float(row["adr_ue"]) / float(row["adr_re"])
            if float(row["relative_efficiency"]) != ratio:
                problems.append(f"adr {row['estimator']}: relative_efficiency "
                                f"{row['relative_efficiency']} != {ratio!r}")
    elif sub == "efficiency":
        rel = [float(row["relative_efficiency"])
               for row in _table(out / "efficiency.csv")]
        if not all(b < a for a, b in zip(rel, rel[1:])):
            problems.append("efficiency curve is not strictly decreasing")
    elif sub == "simulate":
        lines = (out / "verdict.txt").read_text(encoding="utf-8").splitlines()
        verdict = dict(line.split("=", 1) for line in lines if "=" in line)
        record["law_agreement"] = verdict.get("law_agreement")
    return problems, record


# ------------------------------------------------------------------ tracing

@dataclass
class LayerStats:
    calls: float = 0.0
    s: float = 0.0
    self_s: float = 0.0
    a: float = 0.0
    b: float = 0.0


def span_stats(path: Path) -> dict:
    """Per-name totals of one process's spans. Self time is a span's duration
    minus the durations of its direct children."""
    with np.load(path, allow_pickle=False) as d:
        names, parent, name = d["names"], d["parent"], d["name"]
        dur = (d["t1"] - d["t0"]) / 1e9
        a, b = d["a"], d["b"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested],
                        minlength=len(dur))
    self_dur = dur - child
    stats = {}
    for idx, label in enumerate(names):
        mask = name == idx
        stats[str(label)] = LayerStats(
            int(mask.sum()), float(dur[mask].sum()),
            float(self_dur[mask].sum()), float(a[mask].sum()),
            float(b[mask].sum()))
    return stats


def merge(into: dict, stats: dict) -> None:
    for label, st in stats.items():
        total = into.setdefault(label, LayerStats())
        total.calls += st.calls
        total.s += st.s
        total.self_s += st.self_s
        total.a += st.a
        total.b += st.b


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(stats: dict, passes: int) -> dict:
    """Per-layer metrics for one traced pass (totals averaged over passes)."""
    def st(name):
        s = stats.get(name, LayerStats())
        return LayerStats(*(v / passes for v in
                            (s.calls, s.s, s.self_s, s.a, s.b)))

    gen, design = st("model.generate"), st("model.design")
    kx, restr = st("estimators.build_kx"), st("estimators.restricted")
    plan = st("montecarlo.run_plan")
    esc, draw = st("asymptotics.estimate_score_cov"), st("asymptotics.score_sample")
    pop, law = st("asymptotics.population"), st("asymptotics.joint_law")
    adr_r, adr_u = st("risk.adr_restricted"), st("risk.adr_unrestricted")
    vgc, dom = st("risk.variance_gain_compact"), st("risk.dominance_report")
    curve, kron = st("risk.efficiency_curve"), st("linalg.kron")
    read = st("csvio.read_matrix_csv")
    writes = [st(f"csvio.{w}") for w in
              ("write_matrix_csv", "write_rows_csv", "write_manifest")]
    load = st("config.load_config")
    m = {
        "model.generate.calls": (gen.calls, "count"),
        "model.generate.self_us": (_per(gen.self_s, gen.calls, 1e6), "us"),
        "model.design.calls": (design.calls, "count"),
        "model.design.us": (_per(design.s, design.calls, 1e6), "us"),
        "estimators.build_kx.us": (_per(kx.s, kx.calls, 1e6), "us"),
        "estimators.restricted.calls": (restr.calls, "count"),
        "estimators.restricted.us": (_per(restr.s, restr.calls, 1e6), "us"),
        "montecarlo.run_plan.s": (plan.s, "s"),
        "montecarlo.run_plan.self_s": (plan.self_s, "s"),
        "montecarlo.reps": (plan.a, "count"),
        "montecarlo.us_per_rep": (_per(plan.s, plan.a, 1e6), "us"),
        "montecarlo.kept_ratio": (_per(plan.b, plan.a), "ratio"),
        "asymptotics.estimate_score_cov.calls": (esc.calls, "count"),
        "asymptotics.estimate_score_cov.s": (esc.s, "s"),
        "asymptotics.score_draw.us": (_per(draw.s, draw.calls, 1e6), "us"),
        "asymptotics.score_cov.self_s": (esc.self_s, "s"),
        "asymptotics.population.calls": (pop.calls, "count"),
        "asymptotics.joint_law.calls": (law.calls, "count"),
        "asymptotics.joint_law.ms": (_per(law.s, law.calls, 1e3), "ms"),
        "risk.adr_restricted.calls": (adr_r.calls, "count"),
        "risk.adr_restricted.ms": (_per(adr_r.s, adr_r.calls, 1e3), "ms"),
        "risk.adr_unrestricted.calls": (adr_u.calls, "count"),
        "risk.variance_gain_compact.calls": (vgc.calls, "count"),
        "risk.variance_gain_compact.ms": (_per(vgc.s, vgc.calls, 1e3), "ms"),
        "risk.dominance_report.calls": (dom.calls, "count"),
        "risk.dominance_report.ms": (_per(dom.s, dom.calls, 1e3), "ms"),
        "risk.efficiency_curve.s": (curve.s, "s"),
        "linalg.kron.calls": (kron.calls, "count"),
        "linalg.kron.mb": (kron.a / 1e6, "MB"),
        "csvio.read_matrix_csv.s": (read.s, "s"),
        "csvio.read_matrix_csv.mb_per_s": (_per(read.a / 1e6, read.s), "MB/s"),
        "csvio.write.calls": (sum(w.calls for w in writes), "count"),
        "csvio.write.s": (sum(w.s for w in writes), "s"),
        "config.load_config.ms": (_per(load.s, load.calls, 1e3), "ms"),
    }
    return m


# -------------------------------------------------------------------- runner

class Bench:
    def __init__(self, workload: str, seed: int | None, tiny: bool,
                 work: Path):
        self.commands = WORKLOADS[workload]
        self.work = work
        doc = load_doc(BENCH_DIR / "workloads" / f"{workload}.yaml")
        self.seed = doc["simulation"]["master_seed"] if seed is None else seed
        self.doc = tiny_doc(doc) if tiny else doc
        self.config = work / f"{workload}.yaml"
        self.config.write_text(yaml.safe_dump(self.doc, sort_keys=False),
                               encoding="utf-8")
        self.rows = TINY_ROWS if tiny else CSV_ROWS.get(workload, 0)
        self.data = None
        self.samples: dict[str, list[Sample]] = {}
        self.records: dict[str, dict] = {}
        self.profile: dict[str, dict] = {}
        self.setup: list[float] = []
        self.started = time.perf_counter()

    def prepare(self) -> None:
        if self.rows:
            self.data = write_data_csvs(self.doc, self.seed, self.rows,
                                        self.work)

    def argv(self, cmd: Command, out: Path, spans: Path | None) -> list[str]:
        head = ([sys.executable, str(BENCH_DIR / "tracer.py"), str(spans),
                 "--"] if spans else [sys.executable, "-m", "eivreg.cli"])
        args = [cmd.sub, "--config", str(self.config), "--out", str(out),
                "--seed", str(self.seed), "--workers", str(cmd.workers)]
        if cmd.sub == "estimate":
            args += ["--x", str(self.data[0]), "--z", str(self.data[1])]
        return head + args

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def setup_sample(self) -> None:
        """Time one fresh interpreter that imports eivreg.cli and loads the
        workload config."""
        code = ("import sys, eivreg.cli; "
                "from eivreg.config import load_config; "
                "load_config(sys.argv[1])")
        s = run_timed([sys.executable, "-c", code, str(self.config)],
                      self.work / f"setup-{len(self.setup)}.log",
                      self.time_left())
        if s.code != 0:
            raise SystemExit(f"setup failed with exit {s.code}:\n{s.stderr}")
        self.setup.append(s.wall_s)

    def run(self, cmd: Command, tag: str, traced: bool = False) -> Sample:
        out = self.work / "out" / f"{cmd.metric}-{tag}"
        spans = self.work / "spans" / f"{cmd.metric}-{tag}.npz" if traced else None
        for d in (out.parent, self.work / "spans", self.work / "logs"):
            d.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(out, ignore_errors=True)
        s = run_timed(self.argv(cmd, out, spans),
                      self.work / "logs" / f"{cmd.metric}-{tag}.log",
                      self.time_left())
        if s.code == 0:
            try:
                s.problems, record = check_outputs(cmd.sub, out, self.doc)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                s.problems = [f"unreadable output: {exc!r}"]
                return s
            self.records.setdefault(f"{cmd.metric}{'-traced' if traced else ''}",
                                    record)
        else:
            s.problems = [f"exit {s.code}: {s.stderr.strip()[-300:]}"]
        return s

    def measure(self, seconds: float) -> None:
        """First a full pass over the workload's commands, then more rounds
        of them, each command started only if its last time still fits.
        Set-up samples go between the first commands, so that they are
        spread over the run rather than bunched in one slow or fast spell."""
        deadline = time.perf_counter() + seconds
        self.samples = {c.metric: [] for c in self.commands}
        for c in self.commands:
            self.setup_sample()
            self.samples[c.metric].append(self.run(c, "0"))
        k, idle = 0, 0
        while idle < len(self.commands):
            c = self.commands[k % len(self.commands)]
            k += 1
            last = self.samples[c.metric][-1].wall_s
            if time.perf_counter() + last > deadline:
                idle += 1
                continue
            idle = 0
            if len(self.setup) < SETUP_REPEATS:
                self.setup_sample()
            tag = str(len(self.samples[c.metric]))
            self.samples[c.metric].append(self.run(c, tag))
        while len(self.setup) < SETUP_REPEATS:
            self.setup_sample()

    def measure_traced(self, seconds: float) -> tuple[dict, int, list, list]:
        """Pairs of an untraced and a traced pass over the workload's
        single-worker commands, until the next pair would not fit."""
        cmds = [c for c in self.commands if c.workers == 1]
        deadline = time.perf_counter() + seconds
        stats: dict = {}
        plain, traced = [], []
        self.samples = {c.metric: [] for c in cmds}
        pair = 0
        while True:
            t = time.perf_counter()
            untraced_total = traced_total = 0.0
            for c in cmds:
                # alternate which side runs first, so warm caches favour neither
                if pair % 2:
                    s1 = self.run(c, f"{pair}-traced", traced=True)
                    s0 = self.run(c, f"{pair}")
                else:
                    s0 = self.run(c, f"{pair}")
                    s1 = self.run(c, f"{pair}-traced", traced=True)
                self.samples[c.metric] += [s0, s1]
                if s1.ok:
                    own = span_stats(self.work / "spans" / f"{c.metric}-{pair}-traced.npz")
                    merge(stats, own)
                    self.profile.setdefault(c.metric, {
                        k: round(v.s, 6) for k, v in own.items() if v.calls})
                    if self._digest(c, f"{pair}") != self._digest(c, f"{pair}-traced"):
                        s1.problems.append("traced outputs differ from untraced")
                untraced_total += s0.wall_s
                traced_total += s1.wall_s
            plain.append(untraced_total)
            traced.append(traced_total)
            pair += 1
            if time.perf_counter() + (time.perf_counter() - t) > deadline:
                return stats, pair, plain, traced

    def _digest(self, cmd: Command, tag: str) -> dict:
        out = self.work / "out" / f"{cmd.metric}-{tag}"
        return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*.csv"))}

    def counts(self) -> tuple[int, int]:
        every = [s for ss in self.samples.values() for s in ss]
        return len(every), sum(not s.ok for s in every)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_ENV}


def run_workload(workload: str, seed: int | None, seconds: float,
                 trace: bool, work_root: Path, tiny: bool = False) -> dict:
    work = work_root / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, seed, tiny, work)
    bench.prepare()
    detail = {"workload": workload, "seed": bench.seed, "seconds": seconds,
              "trace": int(trace), "tiny": tiny, "machine": machine_facts()}
    if trace:
        stats, passes, plain, traced = bench.measure_traced(seconds)
        metrics = layer_metrics(stats, passes)
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        detail.update(traced_passes=passes, untraced_total_s=plain,
                      traced_total_s=traced)
    else:
        bench.measure(seconds)
        metrics = end_to_end(bench, detail)
    attempted, failed = bench.counts()
    detail["commands"] = {
        m: {"samples": [round(s.wall_s, 6) for s in ss],
            "codes": [s.code for s in ss],
            "problems": [p for s in ss for p in s.problems]}
        for m, ss in bench.samples.items()}
    detail["records"] = bench.records
    if bench.profile:
        detail["traced_span_s"] = bench.profile
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u}
                        for k, (v, u) in metrics.items()},
            "detail": detail}


def end_to_end(bench: Bench, detail: dict) -> dict:
    walls = {m: [s.wall_s for s in ss] for m, ss in bench.samples.items()}
    cpus = {m: [s.cpu_s for s in ss] for m, ss in bench.samples.items()}
    every = [s for ss in bench.samples.values() for s in ss]
    attempted, failed = bench.counts()
    medians = {m: statistics.median(w) for m, w in walls.items()}
    detail["per_command"] = {
        m: {"median_s": medians[m], "quartiles_s": quartiles(w),
            "count": len(w)} for m, w in walls.items()}
    if "simulate_s" in medians:
        detail["per_command"]["reps_per_s"] = (
            bench.doc["simulation"]["reps"] / medians["simulate_s"])
    detail["failed_ops_ratio"] = failed / attempted
    detail["setup_s_samples"] = bench.setup
    return {
        "setup_s": (statistics.median(bench.setup), "s"),
        "total_s": (sum(medians.values()), "s"),
        "cpu_s": (sum(statistics.median(c) for c in cpus.values()), "s"),
        "peak_rss_mb": (max(s.rss_mb for s in every), "MB"),
        "ok_ops_ratio": (1.0 - failed / attempted, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the config's master_seed)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of the workload's own")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eivreg" / "__init__.py").is_file():
        print(f"error: no eivreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), ROOT / ".bench_work", args.tiny)
    detail = result.pop("detail")
    (ROOT / ".bench_work" / args.workload / "result.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1), encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for name, info in detail.get("per_command", {}).items():
        print(f"# {name}: {json.dumps(info)}")
    print(f"# machine: {json.dumps(detail['machine'])}")
    for name, info in detail["commands"].items():
        for problem in info["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
