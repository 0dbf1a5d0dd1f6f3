"""Runner for one workload: repeated set-up, a closed loop of whole cycles, metrics.

One caller runs the ops back to back (closed loop, one client).  Each op's
library call is timed with ``perf_counter_ns``; input generation and output
checks sit outside the timed interval.  An untraced run yields the end-to-end
metrics.  A traced run first runs untraced for a third of its time, then
installs the tracer, sets up once more and runs the rest traced; the per-layer
metrics come from the traced part and the tracing overhead is the difference
of the two parts' ``ops_per_s``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np
import scipy

from tracing import END, ERROR, LAYER, LAYERS, NAME, PHASE, SKIPPED, START, TRIALS, Tracer
from workloads import WORKLOADS, Inputs

SETUP_REPEATS = 3
SETUP_STREAM = 1_000_000

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cycle_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# the per-op latencies the workloads were built around; printed where the kind runs
NAMED_OPS = {
    "eval.p50_ms": "eval.power",
    "eval_complex.p50_ms": "eval_complex.power",
    "order.p50_ms": "order.large_ordered",
    "mean.p50_ms": "mean.power_wide",
    "cli_eval.p50_ms": "cli.eval_large",
    "cli_realize.p50_ms": "cli.realize_large",
}

TIMED_FUNCTIONS = ("shorted.shorted_operator", "numlin.loewner_leq", "numlin.operator_norm",
                   "numlin.random_pd", "measures.stochastic_leq", "measures.power_mean",
                   "jsonio.realization_to_json", "jsonio.dumps", "jsonio.realization_from_json")
BUILD_TAGS = ("power", "geomean", "harmonic", "arithmetic", "cauchy")
SUITE_FUNCTIONS = {"axioms": "check_free_axioms", "monotone": "check_monotone",
                   "concave": "check_concave", "jensen": "check_jensen_isometry",
                   "herglotz": "check_herglotz", "hypograph": "check_hypograph_saturation"}
CLI_COMMANDS = ("realize", "eval", "verify", "order", "mean", "schur", "decompose")


def per_layer_names() -> list:
    names = []
    for fn, paths in (("eval", ("arrowhead", "generic", "scalar")),
                      ("eval_complex", ("arrowhead", "generic"))):
        for path in paths:
            names += [(f"pencil.{fn}.{path}.calls", "count"), (f"pencil.{fn}.{path}.self_ms", "ms")]
    names.append(("pencil.domain_errors", "count"))
    names += [(f"{layer}.share", "ratio") for layer in (*LAYERS, "bench")]
    for fn in TIMED_FUNCTIONS:
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_ms", "ms")]
    for tag in BUILD_TAGS:
        names += [(f"builders.build_realization.{tag}.calls", "count"),
                  (f"builders.build_realization.{tag}.self_ms", "ms")]
    for suite in SUITE_FUNCTIONS:
        names += [(f"verify.{suite}.ms_per_trial", "ms"), (f"verify.{suite}.self_ms", "ms")]
    names += [("verify.skip_ratio", "ratio"),
              ("measures.check_stochastic_monotone.ms_per_trial", "ms"),
              ("measures.relation_density.ordered", "ratio"),
              ("measures.relation_density.independent", "ratio"),
              ("jsonio.realization_bytes.large_file", "bytes"),
              ("jsonio.realization_bytes.small_file", "bytes")]
    names += [(f"cli.{cmd}.self_ms", "ms") for cmd in CLI_COMMANDS]
    names.append(("trace.overhead_ops_per_s", "1/s"))
    return names


class HostSpeed:
    """Program-independent probe of how fast the host runs right now.

    The shared host switches between a slow and a fast regime (about 1.45x
    apart, in episodes of seconds to tens of seconds), so raw wall times of
    whole runs are bimodal.  The probe times a fixed kernel of the same kind of
    work the workloads do (a Python loop, small LAPACK calls, JSON and
    hex-float text) and never touches the library, so a change to the library
    cannot move it.
    """

    REFERENCE_MS = 0.5

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 24, 24))
        self._mats = a + a.transpose(0, 2, 1)
        self._floats = rng.standard_normal(150).tolist()

    def _kernel(self) -> None:
        acc = 0
        for i in range(800):
            acc += i * i
        np.linalg.eigh(self._mats)
        text = json.dumps([x.hex() for x in self._floats])
        [float.fromhex(x) for x in json.loads(text)]

    def probe_ms(self) -> float:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter_ns()
            self._kernel()
            best = min(best, time.perf_counter_ns() - t0)
        return best / 1e6


class Record(NamedTuple):
    phase: str
    kind: str
    ns: int          # wall time of the call
    norm_ns: float   # wall time scaled to the reference host speed
    ok: bool
    cycle: int
    trials: int
    probe_ms: float


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, scale: str, workdir: str):
        self.workload = WORKLOADS[workload](scale)
        self.input_digest = hashlib.sha256()
        self.report_digest = hashlib.sha256()
        self.inputs = Inputs(seed, list(WORKLOADS).index(workload), workdir, self.input_digest)
        self.host = HostSpeed()
        self.records: list = []
        self.counters: dict = defaultdict(lambda: defaultdict(int))
        self.errors: list = []
        self.setups: list = []            # {"ns": wall, "norm_ns": normalized} per set-up
        self.warmup_failures = 0
        self.cycle = 0
        self.tracer: Tracer | None = None

    def _timed(self, fn):
        """Call fn between two host-speed probes: (result or exception, ns, norm_ns, probe)."""
        before = self.host.probe_ms()
        t0 = time.perf_counter_ns()
        try:
            result = fn()
        except Exception as exc:  # a failing op is counted, the loop goes on
            result = exc
        ns = time.perf_counter_ns() - t0
        probe = (before + self.host.probe_ms()) / 2.0
        return result, ns, ns * HostSpeed.REFERENCE_MS / probe, probe

    def _run_op(self, op, phase: str, cycle: int) -> bool:
        """Time one op's call, then check its output; returns whether it passed."""
        tracer = self.tracer
        call = op.call
        if tracer is not None:
            tracer.op += 1
            call = lambda: tracer.span(f"bench.{op.kind}", "bench", op.call)  # noqa: E731
            tracer.recording = True
        out, ns, norm_ns, probe = self._timed(call)
        if tracer is not None:
            tracer.recording = False
        error = None
        if isinstance(out, Exception):
            error = f"{op.kind}: {type(out).__name__}: {out}"
        else:
            try:
                for key, counts in (op.check(out) or {}).items():
                    for sub, value in counts.items():
                        self.counters[(phase, key)][sub] += value
            except Exception as exc:  # includes CheckFailed
                error = f"{op.kind}: check: {type(exc).__name__}: {exc}"
        if error is not None and len(self.errors) < 20:
            self.errors.append(error)
        self.records.append(Record(phase, op.kind, ns, norm_ns, error is None, cycle, op.trials,
                                   probe))
        return error is None

    def setup(self, rep: int):
        """Build the reused state and run one warm-up op of each kind.

        The reported set-up time counts the library's work only: the state
        build plus the warm-up calls, not the warm-up inputs or checks.
        """
        if self.tracer is not None:
            self.tracer.phase = "setup"
            self.tracer.recording = True
        state, ns, norm_ns, _ = self._timed(lambda: self.workload.setup(self.inputs))
        if self.tracer is not None:
            self.tracer.recording = False
        if isinstance(state, Exception):
            raise state
        ops = self.workload.cycle(state, self.inputs, self.inputs.rng(SETUP_STREAM + rep),
                                  self.report_digest)
        first = len(self.records)
        for op in ops:
            if not self._run_op(op, "setup", -1):
                self.warmup_failures += 1
        warm = self.records[first:]
        del self.records[first:]
        self.setups.append({"ns": ns + sum(r.ns for r in warm),
                            "norm_ns": norm_ns + sum(r.norm_ns for r in warm)})
        return state

    def loop(self, state, phase: str, seconds: float, cycles: int) -> None:
        """Run whole cycles until `seconds` have passed, or exactly `cycles` cycles."""
        if self.tracer is not None:
            self.tracer.phase = phase
        start = time.perf_counter()
        done = 0
        while (done < cycles) if cycles else (time.perf_counter() - start < seconds):
            ops = self.workload.cycle(state, self.inputs, self.inputs.rng(self.cycle),
                                      self.report_digest)
            for op in ops:
                self._run_op(op, phase, self.cycle)
            self.cycle += 1
            done += 1

    def execute(self, seconds: float, trace: bool, cycles: int) -> None:
        for rep in range(SETUP_REPEATS):
            state = self.setup(rep)
        self.loop(state, "plain", seconds / 3.0 if trace else seconds, cycles)
        if trace:
            self.tracer = Tracer()
            self.tracer.install()
            try:
                state = self.setup(SETUP_REPEATS)
                self.loop(state, "timed", seconds * 2.0 / 3.0, cycles)
            finally:
                self.tracer.uninstall()

    # -- results ----------------------------------------------------------

    def phase_records(self, phase: str) -> list:
        return [r for r in self.records if r.phase == phase]

    @staticmethod
    def ops_per_s(records, field: str = "norm_ns") -> float:
        return len(records) / (sum(getattr(r, field) for r in records) / 1e9)

    def end_to_end(self, field: str = "norm_ns") -> dict:
        """End-to-end metrics of the untraced loop; normalized times unless field='ns'."""
        recs = self.phase_records("plain")
        ms = np.array([getattr(r, field) for r in recs]) / 1e6
        per_cycle = defaultdict(float)
        for r in recs:
            per_cycle[r.cycle] += getattr(r, field)
        return {
            "setup_s": statistics.median(s[field] for s in self.setups) / 1e9,
            "ops_per_s": self.ops_per_s(recs, field),
            "op_p50_ms": float(np.percentile(ms, 50)),
            "op_p90_ms": float(np.percentile(ms, 90)),
            "cycle_p50_ms": statistics.median(per_cycle.values()) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> tuple:
        """Per-layer metrics from the traced part, and the per-layer table rows."""
        tracer = self.tracer
        own, in_layer = tracer.self_times()
        timed_ns = sum(r.ns for r in self.phase_records("timed"))
        calls = defaultdict(int)
        total = defaultdict(int)
        selfs = defaultdict(int)
        trials = defaultdict(int)
        skipped = defaultdict(int)
        layer_calls = defaultdict(int)
        layer_self = defaultdict(int)
        domain_errors = 0
        for s, o, lo in zip(tracer.spans, own, in_layer):
            timed = s[PHASE] == "timed"
            # the builders layer works mostly in set-up, so its spans count there too
            if not timed and s[LAYER] != "builders":
                continue
            name = s[NAME]
            calls[name] += 1
            total[name] += s[END] - s[START]
            selfs[name] += lo
            trials[name] += s[TRIALS]
            skipped[name] += s[SKIPPED]
            if timed:
                layer_calls[s[LAYER]] += 1
                layer_self[s[LAYER]] += o
                if s[ERROR] == "PencilDomainError" and name.startswith("pencil.eval."):
                    domain_errors += 1
        m = {}
        for fn, paths in (("eval", ("arrowhead", "generic", "scalar")),
                          ("eval_complex", ("arrowhead", "generic"))):
            for path in paths:
                m[f"pencil.{fn}.{path}.calls"] = calls[f"pencil.{fn}.{path}"]
                m[f"pencil.{fn}.{path}.self_ms"] = selfs[f"pencil.{fn}.{path}"] / 1e6
        m["pencil.domain_errors"] = domain_errors
        for layer in (*LAYERS, "bench"):
            m[f"{layer}.share"] = layer_self[layer] / timed_ns if timed_ns else 0.0
        for fn in TIMED_FUNCTIONS:
            m[f"{fn}.calls"] = calls[fn]
            m[f"{fn}.self_ms"] = selfs[fn] / 1e6
        for tag in BUILD_TAGS:
            m[f"builders.build_realization.{tag}.calls"] = calls[f"builders.build_realization.{tag}"]
            m[f"builders.build_realization.{tag}.self_ms"] = (
                selfs[f"builders.build_realization.{tag}"] / 1e6)
        suite_trials = suite_skipped = 0
        for suite, fn in SUITE_FUNCTIONS.items():
            key = f"verify.{fn}"
            m[f"verify.{suite}.ms_per_trial"] = total[key] / 1e6 / trials[key] if trials[key] else 0.0
            m[f"verify.{suite}.self_ms"] = selfs[key] / 1e6
            suite_trials += trials[key]
            suite_skipped += skipped[key]
        m["verify.skip_ratio"] = suite_skipped / suite_trials if suite_trials else 0.0
        key = "measures.check_stochastic_monotone"
        m[f"{key}.ms_per_trial"] = total[key] / 1e6 / trials[key] if trials[key] else 0.0
        for kind in ("ordered", "independent"):
            c = self.counters[("timed", f"relation.{kind}")]
            m[f"measures.relation_density.{kind}"] = c["edges"] / c["pairs"] if c["pairs"] else 0.0
        for label in ("large_file", "small_file"):
            c = self.counters[("timed", f"realization_bytes.{label}")]
            m[f"jsonio.realization_bytes.{label}"] = c["bytes"] / c["files"] if c["files"] else 0.0
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}.self_ms"] = selfs[f"cli.main.{cmd}"] / 1e6
        m["trace.overhead_ops_per_s"] = (self.ops_per_s(self.phase_records("timed"))
                                         - self.ops_per_s(self.phase_records("plain")))
        rows = [(layer, layer_calls[layer], layer_self[layer] / 1e6,
                 layer_self[layer] / timed_ns if timed_ns else 0.0)
                for layer in (*LAYERS, "bench")]
        return m, rows

    def kind_table(self, phase: str) -> list:
        """Per op kind: count, raw p50 and p90, normalized p50 (all ms), raw total (ms)."""
        by_kind = defaultdict(list)
        for r in self.phase_records(phase):
            by_kind[r.kind].append(r)
        rows = []
        for kind, recs in by_kind.items():
            raw = [r.ns / 1e6 for r in recs]
            norm = [r.norm_ns / 1e6 for r in recs]
            rows.append((kind, len(recs), float(np.percentile(raw, 50)),
                         float(np.percentile(raw, 90)), float(np.percentile(norm, 50)), sum(raw)))
        return rows


def environment(root: str, workload) -> dict:
    """Machine, library versions and the workload's largest working array."""
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if entry.startswith("index"):
                with open(f"{base}/{entry}/level") as fh:
                    level = fh.read().strip()
                with open(f"{base}/{entry}/size") as fh:
                    caches[f"L{level}"] = fh.read().strip()
    except OSError:
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    desc, nbytes = workload.largest_array()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(root),
        "largest_array": {"what": desc, "bytes": int(nbytes)},
    }


def git_commit(root: str) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(run: Run, args, root: str) -> dict:
    """Print the human tables and return the final result object."""
    out = sys.stdout
    out.write(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} scale={args.scale}\n")
    out.write("env " + json.dumps(environment(root, run.workload), sort_keys=True) + "\n")
    phase = "timed" if args.trace else "plain"
    out.write(f"{'op kind':28s} {'count':>6s} {'p50_ms':>10s} {'p90_ms':>10s} "
              f"{'p50_norm_ms':>12s} {'total_ms':>10s}\n")
    table = run.kind_table(phase)
    for kind, count, p50, p90, p50_norm, tot in table:
        out.write(f"{kind:28s} {count:6d} {p50:10.3f} {p90:10.3f} {p50_norm:12.3f} {tot:10.1f}\n")
    recs = run.phase_records("plain") + run.phase_records("timed")
    attempted = len(recs)
    failed = sum(1 for r in recs if not r.ok)
    probes = np.array([r.probe_ms for r in recs])
    out.write(f"host probe_ms p10 {np.percentile(probes, 10):.3f} p50 {np.percentile(probes, 50):.3f} "
              f"p90 {np.percentile(probes, 90):.3f} (reference {HostSpeed.REFERENCE_MS} ms)\n")
    norm_p50 = {kind: p for kind, _, _, _, p, _ in table}
    for name, kind in NAMED_OPS.items():
        if kind in norm_p50:
            out.write(f"{name} {norm_p50[kind]!r} ms\n")
    suite = [r for r in run.phase_records(phase) if r.kind.startswith("suite.")]
    if suite:
        rate = sum(r.trials for r in suite) / (sum(r.norm_ns for r in suite) / 1e9)
        out.write(f"suite.trials_per_s {rate!r} 1/s\n")
    out.write(f"fail_frac {failed / attempted if attempted else 1.0!r} ratio "
              f"({failed} of {attempted} ops)\n")
    if not args.trace:
        for name, value in run.end_to_end("ns").items():
            out.write(f"raw.{name} {float(value)!r} {dict(END_TO_END)[name]}\n")
    for err in run.errors:
        out.write(f"error {err}\n")
    if args.trace:
        metrics, rows = run.per_layer()
        units = dict(per_layer_names())
        out.write(f"{'layer':10s} {'calls':>9s} {'self_ms':>12s} {'share':>7s}\n")
        for layer, calls, self_ms, share in rows:
            out.write(f"{layer:10s} {calls:9d} {self_ms:12.1f} {share:7.3f}\n")
        path = os.path.join(root, ".bench_trace", f"{args.workload}.tsv")
        run.tracer.write(path)
        out.write(f"trace {len(run.tracer.spans)} spans written to {os.path.relpath(path, root)}\n")
    else:
        metrics = run.end_to_end()
        units = dict(END_TO_END)
    for name, value in metrics.items():
        out.write(f"{name} {float(value)!r} {units[name]}\n")
    out.write("digests " + json.dumps({"inputs": run.input_digest.hexdigest(),
                                       "reports": run.report_digest.hexdigest()}) + "\n")
    correct = failed == 0 and run.warmup_failures == 0 and attempted > 0
    if not math.isfinite(sum(float(v) for v in metrics.values())):
        correct = False
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(v), "unit": units[name]}
                        for name, v in metrics.items()}}
