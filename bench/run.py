"""koszulflow benchmark: end-to-end and per-layer metrics of the CLI.

Run from the repository root::

    python3 bench/run.py --workload flow1d --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each
    python3 bench/run.py --compare PARENT CHANGE   # two result sets
    python3 bench/run.py --record-reference        # rewrite bench/reference.json

Each workload runs in this one process as a closed loop: one caller issues
the workload's CLI commands back to back through ``koszulflow.cli.main``,
with no threads beyond the BLAS default.  A run first makes its inputs from
the seed, then makes one untimed pass on the default seed's inputs, which
warms caches and checks outputs against ``bench/reference.json``.  It then
repeats timed passes on the seed's inputs until ``--seconds`` have passed;
``run_s`` is the 90th percentile of the pass times (see ``p90``).
Outputs are checked after every command, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes traced by ``bench/spans.py`` and prints the
per-layer metrics, each per pass, with ``trace_overhead``.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
Results, with the environment record, are also written to
``.bench_runs/results/`` and spans to ``.bench_runs/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from spans import ROOT, TARGETS, Tracer  # noqa: E402

REFERENCE_FILE = os.path.join(HERE, "reference.json")
RUNS_DIR = ".bench_runs"
SETUP_REPEATS = 9
MIN_PASSES = 4          # untraced runs: enough passes for a percentile
MIN_TRACE_PASSES = 4    # two untraced and two traced
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Child process timed by setup_s: interpreter start until the CLI is ready.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import koszulflow.cli as cli; "
    "cli.build_parser(); print('ready', flush=True)"
)


class BenchError(Exception):
    """The benchmark cannot run here (no program source, bad arguments)."""


# --- environment --------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            return handle.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        if level:
            out[f"L{level} {kind}"] = _read(f"{base}/{index}/size")
    return out


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # numpy < 2 has no dict mode; the record is informational
        return "unknown"


def _git_commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):  # never report an enclosing repository
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest(src: str) -> str:
    """SHA-256 over the program's Python sources, in path order."""
    digest = hashlib.sha256()
    package = os.path.join(src, "koszulflow")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def working_set_note(workload: wl.Workload, caches: dict[str, str]) -> str:
    """The largest field array the workload touches, against the L3 size."""
    nodes = int(np.prod(workload.sizes))
    n = workload.ndim
    largest = nodes * n ** 4 * 8  # full curvature array (*shape, n, n, n, n) in float64
    l3 = next((v for k, v in caches.items() if k.startswith("L3")), "unknown")
    return (f"largest field array {largest / 2**20:.1f} MiB ({nodes} nodes x {n ** 4} float64) "
            f"fits in the shared L3 ({l3}); grid.stencil_bytes is therefore a computed "
            f"count, not a DRAM bandwidth measurement")


def environment(root: str, src: str, workload: wl.Workload, seed: int) -> dict:
    caches = _caches()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(src),
        "workload": workload.name,
        "seed": seed,
        "default_seed": wl.DEFAULT_SEED,
        "working_set": working_set_note(workload, caches),
    }


# --- program access -------------------------------------------------------------

def program_source(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "koszulflow", "cli.py")):
        raise BenchError(f"no program source at {src}/koszulflow; run from the repository root")
    return src


def import_cli(src: str):
    sys.path.insert(0, src)
    import koszulflow.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise BenchError(f"imported koszulflow from {cli.__file__}, not from {src}")
    return cli


def measure_setup(src: str) -> list[float]:
    """Wall seconds from process start until the CLI is imported and ready."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE, src],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        _, err = proc.communicate(timeout=60)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError(f"setup probe failed: {err.decode(errors='replace')[-500:]}")
    return samples


def run_command(cli, inputs: wl.InputSet, cmd: wl.Command, tracer, cmd_id: int):
    """Run one CLI command; returns (seconds, exit code, captured output)."""
    wl.clear_outputs(inputs, cmd)
    argv = inputs.argv(cmd)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                code = tracer.command(cmd_id, cli.main, argv) if tracer else cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed command, not a failed benchmark
                traceback.print_exc()
                code = 1
            seconds = time.perf_counter() - start
    return seconds, code, captured.getvalue()


# --- statistics ------------------------------------------------------------------

def tail_percentile(samples) -> tuple[str, float]:
    """Highest of p99 and p90 with at least ten samples beyond it, else p50."""
    n = len(samples)
    if n == 0:
        return "none", 0.0
    for label, q in (("p99", 99.0), ("p90", 90.0)):
        if n * (100.0 - q) / 100.0 >= 10:
            return label, float(np.percentile(samples, q))
    return "p50", float(np.percentile(samples, 50))


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def p90(values) -> float:
    """Pass times are reported by their 90th percentile.  This VM runs up to
    2x faster in bursts of seconds to minutes when its neighbours are idle,
    so the share of fast passes varies from run to run, while the slow,
    contended pace recurs in nearly every run.  Over four sets of ten runs
    per workload, the worst quartile spread across seeds was 0.21 for the
    90th percentile against 0.39 for the median."""
    return float(np.percentile(values, 90)) if values else 0.0


# --- one workload ------------------------------------------------------------------

def load_reference() -> dict:
    try:
        with open(REFERENCE_FILE, encoding="ascii") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


class Run:
    """State of one workload run: inputs, counters, timings, failures."""

    def __init__(self, cli, workload: wl.Workload, seed: int, work: str):
        self.cli = cli
        self.workload = workload
        self.reference = load_reference().get(workload.name, {})
        self.ref_inputs = wl.make_inputs(workload, wl.DEFAULT_SEED, os.path.join(work, "default"))
        self.inputs = self.ref_inputs if seed == wl.DEFAULT_SEED else \
            wl.make_inputs(workload, seed, os.path.join(work, f"seed{seed}"))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.bit_exact = 0
        self.pass_s = {False: [], True: []}  # keyed by traced
        self.verb_s = {cmd.slug: [] for cmd in workload.commands}

    def _command(self, inputs, cmd, tracer, reference, failures=()) -> float:
        seconds, code, output = run_command(self.cli, inputs, cmd, tracer, self.attempted)
        self.attempted += 1
        failures = [*failures, *wl.check_command(inputs, cmd, code, reference)]
        if failures:
            self.failed += 1
            if code != 0:
                failures.append(f"{cmd.verb} output: {output.strip()[-300:]}")
            self.failures += failures
        return seconds

    def reference_pass(self) -> None:
        """Untimed pass on the default seed: warm-up, reference values, hashes."""
        for cmd in self.workload.commands:
            ref = self.reference.get(cmd.slug)
            missing = [] if ref else [f"{cmd.verb}: no reference recorded in {REFERENCE_FILE}"]
            self._command(self.ref_inputs, cmd, None, ref, missing)
            recorded = (ref or {}).get("hashes", {})
            got = wl.output_hashes(self.ref_inputs, cmd)
            self.bit_exact += sum(1 for name, h in got.items() if recorded.get(name) == h)

    def timed_passes(self, seconds: float, tracer) -> None:
        minimum = MIN_TRACE_PASSES if tracer else MIN_PASSES
        begin = time.perf_counter()
        index = 0
        while index < minimum or time.perf_counter() - begin < seconds:
            traced = tracer is not None and index % 2 == 1
            total = 0.0
            for cmd in self.workload.commands:
                took = self._command(self.inputs, cmd, tracer if traced else None, None)
                total += took
                if not traced:
                    self.verb_s[cmd.slug].append(took)
            self.pass_s[traced].append(total)
            index += 1


def end_to_end_metrics(run: Run, setup: list[float]) -> dict:
    return {
        "setup_s": (median(setup), "s"),
        "run_s": (p90(run.pass_s[False]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - run.failed / run.attempted, "ratio"),
    }


VERBS = tuple(dict.fromkeys(cmd.slug for w in wl.WORKLOADS.values() for cmd in w.commands))


def per_layer_metrics(run: Run, tracer: Tracer) -> tuple[dict, list[str], dict]:
    """Per-layer metrics per traced pass, the absent ones, and notes."""
    summary = tracer.summary()
    n = max(len(run.pass_s[True]), 1)

    def get(span, key, default=0.0):
        return summary.get(span, {}).get(key, default)

    def ms(span):
        return 1e3 * get(span, "durations", np.zeros(0))

    def p50(samples):
        return float(np.median(samples)) if samples.size else 0.0

    steps, halvings = get("flow.step", "calls") / n, get("flow.step", "value") / n
    step_label, step_tail = tail_percentile(ms("flow.step"))
    untraced, traced = median(run.pass_s[False]), median(run.pass_s[True])
    margin_evals = tracer.calls_under("geometry.min_eig", ("criteria.max_s", "criteria.a2_margin"))
    # name: (value, unit, span the value comes from)
    rows = {
        "grid.stencil_calls": (get("grid.stencil", "calls") / n, "count", "grid.stencil"),
        "grid.stencil_s": (get("grid.stencil", "total_s") / n, "s", "grid.stencil"),
        "grid.stencil_bytes": (get("grid.stencil", "value") / n, "bytes-computed", "grid.stencil"),
    }
    for metric, span in (("beta_form", "geometry.beta_form"),
                         ("metric_check", "geometry.metric_check"),
                         ("min_eig", "geometry.min_eig")):
        rows[f"geometry.{metric}_calls"] = (get(span, "calls") / n, "count", span)
        rows[f"geometry.{metric}_s"] = (get(span, "total_s") / n, "s", span)
    for metric in ("q_metric", "gnorm", "pencil", "torsion", "riemann", "christoffel",
                   "q_potential", "sectional"):
        span = f"geometry.{metric}"
        rows[f"{span}_s"] = (get(span, "total_s") / n, "s", span)
    rows |= {
        "flow.steps": (steps, "count", "flow.step"),
        "flow.step_s": (get("flow.step", "total_s") / n, "s", "flow.step"),
        "flow.step_ms_p50": (p50(ms("flow.step")), "ms", "flow.step"),
        "flow.step_ms_p99": (step_tail, "ms", "flow.step"),
        "flow.stable_dt_s": (get("flow.stable_dt", "total_s") / n, "s", "flow.stable_dt"),
        "flow.halvings": (halvings, "count", "flow.step"),
        "flow.accept_ratio": (steps / (steps + halvings) if steps else 0.0, "ratio", "flow.step"),
        "flow.diag_rows": (get("flow.diag", "calls") / n, "count", "flow.diag"),
        "flow.diag_s": (get("flow.diag", "total_s") / n, "s", "flow.diag"),
        "flow.diag_ms_p50": (p50(ms("flow.diag")), "ms", "flow.diag"),
        "flow.equivalence_s": (get("flow.equivalence", "total_s") / n, "s", "flow.equivalence"),
        "criteria.max_s_s": (get("criteria.max_s", "total_s") / n, "s", "criteria.max_s"),
        "criteria.margin_evals": (margin_evals / n, "count", "criteria.max_s"),
        "io.write_s": (get("io.write", "total_s") / n, "s", "io.write"),
        "io.bytes_written": (get("io.write", "value") / n, "bytes", "io.write"),
        "io.read_s": (get("io.read", "total_s") / n, "s", "io.read"),
        "io.bytes_read": (get("io.read", "value") / n, "bytes", "io.read"),
        "io.outputs_bit_exact": (float(run.bit_exact), "count", None),
        "cli.self_s": (get(ROOT, "self_s") / n, "s", None),
        "trace_overhead": (traced / untraced - 1.0 if untraced else 0.0, "ratio", None),
    }
    for slug in VERBS:
        rows[f"cli.{slug}_s"] = (p90(run.verb_s.get(slug, [])), "s", None)

    sources: dict[str, set[str]] = {}
    for module, attr, span in TARGETS:
        sources.setdefault(span, set()).add(f"{module}.{attr}")
    missing = set(tracer.absent)
    absent = [name for name, (_, _, span) in rows.items() if span and sources[span] <= missing]
    notes = {
        "flow.step_ms_p99": f"{step_label} of {ms('flow.step').size} traced steps",
        "grid.stencil_bytes": "computed from array sizes, not measured",
        "io.outputs_bit_exact": "informational, outputs of the default-seed pass",
        "trace_overhead": f"traced {traced:.4g} s / untraced {untraced:.4g} s per pass - 1",
    }
    return {name: (val, unit) for name, (val, unit, _) in rows.items()}, absent, notes


# --- output ----------------------------------------------------------------------

def print_lines(title: str, metrics: dict, absent=(), notes=None) -> None:
    print(f"== {title}")
    for name, (val, unit) in metrics.items():
        shown = "absent" if name in absent else f"{val:.6g} {unit}"
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"  {name:28s} {shown}{note}")


def run_workload(args) -> int:
    root = os.getcwd()
    src = program_source(root)
    workload = wl.WORKLOADS[args.workload]
    setup = [] if args.trace else measure_setup(src)
    cli = import_cli(src)
    runs = os.path.join(root, RUNS_DIR)
    work = os.path.join(runs, "work", f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    env = environment(root, src, workload, args.seed)
    tracer = Tracer() if args.trace else None
    try:
        run = Run(cli, workload, args.seed, work)
        run.reference_pass()
        run.timed_passes(args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("== environment")
    for key, val in env.items():
        print(f"  {key}: {val}")
    if run.failures:
        print("== failed checks")
        for msg in run.failures:
            print(f"  {msg}")
    absent: list[str] = []
    if args.trace:
        metrics, absent, notes = per_layer_metrics(run, tracer)
        traces = os.path.join(runs, "traces")
        os.makedirs(traces, exist_ok=True)
        tracer.save(os.path.join(traces, f"{workload.name}-seed{args.seed}.npz"))
    else:
        metrics = end_to_end_metrics(run, setup)
        notes = {"run_s": f"90th percentile of {len(run.pass_s[False])} passes",
                 "setup_s": f"median of {len(setup)} process starts"}
    declared = [m["name"] for m in benchmark_spec()["per_layer" if args.trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        raise BenchError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    extras = {} if args.trace else {
        f"{slug}_s": (p90(times), "s") for slug, times in run.verb_s.items()
    }
    extras["fail_frac"] = (run.failed / run.attempted, "ratio")
    print_lines(f"{workload.name} seed={args.seed} trace={args.trace} metrics", metrics, absent, notes)
    print_lines("per-command and failure detail", extras)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "absent": absent,
        "failures": run.failures,
        "passes": {"untraced_s": run.pass_s[False], "traced_s": run.pass_s[True]},
        "setup_samples_s": setup,
        "environment": env,
    }
    results = os.path.join(runs, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results, f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-"
                           f"{os.getpid()}.json"), "w", encoding="ascii") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    results = {}
    for name in wl.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    print("== summary")
    ok = True
    for name, res in results.items():
        if res is None:
            print(f"  {name}: did not complete")
            ok = False
            continue
        ok &= res["correct"]
        shown = "" if args.trace else ", ".join(
            f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"  {name}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {shown}")
    return 0 if ok else 1


def record_reference() -> int:
    """Write bench/reference.json from one default-seed pass per workload."""
    root = os.getcwd()
    src = program_source(root)
    cli = import_cli(src)
    out = {"source_sha256": source_digest(src), "git_commit": _git_commit(root)}
    work = os.path.join(root, RUNS_DIR, "work", f"reference-{os.getpid()}")
    try:
        for name, workload in wl.WORKLOADS.items():
            inputs = wl.make_inputs(workload, wl.DEFAULT_SEED, os.path.join(work, name))
            entry = {}
            for k, cmd in enumerate(workload.commands):
                _, code, output = run_command(cli, inputs, cmd, None, k)
                failures = wl.check_command(inputs, cmd, code, None)
                if failures:
                    raise BenchError(f"{name}: {failures} {output[-300:]}")
                entry[cmd.slug] = {"values": wl.observed_values(inputs, cmd),
                                   "hashes": wl.output_hashes(inputs, cmd)}
            out[name] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE_FILE, "w", encoding="ascii") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


def benchmark_spec() -> dict:
    try:
        with open("BENCHMARK.json", encoding="ascii") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json in {os.getcwd()}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two result sets (directories or JSON lists)")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite bench/reference.json from the current program")
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = benchmark_spec()["run_seconds"]
        if args.compare:
            import compare

            return compare.main(*args.compare, benchmark_spec())
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
