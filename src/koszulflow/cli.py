"""Command-line front end.

Verbs: ``examples``, ``curvature``, ``flow-run``, ``flow-compare``,
``a2-check``, ``smoothing-probe``.  Each file-writing command takes
``--config PATH`` (flat ``key = value`` text, ``#`` comments) and
``--out DIR``, writes exactly one ``manifest.json``, with the run's seed, into
the output directory, and is deterministic for a fixed config and seed.  The
file-writing commands are the rows of :data:`VERBS`, each one function
``report(run) -> (printed lines, {file: writer}, extra manifest keys,
blowup)``; one runner, :func:`_run_verb`, loads their config, times their
report, maps their errors to exit codes and writes their outputs.

Exit codes:

* 0 success;
* 2 invalid input: an unreadable config, an unknown key or a value of the
  wrong type, a non-finite float, a missing or non-positive required key,
  a malformed ``--probe``, an ``--out`` that names an existing file or lies
  below one, ``sizes`` of the wrong dimension, below 8 nodes or beside a
  potential snapshot, an unreadable or malformed potential snapshot (an
  unknown layout, ``n`` disagreeing with ``sizes``, a payload of the wrong
  length, non-finite values, a background that is not n*n finite numbers
  or not positive definite), a metric whose ``log det`` or a2 margin
  overflows, a step control or sample times the integrators reject
  (``sigma`` outside ``(0, 1]``, ``dt_min <= 0``, ``max_halvings < 0``,
  ``diag_stride < 0``, ``sample_times`` outside ``[0, T]``), an input too
  large to allocate (say, ``sizes`` or ``n_samples`` of 10^15), or an
  output that cannot be written (say, an output file name taken by a
  directory);
* 3 flow blow-up: positivity failed beyond the halving budget; the printed
  lines and outputs of every flow verb (``flow-run``, ``flow-compare``,
  ``smoothing-probe``) hold the partial result up to the last valid time,
  which the manifest records with the offending node;
* 4 positivity failure in the input metric itself.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Mapping

import numpy as np

from . import __version__
from . import criteria as cr
from . import flow as fl
from . import geometry as geo
from . import registry as reg
from .grid import PeriodicGrid, ScalarField
from .io import (
    MANIFEST_NAME,
    ConfigError,
    format_float,
    load_config,
    read_snapshot,
    validate_config,
    write_csv,
    write_manifest,
    write_snapshot,
    write_text,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NOT_PD = 4

_INPUT_KEYS = {"example": "str", "potential": "str", "sizes": "ints", "seed": "int"}
_STEP_KEYS = {"sigma": "float", "scheme": "str", "dt_min": "float", "max_halvings": "int"}


def _build_input(cfg: Mapping[str, object], seed: int | None):
    """Instantiate the configured metric source: a registry example or a
    potential snapshot.  Returns (PotentialMetric | MetricField, label)."""
    has_example = "example" in cfg
    has_potential = "potential" in cfg
    if has_example == has_potential:
        raise ConfigError("config must set exactly one of 'example' or 'potential'")
    if has_example:
        name = str(cfg["example"])
        try:
            built = reg.build_example(name, sizes=cfg.get("sizes"), seed=seed)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        return built, name
    path = str(cfg["potential"])
    if "sizes" in cfg:
        raise ConfigError(f"potential snapshot {path} sets the grid: drop 'sizes' from the config")
    try:
        grid, data, _, fields = read_snapshot(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot read potential snapshot {path}: {exc}") from exc
    if data.shape[-1] != 1:
        raise ConfigError(f"potential snapshot {path}: must have one component, got {data.shape[-1]}")
    if "background" not in fields:
        raise ConfigError(f"potential snapshot {path}: header lacks the 'background' key")
    n, text = grid.ndim, fields["background"]
    try:
        background = np.array(text.split(","), dtype=np.float64).reshape(n, n)
        if not np.isfinite(background).all():
            raise ValueError("an entry is not finite")
    except ValueError as exc:
        raise ConfigError(f"potential snapshot {path}: bad background {text!r}: {exc}") from exc
    pm = geo.PotentialMetric(grid, background, ScalarField(grid, data[..., 0]))
    return pm, os.path.basename(path)


def write_potential_snapshot(path: str, pm: geo.PotentialMetric) -> None:
    """Snapshot of a potential metric: psi plus the background in the header."""
    background = ",".join(format_float(v) for v in pm.background.ravel())
    write_snapshot(path, pm.grid, pm.psi.values, extra={"background": background})


def _parse_probe(probe: str | None, grid: PeriodicGrid):
    if probe is None:
        return None
    try:
        coords = tuple(float(v) for v in probe.split(","))
        return grid.nearest_node(coords)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad --probe {probe!r}: {exc}") from exc


@dataclass(frozen=True)
class Run:
    """The validated input of one verb run."""

    raw: Mapping[str, str]  # the config as written, for the manifest
    cfg: dict
    label: str
    g: geo.MetricField
    pm: geo.PotentialMetric | None  # None for a non-Hessian input
    control: fl.StepControl
    seed: int | None  # --seed, else the config's seed, else None
    node: tuple[int, ...] | None  # the --probe node


@dataclass(frozen=True)
class Verb:
    """One file-writing command.

    ``report(run)`` is the timed work: it returns ``(printed lines,
    {file name: writer(path)}, extra manifest keys, blowup)``.  ``blowup``
    is None, or the FlowBlowup that ended a flow verb, whose lines and
    files then hold the partial result it carried.
    """

    help: str
    schema: Mapping[str, str]
    report: Callable[[Run], tuple[list[str], dict, dict, fl.FlowBlowup | None]]
    required: tuple[str, ...] = ()
    positive: tuple[str, ...] = ()
    needs_out: bool = True
    probe: bool = False


def _given(cfg: Mapping[str, object], keys) -> dict:
    """The entries of ``cfg`` among ``keys``: the keyword arguments a verb
    passes on, so every default lives in the library alone."""
    return {key: cfg[key] for key in keys if key in cfg}


def _until_blowup(driver: Callable, *args, **kwargs):
    """``(driver(*args, **kwargs), None)``, or ``(partial, blowup)`` where a
    FlowBlowup ends the driver: the partial result that blow-up carries."""
    try:
        return driver(*args, **kwargs), None
    except fl.FlowBlowup as exc:
        return exc.partial, exc


# --- curvature ------------------------------------------------------------------

NOT_APPLICABLE = "not applicable (non-Hessian input)"


def _curvature(run: Run):
    cfg, pm, g, node = run.cfg, run.pm, run.g, run.node
    seed = run.seed if run.seed is not None else 0  # the sectional search's seed
    grid = g.grid
    # the sample nodes are drawn first, so the bundle keeps Q's rows there only
    draw = {"seed": seed, **_given(cfg, ("n_samples",))}
    samples = None if pm is None else geo.sectional_samples(grid, **draw)[0]
    bundle = geo.curvature_bundle(g, pm, node, samples)
    alpha, kappa, beta, q = bundle.alpha, bundle.kappa, bundle.beta, bundle.q
    lines = [
        f"input: {run.label}",
        f"grid_sizes: {','.join(str(s) for s in grid.sizes)}",
        f"hessian_defect: {format_float(bundle.hessian_defect)}",
        f"torsion_norm: {format_float(bundle.torsion_norm)}",
        f"sup_gamma_mixed: {format_float(bundle.sup_gamma_mixed)}",
        f"sup_gamma_lower: {format_float(bundle.sup_gamma_lower)}",
        f"sup_alpha: {format_float(geo.sup_abs(alpha))}",
        f"sup_kappa: {format_float(kappa.sup_norm())}",
        f"sup_beta: {format_float(beta.sup_norm())}",
        f"sup_riemann: {format_float(bundle.sup_riemann)}",
    ]

    if q is not None:
        lines.append(f"sup_q: {format_float(q.sup)}")
        report = geo.sectional_extremes(q, g, **draw, **_given(cfg, ("refine_steps",)))
        lines.append(f"sectional_max: {format_float(report.max_value)}")
        lines.append(f"sectional_min: {format_float(report.min_value)}")
        lines.append(f"sectional_seed: {seed}")
        lines.append(f"sectional_samples: {report.samples_used}")
    else:
        for key in ("sup_q", "sectional_max", "sectional_min"):
            lines.append(f"{key}: {NOT_APPLICABLE}")

    if node is not None:
        lines.append(f"probe_node: {','.join(str(k) for k in node)}")
        for i, j in geo.sym_pairs(grid.ndim):
            lines.append(f"beta_{i}{j}@probe: {format_float(beta.component(i, j)[node])}")
            lines.append(f"kappa_{i}{j}@probe: {format_float(kappa.component(i, j)[node])}")
        for i in range(grid.ndim):
            lines.append(f"alpha_{i}@probe: {format_float(alpha[(*node, i)])}")
        lines.append(f"gamma_mixed_000@probe: {format_float(bundle.gamma_mixed_000)}")
        if q is not None:
            lines.append(f"q_0000@probe: {format_float(q.probe[0])}")  # slot 0 stores Q_0000
        else:
            lines.append(f"q_0000@probe: {NOT_APPLICABLE}")

    files = {"report.txt": partial(write_text, lines=lines)}
    if cfg.get("snapshots", False):
        files["metric.hfld"] = partial(write_snapshot, grid=grid, data=g.components)
        files["beta.hfld"] = partial(write_snapshot, grid=grid, data=beta.components)
        if pm is not None:
            files["psi.hfld"] = partial(write_potential_snapshot, pm=pm)
    return lines, files, {}, None


# --- flow-run -------------------------------------------------------------------

def _flow_run(run: Run):
    cfg, grid = run.cfg, run.g.grid
    trajectory: list[fl.FlowState] = []

    def reached(state: fl.FlowState) -> None:
        trajectory[:] = [state]  # only the last state reached is written, so only it is kept

    rows, blowup = _until_blowup(fl._flow_rows, run.g, cfg["T"], run.control, reached,
                                 **_given(cfg, ("sample_times", "diag_stride")))
    outcome, last_t = ("ok", cfg["T"]) if blowup is None else ("blowup", blowup.t)
    header = fl.DiagnosticsRow.csv_header(grid.ndim)
    csv_rows = [r.csv_values() for r in rows]
    files = {"diagnostics.csv": partial(write_csv, header=header, rows=csv_rows)}
    if trajectory:
        final = trajectory[-1]
        snapshot = partial(write_snapshot, grid=grid, t=final.t)
        files["final_metric.hfld"] = partial(snapshot, data=final.g.components)
        files["final_phi.hfld"] = partial(snapshot, data=final.phi.values)
    line = f"flow-run {run.label}: outcome={outcome} last_t={format_float(last_t)}"
    return [line], files, {"last_valid_t": last_t}, blowup


# --- flow-compare ---------------------------------------------------------------

def _flow_compare(run: Run):
    discrepancy, blowup = _until_blowup(fl.equivalence_check, run.g, run.cfg["T"], run.control,
                                        run.cfg["dt"])
    lines = [
        f"input: {run.label}",
        f"T: {format_float(run.cfg['T'])}",
        f"dt: {format_float(run.cfg['dt'])}",
        f"discrepancy: {'blowup' if blowup else format_float(discrepancy)}",
    ]
    return lines, {"compare.txt": partial(write_text, lines=lines)}, {}, blowup


# --- a2-check -------------------------------------------------------------------

def _a2_check(run: Run):
    cfg, g0 = run.cfg, run.g
    gauge = str(cfg.get("gauge", "zero"))
    if gauge not in ("zero", "logdet"):
        raise ConfigError(f"gauge must be 'zero' or 'logdet', got {gauge!r}")
    theta = cfg["theta"]
    scale_with_s = gauge == "logdet"
    u = cr.log_det_gauge(g0) if scale_with_s else ScalarField.zeros(g0.grid)
    lines = [f"input: {run.label}", f"gauge: {gauge}", f"theta: {format_float(theta)}"]
    if "S" in cfg:
        s_probe = cfg["S"]
        u_probe = u * s_probe if scale_with_s else u
        margin = cr.a2_margin(g0, s_probe, u_probe, theta)
        lines.append(f"margin_at_S: {format_float(margin)}")
    try:
        result = cr.max_s(g0, u, theta, scale_gauge_with_s=scale_with_s)
    except cr.InfeasibleAtZero:
        lines.append("S_max: infeasible at S=0")
    else:
        if result.unbounded:
            lines.append("S_max: unbounded")
        else:
            lines.append(f"S_max: {format_float(result.s_max)}")
            lines.append("witness_node: " + ",".join(str(k) for k in result.witness_node))
    return lines, {"a2.txt": partial(write_text, lines=lines)}, {}, None


# --- smoothing-probe ------------------------------------------------------------

def _smoothing_probe(run: Run):
    series, blowup = _until_blowup(fl.smoothing_probe, run.g, run.cfg["t_samples"], run.control)
    lines = [
        f"t={format_float(t)} sup_q={format_float(sup_q)} t_sup_q={format_float(t_sup_q)}"
        for t, sup_q, t_sup_q in series
    ]
    files = {"probe.csv": partial(write_csv, header=["t", "sup_q", "t_sup_q"], rows=series)}
    return lines, files, {}, blowup


VERBS: dict[str, Verb] = {
    "curvature": Verb(
        help="curvature/Koszul report for one metric",
        schema={**_INPUT_KEYS, "n_samples": "int", "refine_steps": "int", "snapshots": "bool"},
        report=_curvature,
        positive=("n_samples", "refine_steps"),
        probe=True,
    ),
    "flow-run": Verb(
        help="integrate the flow and write diagnostics",
        schema={**_INPUT_KEYS, **_STEP_KEYS, "T": "float", "diag_stride": "int",
                "sample_times": "floats"},
        report=_flow_run,
        required=("T",),
        positive=("T",),
    ),
    "flow-compare": Verb(
        help="tensor vs potential flow discrepancy",
        schema={**_INPUT_KEYS, "scheme": "str", "T": "float", "dt": "float"},
        report=_flow_compare,
        required=("T", "dt"),
        positive=("T", "dt"),
    ),
    "a2-check": Verb(
        help="gauge margin and maximal feasible S",
        schema={**_INPUT_KEYS, "S": "float", "theta": "float", "gauge": "str"},
        report=_a2_check,
        required=("theta",),
        positive=("theta",),
        needs_out=False,
    ),
    "smoothing-probe": Verb(
        help="curvature decay series from rough data",
        schema={**_INPUT_KEYS, **_STEP_KEYS, "t_samples": "floats"},
        report=_smoothing_probe,
        required=("t_samples",),
    ),
}


def _prepare(verb: Verb, name: str, args) -> Run:
    """Load, validate and instantiate the input of one verb run."""
    if args.out:
        # os.makedirs can only create --out below an existing directory
        ancestor = os.path.abspath(args.out)
        while not os.path.lexists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            raise ConfigError(f"--out {args.out}: {ancestor} exists and is not a directory")
    raw = load_config(args.config)
    cfg = validate_config(raw, verb.schema)
    for key in verb.required:
        if key not in cfg:
            raise ConfigError(f"{name} requires {key}")
    for key in verb.positive:
        if key in cfg and not cfg[key] > 0:
            raise ConfigError(f"config key {key!r} must be positive, got {cfg[key]}")
    control = fl.StepControl(**_given(cfg, _STEP_KEYS))
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    built, label = _build_input(cfg, seed)
    pm = built if isinstance(built, geo.PotentialMetric) else None
    g = geo.metric_from_potential(pm) if pm is not None else built
    node = _parse_probe(getattr(args, "probe", None), g.grid)
    return Run(raw, cfg, label, g, pm, control, seed, node)


def _run_verb(name: str, args) -> int:
    """Run one file-writing verb; the only place that maps errors to exit
    codes and writes outputs and the manifest.  The manifest's
    ``wall_clock_seconds`` is the ``time.perf_counter`` span of the verb's
    report: its computation and the assembly of its lines and writers,
    not the file writes."""
    verb = VERBS[name]
    try:
        # inputs that overflow end in a non-finite value, which log_det,
        # check_metric and the a2 margin report as exit 2; numpy's own
        # warnings about them would only precede that line on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            run = _prepare(verb, name, args)
            start = time.perf_counter()
            lines, files, extra, blowup = verb.report(run)
            seconds = time.perf_counter() - start
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # numpy's message names the array that could not be allocated
        detail = f" ({exc})" if str(exc) else ""
        print(f"config error: the input does not fit in memory{detail}", file=sys.stderr)
        return EXIT_CONFIG
    except geo.NotPositiveDefinite as exc:
        print(f"positivity failure: {exc}", file=sys.stderr)
        return EXIT_NOT_PD

    if args.out:
        manifest = {
            "command": name,
            "config": dict(run.raw),
            "input": run.label,
            "seed": run.seed,
            "wall_clock_seconds": seconds,
            "outcome": "ok" if blowup is None else "blowup",
            "files": list(files),
        }
        if blowup is not None:
            manifest["last_valid_t"] = blowup.t
            manifest["blowup_node"] = None if blowup.node is None else list(blowup.node)
        target = args.out
        try:
            os.makedirs(target, exist_ok=True)
            for file_name, write in files.items():
                target = os.path.join(args.out, file_name)
                write(target)
            target = os.path.join(args.out, MANIFEST_NAME)
            write_manifest(args.out, {**manifest, **extra})
        except OSError as exc:
            print(f"config error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_CONFIG
    for line in lines:
        print(line)
    return EXIT_OK if blowup is None else EXIT_BLOWUP


def cmd_examples(args) -> int:
    for name in sorted(reg.EXAMPLES):
        spec = reg.EXAMPLES[name]
        sizes = "x".join(str(s) for s in spec.default_sizes)
        seed = f", default seed {reg.ROUGH_DEFAULT_SEED}" if spec.seeded else ""
        print(f"{name} ({spec.kind}, {sizes}{seed}): {spec.doc}")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` keeps
    no state between calls, so every call of :func:`main` shares it."""
    parser = argparse.ArgumentParser(
        prog="koszulflow",
        description="Curvature toolkit and flow integrator for Hessian metrics "
        "on periodic affine charts",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("examples", help="list the built-in example metrics")
    for name, verb in VERBS.items():
        cmd = sub.add_parser(name, help=verb.help)
        cmd.add_argument("--config", required=True, help="key = value config file")
        cmd.add_argument("--out", required=verb.needs_out, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        if verb.probe:
            cmd.add_argument("--probe", default=None, help="comma-separated coordinates to probe")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "examples":
        return cmd_examples(args)
    return _run_verb(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
