"""Command-line front end.

Verbs: ``examples``, ``curvature``, ``flow-run``, ``flow-compare``,
``a2-check``, ``smoothing-probe``.  Each file-writing command takes
``--config PATH`` (flat ``key = value`` text, ``#`` comments) and
``--out DIR``, writes exactly one ``manifest.json`` into the output
directory, and is deterministic for a fixed config and seed.  The
file-writing commands are the rows of :data:`VERBS`; one runner,
:func:`_run_verb`, loads their config, times their computation, maps their
errors to exit codes and writes their outputs.

Exit codes:

* 0 success;
* 2 invalid input: an unreadable config, an unknown key or a value of the
  wrong type, a non-finite float, a missing or non-positive required key,
  a malformed ``--probe``, an ``--out`` that names an existing file or lies
  below one, ``sizes`` of the wrong dimension or below 8 nodes, an
  unreadable or malformed potential snapshot (an unknown layout, ``n``
  disagreeing with ``sizes``, a payload of the wrong length, non-finite
  values, a background that is not n*n finite numbers or not positive
  definite), a metric whose ``log det`` or a2 margin overflows, or a step
  control or sample times the integrators reject (``max_halvings < 0``,
  ``diag_stride < 0``, ``sample_times`` outside ``[0, T]``);
* 3 flow blow-up: positivity failed beyond the halving budget; the outputs
  hold the partial results and the manifest records the last valid time;
* 4 positivity failure in the input metric itself.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

import numpy as np

from . import __version__
from . import criteria as cr
from . import flow as fl
from . import geometry as geo
from . import registry as reg
from .grid import PeriodicGrid, ScalarField
from .io import (
    ConfigError,
    Stopwatch,
    format_float,
    load_config,
    read_snapshot,
    validate_config,
    write_csv,
    write_manifest,
    write_snapshot,
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

    ``compute(run)`` is the timed computation and may raise FlowBlowup;
    ``finish(run, result, blowup)`` gets exactly one of the result and the
    blow-up and returns ``(printed lines, {file name: writer(path)},
    extra manifest keys)``.
    """

    help: str
    schema: Mapping[str, str]
    compute: Callable[[Run], object]
    finish: Callable[[Run, object, fl.FlowBlowup | None], tuple[list[str], dict, dict]]
    required: tuple[str, ...] = ()
    positive: tuple[str, ...] = ()
    needs_out: bool = True
    probe: bool = False


def _given(cfg: Mapping[str, object], keys) -> dict:
    """The entries of ``cfg`` among ``keys``: the keyword arguments a verb
    passes on, so every default lives in the library alone."""
    return {key: cfg[key] for key in keys if key in cfg}


def _text(lines: list[str]) -> Callable[[str], None]:
    def write(path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
    return write


# --- curvature ------------------------------------------------------------------

NOT_APPLICABLE = "not applicable (non-Hessian input)"


def _curvature(run: Run):
    cfg, pm, g, node = run.cfg, run.pm, run.g, run.node
    seed = run.seed if run.seed is not None else 0
    grid = g.grid
    bundle = geo.curvature_bundle(g, pm, node)
    alpha, kappa, beta, q = bundle.alpha, bundle.kappa, bundle.beta, bundle.q
    lines = [
        f"input: {run.label}",
        f"grid_sizes: {','.join(str(s) for s in grid.sizes)}",
        f"hessian_defect: {format_float(bundle.hessian_defect)}",
        f"torsion_norm: {format_float(bundle.torsion_norm)}",
        f"sup_gamma_mixed: {format_float(bundle.sup_gamma_mixed)}",
        f"sup_gamma_lower: {format_float(bundle.sup_gamma_lower)}",
        f"sup_alpha: {format_float(float(np.max(np.abs(alpha))))}",
        f"sup_kappa: {format_float(kappa.sup_norm())}",
        f"sup_beta: {format_float(beta.sup_norm())}",
        f"sup_riemann: {format_float(bundle.sup_riemann)}",
    ]

    if q is not None:
        lines.append(f"sup_q: {format_float(q.sup_norm())}")
        report = geo.sectional_extremes(q, g, seed=seed, **_given(cfg, ("n_samples", "refine_steps")))
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
            lines.append(f"q_0000@probe: {format_float(q.component(0, 0, 0, 0)[node])}")
        else:
            lines.append(f"q_0000@probe: {NOT_APPLICABLE}")
    return lines, beta, seed


def _curvature_files(run: Run, result, blowup):
    lines, beta, seed = result
    grid = run.g.grid
    files = {"report.txt": _text(lines)}
    if run.cfg.get("snapshots", False):
        files["metric.hfld"] = partial(write_snapshot, grid=grid, data=run.g.components)
        files["beta.hfld"] = partial(write_snapshot, grid=grid, data=beta.components)
        if run.pm is not None:
            files["psi.hfld"] = partial(write_potential_snapshot, pm=run.pm)
    return lines, files, {"seed": seed}


# --- flow-run -------------------------------------------------------------------

def _flow_run(run: Run):
    cfg = run.cfg
    return fl.run_flow(run.g, cfg["T"], run.control, **_given(cfg, ("sample_times", "diag_stride")))


def _flow_run_files(run: Run, result, blowup):
    if blowup is None:
        (trajectory, rows), outcome, last_t = result, "ok", run.cfg["T"]
    else:
        trajectory, rows = blowup.trajectory, blowup.diagnostics
        outcome, last_t = "blowup", blowup.t
    grid = run.g.grid
    header = fl.DiagnosticsRow.csv_header(grid.ndim)
    csv_rows = [r.csv_values() for r in rows]
    files = {"diagnostics.csv": partial(write_csv, header=header, rows=csv_rows)}
    if trajectory:
        final = trajectory[-1]
        snapshot = partial(write_snapshot, grid=grid, t=final.t)
        files["final_metric.hfld"] = partial(snapshot, data=final.g.components)
        files["final_phi.hfld"] = partial(snapshot, data=final.phi.values)
    line = f"flow-run {run.label}: outcome={outcome} last_t={format_float(last_t)}"
    return [line], files, {"last_valid_t": last_t}


# --- flow-compare ---------------------------------------------------------------

def _flow_compare(run: Run) -> float:
    return fl.equivalence_check(run.g, run.cfg["T"], run.control, run.cfg["dt"])


def _flow_compare_files(run: Run, discrepancy, blowup):
    lines = [
        f"input: {run.label}",
        f"T: {format_float(run.cfg['T'])}",
        f"dt: {format_float(run.cfg['dt'])}",
        f"discrepancy: {'blowup' if blowup else format_float(discrepancy)}",
    ]
    return lines, {"compare.txt": _text(lines)}, {}


# --- a2-check -------------------------------------------------------------------

def _a2_check(run: Run) -> list[str]:
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
        u_probe = cr.log_det_gauge(g0, scale=s_probe) if gauge == "logdet" else u
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
    return lines


def _a2_check_files(run: Run, lines, blowup):
    return lines, {"a2.txt": _text(lines)}, {}


# --- smoothing-probe ------------------------------------------------------------

def _smoothing_probe(run: Run):
    return fl.smoothing_probe(run.g, run.cfg["t_samples"], run.control)


def _smoothing_probe_files(run: Run, series, blowup):
    series = series or []
    lines = [
        f"t={format_float(t)} sup_q={format_float(sup_q)} t_sup_q={format_float(t_sup_q)}"
        for t, sup_q, t_sup_q in series
    ]
    files = {"probe.csv": partial(write_csv, header=["t", "sup_q", "t_sup_q"], rows=series)}
    return lines, files, {}


VERBS: dict[str, Verb] = {
    "curvature": Verb(
        help="curvature/Koszul report for one metric",
        schema={**_INPUT_KEYS, "n_samples": "int", "refine_steps": "int", "snapshots": "bool"},
        compute=_curvature,
        finish=_curvature_files,
        positive=("n_samples", "refine_steps"),
        probe=True,
    ),
    "flow-run": Verb(
        help="integrate the flow and write diagnostics",
        schema={**_INPUT_KEYS, **_STEP_KEYS, "T": "float", "diag_stride": "int",
                "sample_times": "floats"},
        compute=_flow_run,
        finish=_flow_run_files,
        required=("T",),
        positive=("T", "sigma", "dt_min"),
    ),
    "flow-compare": Verb(
        help="tensor vs potential flow discrepancy",
        schema={**_INPUT_KEYS, **_STEP_KEYS, "T": "float", "dt": "float"},
        compute=_flow_compare,
        finish=_flow_compare_files,
        required=("T", "dt"),
        positive=("T", "dt", "sigma", "dt_min"),
    ),
    "a2-check": Verb(
        help="gauge margin and maximal feasible S",
        schema={**_INPUT_KEYS, "S": "float", "theta": "float", "gauge": "str"},
        compute=_a2_check,
        finish=_a2_check_files,
        required=("theta",),
        positive=("theta",),
        needs_out=False,
    ),
    "smoothing-probe": Verb(
        help="curvature decay series from rough data",
        schema={**_INPUT_KEYS, **_STEP_KEYS, "t_samples": "floats"},
        compute=_smoothing_probe,
        finish=_smoothing_probe_files,
        required=("t_samples",),
        positive=("sigma", "dt_min"),
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
    seed = args.seed if args.seed is not None else cfg.get("seed")
    built, label = _build_input(cfg, seed)
    pm = built if isinstance(built, geo.PotentialMetric) else None
    g = geo.metric_from_potential(pm) if pm is not None else built
    control = fl.StepControl(**_given(cfg, _STEP_KEYS))
    node = _parse_probe(getattr(args, "probe", None), g.grid)
    return Run(raw, cfg, label, g, pm, control, seed, node)


def _run_verb(name: str, args) -> int:
    """Run one file-writing verb; the only place that maps errors to exit
    codes and writes outputs and the manifest."""
    verb = VERBS[name]
    try:
        # inputs that overflow end in a non-finite value, which log_det,
        # check_metric and the a2 margin report as exit 2; numpy's own
        # warnings about them would only precede that line on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            run = _prepare(verb, name, args)
            try:
                with Stopwatch() as watch:
                    result, blowup = verb.compute(run), None
            except fl.FlowBlowup as exc:
                result, blowup = None, exc
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except geo.NotPositiveDefinite as exc:
        print(f"positivity failure: {exc}", file=sys.stderr)
        return EXIT_NOT_PD

    lines, files, extra = verb.finish(run, result, blowup)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for file_name, write in files.items():
            write(os.path.join(args.out, file_name))
        manifest = {
            "command": name,
            "config": dict(run.raw),
            "input": run.label,
            "wall_clock_seconds": watch.seconds,
            "outcome": "ok" if blowup is None else "blowup",
            "files": list(files),
        }
        if blowup is not None:
            manifest["last_valid_t"] = blowup.t
            # FlowBlowup.node holds np.int64, which json cannot encode
            node = blowup.node
            manifest["blowup_node"] = None if node is None else [int(k) for k in node]
        write_manifest(args.out, {**manifest, **extra})
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


def build_parser() -> argparse.ArgumentParser:
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
