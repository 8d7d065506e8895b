"""Workload inputs, command sequences and output checks.

Every workload feeds the program potential snapshots written here, through
``potential = <path>`` configs, and runs CLI verbs on them.  The snapshots
are smooth and low-mode.  The seed moves the dominant mode by a random
translation and draws the phases of two weak higher modes.  The weak modes
carry 2% of the dominant mode's curvature, a fixed amplitude, so every seed
stays positive definite.  They are kept weak on purpose: explicit flow steps
are sized by the smallest metric eigenvalue along the run, and a spectrum
that changed freely with the seed moved the step count of ``flow1d`` by
about 8% between seeds, which would hide a program change behind an input
change.  With weak modes the step count moves by about 0.5%.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
TWO_PI = 2.0 * math.pi
WEAK = 0.02  # curvature of each weak mode, relative to the dominant mode

# Tolerances of the output checks.  Identities hold at rounding level for
# any seed; reference values are compared only on the default-seed pass.
DRIFT_TOL = 1e-12           # |mean(g_ij) - mean(g0_ij)|, conserved by the flow
HESSIAN_TOL = 1e-12         # hessian_defect and torsion_norm of a Hessian input
COMPARE_TOL = 1e-8          # flow-compare discrepancy of the short fixed-dt run
MARGIN_TOL = 1e-12          # a2 margin at S_max, recomputed here, must be >= -tol
S_MAX_TIGHTNESS = 1e-6      # the margin at S_max * (1 + this) must be negative
REFERENCE_RTOL = 1e-8       # reference values at the default seed
REFERENCE_ATOL = 1e-12


@dataclass(frozen=True)
class Command:
    """One CLI invocation: verb, config keys, extra flags, files it must write."""

    verb: str
    config: dict
    flags: tuple = ()
    files: tuple = ()
    hashed: tuple = ()  # outputs compared bit for bit with the recorded hashes

    @property
    def slug(self) -> str:
        return self.verb.replace("-", "_")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: tuple
    background: tuple
    commands: tuple

    @property
    def ndim(self) -> int:
        return len(self.sizes)


FLOW_FILES = ("diagnostics.csv", "final_metric.hfld", "final_phi.hfld", "manifest.json")
FLOW_HASHED = ("diagnostics.csv", "final_metric.hfld", "final_phi.hfld")

WORKLOADS = {
    "flow1d": Workload(
        name="flow1d",
        why="1-D flow-run at N=256 with default step control: ~10^4 cheap steps, "
        "so per-call overhead dominates and diagnostics are about 1% of the run",
        sizes=(256,),
        background=(2.0,),
        commands=(
            Command("flow-run", {"T": "0.75", "sample_times": "0.25,0.5"},
                    files=FLOW_FILES, hashed=FLOW_HASHED),
        ),
    ),
    "flow2d_diag": Workload(
        name="flow2d_diag",
        why="2-D flow-run at 128^2 with diag_stride 10: diagnostics rows dominate "
        "and steps run on 16k-node arrays where numpy throughput matters",
        sizes=(128, 128),
        background=(1.0, 0.0, 0.0, 1.0),
        commands=(
            Command("flow-run", {"T": "0.04", "diag_stride": "10", "sample_times": "0.02"},
                    files=FLOW_FILES, hashed=FLOW_HASHED),
        ),
    ),
    "report3d": Workload(
        name="report3d",
        why="one-shot curvature, a2-check and flow-compare on a 3-D 32^3 potential: "
        "the same geometry code as flow2d_diag at n=3, plus criteria and snapshot I/O",
        sizes=(32, 32, 32),
        background=(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0),
        commands=(
            Command("curvature", {"snapshots": "true"}, flags=("--probe", "1.0,2.0,3.0"),
                    files=("report.txt", "metric.hfld", "beta.hfld", "psi.hfld", "manifest.json"),
                    hashed=("report.txt", "metric.hfld", "beta.hfld", "psi.hfld")),
            Command("a2-check", {"gauge": "zero", "theta": "0.5"},
                    files=("a2.txt", "manifest.json"), hashed=("a2.txt",)),
            Command("flow-compare", {"T": "0.0025", "dt": "0.0005"},
                    files=("compare.txt", "manifest.json"), hashed=("compare.txt",)),
        ),
    ),
}


# --- inputs ---------------------------------------------------------------------

def potential_values(workload: Workload, seed: int) -> np.ndarray:
    """Smooth low-mode potential psi on the workload's grid for one seed."""
    rng = np.random.default_rng(seed)
    axes = [np.arange(n) * (TWO_PI / n) for n in workload.sizes]
    x = np.meshgrid(*axes, indexing="ij")
    n = workload.ndim
    shift = rng.uniform(0.0, TWO_PI, size=n)
    phases = rng.uniform(0.0, TWO_PI, size=2)
    if n == 1:
        # dominant mode as in sin1d: curvature amplitude 1 against background 2
        dominant = np.cos(x[0] - shift[0])
        weak_modes = ((2,), (3,))
        scale = 1.0
    else:
        # dominant product mode as in bump2d: curvature amplitude 0.1 per entry
        dominant = np.prod([np.cos(xi - si) for xi, si in zip(x, shift)], axis=0)
        weak_modes = ((1, 1, 0)[:n], (2, -1, 1)[:n])
        scale = 0.1
    psi = dominant
    for k, phase in zip(weak_modes, phases):
        k = np.asarray(k, dtype=float)
        arg = sum(kd * (xd - sd) for kd, xd, sd in zip(k, x, shift))
        psi = psi + (WEAK / float(np.max(np.abs(k)) ** 2)) * np.cos(arg - phase)
    return scale * psi


def write_potential(path: str, workload: Workload, psi: np.ndarray) -> None:
    """Potential snapshot in the documented HFLD1 format (README, "File formats")."""
    sizes = ",".join(str(s) for s in workload.sizes)
    lengths = ",".join(repr(TWO_PI) for _ in workload.sizes)
    background = ",".join(repr(float(v)) for v in workload.background)
    header = (
        f"n={workload.ndim} sizes={sizes} lengths={lengths} components=1 t=0.0 "
        f"layout=row-major-components-innermost background={background}\n"
    )
    payload = b"HFLD1\n" + header.encode("ascii") + psi.astype("<f8").tobytes(order="C")
    with open(path, "wb") as handle:
        handle.write(payload)


def read_hfld(path: str) -> tuple[dict, np.ndarray]:
    """Header fields and ``(*sizes, components)`` data of an HFLD1 snapshot."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(b"HFLD1\n"):
        raise ValueError(f"{path}: bad magic")
    end = blob.index(b"\n", 6)
    fields = dict(tok.partition("=")[::2] for tok in blob[6:end].decode("ascii").split())
    sizes = tuple(int(s) for s in fields["sizes"].split(","))
    data = np.frombuffer(blob[end + 1:], dtype="<f8").reshape(*sizes, int(fields["components"]))
    return fields, data


@dataclass
class InputSet:
    """Generated inputs of one workload for one seed: potential and configs."""

    workload: Workload
    root: str
    potential: str
    psi: np.ndarray

    def config_path(self, cmd: Command) -> str:
        return os.path.join(self.root, f"{cmd.slug}.cfg")

    def out_dir(self, cmd: Command) -> str:
        return os.path.join(self.root, "out", cmd.slug)

    def argv(self, cmd: Command) -> list[str]:
        return [cmd.verb, "--config", self.config_path(cmd), "--out", self.out_dir(cmd), *cmd.flags]


def make_inputs(workload: Workload, seed: int, root: str) -> InputSet:
    os.makedirs(root, exist_ok=True)
    psi = potential_values(workload, seed)
    # a fixed file name keeps the input label in reports independent of the seed
    potential = os.path.join(root, "potential.hfld")
    write_potential(potential, workload, psi)
    inputs = InputSet(workload, root, potential, psi)
    for cmd in workload.commands:
        lines = [f"potential = {potential}"] + [f"{k} = {v}" for k, v in cmd.config.items()]
        with open(inputs.config_path(cmd), "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
    return inputs


def clear_outputs(inputs: InputSet, cmd: Command) -> None:
    shutil.rmtree(inputs.out_dir(cmd), ignore_errors=True)


# --- independent numpy reference for the a2 margin ------------------------------

def _d1(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)


def _d2(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    return (np.roll(f, -1, axis) - 2.0 * f + np.roll(f, 1, axis)) / (h * h)


def margin_at(inputs: InputSet, s: float, theta: float) -> float:
    """Min eigenvalue of (1 - theta) g0 - s beta(g0) over nodes (zero gauge).

    Rebuilt from the potential with the stencil conventions of
    docs/conventions.md: g0 = A + composed first differences of psi, and
    beta = -dd(log det g0) with the 3-point stencil on the diagonal.
    """
    w = inputs.workload
    n = w.ndim
    hs = [TWO_PI / s_ for s_ in w.sizes]
    a = np.asarray(w.background).reshape(n, n)
    g = np.empty((*w.sizes, n, n))
    for i in range(n):
        for j in range(i, n):
            g[..., i, j] = g[..., j, i] = a[i, j] + _d1(_d1(inputs.psi, i, hs[i]), j, hs[j])
    logdet = np.log(np.linalg.det(g))
    beta = np.empty_like(g)
    for i in range(n):
        for j in range(i, n):
            dd = _d2(logdet, i, hs[i]) if i == j else _d1(_d1(logdet, i, hs[i]), j, hs[j])
            beta[..., i, j] = beta[..., j, i] = -dd
    return float(np.min(np.linalg.eigvalsh((1.0 - theta) * g - s * beta)[..., 0]))


# --- output checks ---------------------------------------------------------------

def _report_values(path: str) -> dict[str, str]:
    with open(path, encoding="ascii") as handle:
        return dict(line.split(": ", 1) for line in handle.read().splitlines() if ": " in line)


def _csv_rows(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, encoding="ascii", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def observed_values(inputs: InputSet, cmd: Command) -> dict[str, float]:
    """Scalar outputs of one command, compared against the reference values."""
    out = inputs.out_dir(cmd)
    if cmd.verb == "flow-run":
        header, rows = _csv_rows(os.path.join(out, "diagnostics.csv"))
        last = dict(zip(header, rows[-1]))
        keys = ("t", "sup_q", "lambda_min", "lambda_max", "var_det", "sup_phi")
        return {f"final_{k}": last[k] for k in keys}
    if cmd.verb == "curvature":
        rep = _report_values(os.path.join(out, "report.txt"))
        keys = ("sup_q", "sup_beta", "sup_riemann", "sectional_max", "sectional_min")
        return {k: float(rep[k]) for k in keys}
    if cmd.verb == "a2-check":
        return {"S_max": float(_report_values(os.path.join(out, "a2.txt"))["S_max"])}
    return {"discrepancy": float(_report_values(os.path.join(out, "compare.txt"))["discrepancy"])}


def check_identities(inputs: InputSet, cmd: Command) -> list[str]:
    """Checks that hold for any seed; returns failure messages."""
    out = inputs.out_dir(cmd)
    failures = []
    if cmd.verb == "flow-run":
        header, rows = _csv_rows(os.path.join(out, "diagnostics.csv"))
        col = {name: k for k, name in enumerate(header)}
        drift = max(abs(row[k]) for row in rows for name, k in col.items() if name.startswith("drift_g"))
        if not drift <= DRIFT_TOL:
            failures.append(f"mean drift {drift:.3e} > {DRIFT_TOL}")
        lam_min = min(row[col["lambda_min"]] for row in rows)
        if not lam_min > 0.0:
            failures.append(f"lambda_min {lam_min} not positive")
        t_final = float(cmd.config["T"])
        if rows[-1][col["t"]] != t_final:
            failures.append(f"final t {rows[-1][col['t']]!r} != T {t_final!r}")
        for name in ("final_metric.hfld", "final_phi.hfld"):
            fields, data = read_hfld(os.path.join(out, name))
            if float(fields["t"]) != t_final or not np.all(np.isfinite(data)):
                failures.append(f"{name}: t={fields['t']} or non-finite values")
    elif cmd.verb == "curvature":
        rep = _report_values(os.path.join(out, "report.txt"))
        for key in ("hessian_defect", "torsion_norm"):
            if not float(rep[key]) <= HESSIAN_TOL:
                failures.append(f"{key} {rep[key]} > {HESSIAN_TOL} on a Hessian input")
        _, psi = read_hfld(os.path.join(out, "psi.hfld"))
        if not np.array_equal(psi[..., 0], inputs.psi):
            failures.append("psi.hfld does not round-trip the input potential")
    elif cmd.verb == "a2-check":
        s_max = float(_report_values(os.path.join(out, "a2.txt"))["S_max"])
        theta = float(cmd.config["theta"])
        at_max = margin_at(inputs, s_max, theta)
        if not at_max >= -MARGIN_TOL:
            failures.append(f"a2 margin {at_max:.3e} < 0 at reported S_max {s_max!r}")
        beyond = margin_at(inputs, s_max * (1.0 + S_MAX_TIGHTNESS), theta)
        if not beyond < 0.0:
            failures.append(f"a2 margin {beyond:.3e} still >= 0 beyond S_max {s_max!r}")
    elif cmd.verb == "flow-compare":
        disc = float(_report_values(os.path.join(out, "compare.txt"))["discrepancy"])
        if not disc <= COMPARE_TOL:
            failures.append(f"flow-compare discrepancy {disc:.3e} > {COMPARE_TOL}")
    return failures


def check_command(inputs: InputSet, cmd: Command, code: int, reference: dict | None) -> list[str]:
    """All checks for one finished command; ``reference`` is set on the
    default-seed pass.  Returns failure messages (empty when correct)."""
    if code != 0:
        return [f"{cmd.verb}: exit code {code}"]
    out = inputs.out_dir(cmd)
    missing = [f for f in cmd.files if not os.path.isfile(os.path.join(out, f))]
    if missing:
        return [f"{cmd.verb}: missing outputs {missing}"]
    try:
        failures = check_identities(inputs, cmd)
        if reference is not None:
            observed = observed_values(inputs, cmd)
            for key, want in reference["values"].items():
                got = observed.get(key)
                if got is None or not math.isclose(got, want, rel_tol=REFERENCE_RTOL,
                                                   abs_tol=REFERENCE_ATOL):
                    failures.append(f"{key} = {got!r}, reference {want!r}")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        failures = [f"unreadable output: {exc!r}"]
    return [f"{cmd.verb}: {msg}" for msg in failures]


def output_hashes(inputs: InputSet, cmd: Command) -> dict[str, str]:
    hashes = {}
    for name in cmd.hashed:
        path = os.path.join(inputs.out_dir(cmd), name)
        if os.path.isfile(path):
            with open(path, "rb") as handle:
                hashes[name] = hashlib.sha256(handle.read()).hexdigest()
    return hashes
