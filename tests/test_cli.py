"""Command-line interface: verbs, exit codes, manifests, reproducibility."""

import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import koszulflow
from koszulflow import cli
from koszulflow import flow as fl
from koszulflow import geometry as geo
from koszulflow import registry as reg
from koszulflow.cli import _INPUT_KEYS, VERBS, main, write_potential_snapshot
from koszulflow.grid import PeriodicGrid, ScalarField
from koszulflow.io import read_snapshot, render_csv, write_snapshot


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(*argv):
    return main(list(argv))


def assert_one_config_error(err):
    # numpy warnings about an overflowing input must not reach stderr
    # (pyproject.toml also turns any RuntimeWarning into a test failure)
    assert len(err.splitlines()) == 1 and err.startswith("config error:"), err


class TestExamples:
    def test_lists_all_names(self, capsys):
        assert run("examples") == 0
        out = capsys.readouterr().out
        for name in ("flat", "sin1d", "bump2d", "rough1d", "twist2d"):
            assert name in out

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(koszulflow.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "koszulflow.cli", "examples"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 and "sin1d" in done.stdout, done.stderr


class TestCurvature:
    def test_flat_report_is_all_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.cfg", "example = flat\nn_samples = 50\n")
        out_dir = tmp_path / "out"
        assert run("curvature", "--config", cfg, "--out", str(out_dir), "--seed", "0") == 0
        report = dict(
            line.split(": ", 1)
            for line in (out_dir / "report.txt").read_text().splitlines()
        )
        for key in ("hessian_defect", "torsion_norm", "sup_gamma_mixed", "sup_beta", "sup_q"):
            assert abs(float(report[key])) <= 1e-12
        assert (out_dir / "manifest.json").exists()

    def test_sin1d_probe_at_origin(self, tmp_path):
        cfg = write_config(tmp_path, "c.cfg", "example = sin1d\nsizes = 512\n")
        out_dir = tmp_path / "out"
        assert run("curvature", "--config", cfg, "--out", str(out_dir), "--probe", "0") == 0
        report = dict(
            line.split(": ", 1)
            for line in (out_dir / "report.txt").read_text().splitlines()
        )
        assert float(report["beta_00@probe"]) == pytest.approx(0.25, abs=1e-4)
        assert float(report["q_0000@probe"]) == pytest.approx(-0.25, abs=1e-3)

    def test_twist2d_reports_not_applicable(self, tmp_path):
        cfg = write_config(tmp_path, "c.cfg", "example = twist2d\n")
        out_dir = tmp_path / "out"
        assert run("curvature", "--config", cfg, "--out", str(out_dir)) == 0
        text = (out_dir / "report.txt").read_text()
        report = dict(line.split(": ", 1) for line in text.splitlines())
        assert report["sup_q"] == "not applicable (non-Hessian input)"
        assert float(report["hessian_defect"]) == pytest.approx(0.3, abs=2e-3)
        assert float(report["torsion_norm"]) >= 0.01

    def test_snapshots_written_when_requested(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.cfg", "example = sin1d\nsizes = 128\nsnapshots = true\n"
        )
        out_dir = tmp_path / "out"
        assert run("curvature", "--config", cfg, "--out", str(out_dir)) == 0
        grid, comps, _, _ = read_snapshot(str(out_dir / "metric.hfld"))
        g = geo.metric_from_potential(reg.build_example("sin1d", sizes=(128,)))
        assert np.array_equal(comps[..., 0], g.component(0, 0))

    @pytest.mark.parametrize("n_samples", ["0", "-3"])
    def test_no_sectional_samples_exits_2_before_any_curvature_work(self, tmp_path, capsys, monkeypatch,
                                                                    n_samples):
        # the sample nodes are drawn before Q is formed, and the count is
        # checked before either
        def forbidden(*args, **kwargs):
            raise AssertionError("curvature work started")

        for name in ("metric_from_potential", "curvature_bundle", "sectional_samples", "sectional_extremes"):
            monkeypatch.setattr(geo, name, forbidden)
        cfg = write_config(tmp_path, "c.cfg", f"example = sin1d\nsizes = 64\nn_samples = {n_samples}\n")
        assert run("curvature", "--config", cfg, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert_one_config_error(err)
        assert "'n_samples' must be positive" in err

    def test_differentiates_the_metric_once(self, tmp_path, monkeypatch):
        counts, metrics, inverted = {}, [], []

        def counted(name, original):
            def wrapper(*args):
                # of the derivatives, those of the metric's components only
                if name != "sym_derivatives" or any(args[0] is g.components for g in metrics):
                    counts[name] = counts.get(name, 0) + 1
                result = original(*args)
                if name == "metric_from_potential":
                    metrics.append(result)
                return result
            return wrapper

        names = ("sym_derivatives", "metric_from_potential")
        for name in names:
            monkeypatch.setattr(geo, name, counted(name, getattr(geo, name)))
        christoffel_nodes = []
        original_christoffel, original_inverse = geo._christoffel, geo.sym_inverse

        def christoffel(d, ginv):
            christoffel_nodes.append(len(d))
            return original_christoffel(d, ginv)

        def inverse(comps, n):
            inverted.append(comps.size // comps.shape[-1])
            return original_inverse(comps, n)

        monkeypatch.setattr(geo, "_christoffel", christoffel)
        monkeypatch.setattr(geo, "sym_inverse", inverse)
        monkeypatch.setattr(geo, "_SCREEN_CHUNK", 64)
        cfg = write_config(tmp_path, "c.cfg", "example = bump2d\nsizes = 16,16\nn_samples = 20\n")
        assert run("curvature", "--config", cfg, "--out", str(tmp_path / "out")) == 0
        assert counts == dict.fromkeys(names, 1)
        # the Christoffel symbols once, at every node, for their sups and the
        # largest |R_ijkl| per node; no Riemann kernel forms them again
        assert sum(christoffel_nodes) == 256 and max(christoffel_nodes) == 64
        # g^-1 is node-local: each pass that reads it forms it chunk by
        # chunk at its own nodes, and none holds it on the whole grid
        assert inverted and max(inverted) <= 64


class TestFlowRun:
    def test_writes_outputs_and_is_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "f.cfg",
            "example = sin1d\nsizes = 128\nT = 0.02\ndiag_stride = 20\n",
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run("flow-run", "--config", cfg, "--out", str(out1)) == 0
        assert run("flow-run", "--config", cfg, "--out", str(out2)) == 0
        csv1 = (out1 / "diagnostics.csv").read_bytes()
        csv2 = (out2 / "diagnostics.csv").read_bytes()
        assert csv1 == csv2
        header = csv1.decode().splitlines()[0]
        assert header == "t,sup_q,t_sup_q,lambda_min,lambda_max,var_det,drift_g00,sup_phi,dt"
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["outcome"] == "ok"
        assert manifest["config"]["example"] == "sin1d"
        assert "koszulflow" in manifest["versions"]

    def test_final_snapshot_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, "f.cfg", "example = flat\nT = 0.1\n")
        out_dir = tmp_path / "out"
        assert run("flow-run", "--config", cfg, "--out", str(out_dir)) == 0
        grid, comps, t, _ = read_snapshot(str(out_dir / "final_metric.hfld"))
        assert t == 0.1
        g0 = geo.metric_from_potential(reg.build_example("flat"))
        assert np.array_equal(comps, g0.components)  # flat is stationary

    def test_writes_the_rows_and_last_state_of_run_flow(self, tmp_path):
        # flow-run keeps only the newest state it reaches, and writes what
        # run_flow's trajectory ends in, with every one of run_flow's rows
        times = (0.002, 0.004, 0.006)
        text = "example = bump2d\nsizes = 16,16\nT = 0.008\ndiag_stride = 3\nsample_times = 0.002,0.004,0.006\n"
        out_dir = tmp_path / "out"
        assert run("flow-run", "--config", write_config(tmp_path, "f.cfg", text), "--out", str(out_dir)) == 0
        g0 = geo.metric_from_potential(reg.build_example("bump2d", sizes=(16, 16)))
        trajectory, rows = fl.run_flow(g0, 0.008, fl.StepControl(), sample_times=times, diag_stride=3)
        assert [s.t for s in trajectory] == [*times, 0.008]
        expected = render_csv(fl.DiagnosticsRow.csv_header(2), [r.csv_values() for r in rows])
        assert (out_dir / "diagnostics.csv").read_bytes() == expected
        _, comps, t, _ = read_snapshot(str(out_dir / "final_metric.hfld"))
        _, phi, _, _ = read_snapshot(str(out_dir / "final_phi.hfld"))
        assert t == 0.008
        assert comps.tobytes() == trajectory[-1].g_comps.tobytes()
        assert phi.tobytes() == trajectory[-1].phi_values.tobytes()

    def test_peak_memory_does_not_grow_with_sample_times(self, tmp_path, peak_mib):
        # only the last state reached is written, so only it is held: one
        # more 64^2 state is 0.19 MiB, and holding every sample state took
        # the peak from 1.70 to 2.84 MiB
        peaks = []
        for times in ("0.005", ",".join(str(0.00125 * k) for k in range(1, 9))):
            text = f"example = bump2d\nsizes = 64,64\nT = 0.01\ndiag_stride = 0\nsample_times = {times}\n"
            cfg = write_config(tmp_path, "f.cfg", text)
            argv = ("flow-run", "--config", cfg, "--out", str(tmp_path / "out"))
            assert run(*argv) == 0  # fills the per-process caches
            peaks.append(peak_mib(lambda: run(*argv))[1])
        assert peaks[1] <= peaks[0] + 0.05  # measured 1.51 and 1.52 MiB

    def test_blowup_writes_the_last_state_reached(self, tmp_path, blowup_past):
        # the run blows up just past t = 0.015: its snapshots are those of
        # the last sample time it reached
        text = "example = sin1d\nsizes = 32\nT = 0.03\nsample_times = 0.01,0.015{}\n"
        reached, cut = tmp_path / "reached", tmp_path / "cut"
        assert run("flow-run", "--config", write_config(tmp_path, "r.cfg", text.format("")),
                   "--out", str(reached)) == 0
        blowup_past(0.015)
        assert run("flow-run", "--config", write_config(tmp_path, "c.cfg", text.format(",0.02")),
                   "--out", str(cut)) == 3
        _, comps, t, _ = read_snapshot(str(cut / "final_metric.hfld"))
        assert t == 0.015
        reference = fl.run_flow(geo.metric_from_potential(reg.build_example("sin1d", sizes=(32,))), 0.015,
                                fl.StepControl(), sample_times=(0.01,))[0][-1]
        assert comps.tobytes() == reference.g_comps.tobytes()

    def test_blowup_exit_code_and_manifest(self, tmp_path):
        # dt_min above the stability bound with no halving budget forces the
        # blow-up path deterministically
        cfg = write_config(
            tmp_path,
            "f.cfg",
            "example = sin1d\nsizes = 128\nT = 1.0\ndt_min = 0.5\nmax_halvings = 0\nscheme = euler\nsigma = 1.0\n",
        )
        out_dir = tmp_path / "out"
        assert run("flow-run", "--config", cfg, "--out", str(out_dir)) == 3
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["outcome"] == "blowup"
        assert manifest["last_valid_t"] == 0.0
        assert manifest["blowup_node"] is None  # no step was attempted
        assert (out_dir / "diagnostics.csv").exists()

    def test_float_time_targets_do_not_blow_up(self, tmp_path):
        # t + (target - t) rounds one ulp short of a target here
        cfg = write_config(
            tmp_path,
            "f.cfg",
            "example = sin1d\nsizes = 8\nsample_times = 0.014677137037792349\n"
            "T = 0.05028258882712223\n",
        )
        out_dir = tmp_path / "out"
        assert run("flow-run", "--config", cfg, "--out", str(out_dir)) == 0
        _, _, t, _ = read_snapshot(str(out_dir / "final_metric.hfld"))
        assert t == 0.05028258882712223


    def test_targets_closer_than_dt_min_do_not_blow_up(self, tmp_path):
        # the sample time and T lie 1.7e-18 apart, below the default dt_min
        cfg = write_config(
            tmp_path,
            "f.cfg",
            "example = sin1d\nsizes = 16\nT = 0.010000000000000002\nsample_times = 0.01\n",
        )
        out_dir = tmp_path / "out"
        assert run("flow-run", "--config", cfg, "--out", str(out_dir)) == 0
        _, _, t, _ = read_snapshot(str(out_dir / "final_metric.hfld"))
        assert t == 0.010000000000000002


class TestFlowCompare:
    def test_reports_discrepancy(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.cfg", "example = sin1d\nsizes = 128\nT = 0.01\ndt = 1e-4\n"
        )
        out_dir = tmp_path / "out"
        assert run("flow-compare", "--config", cfg, "--out", str(out_dir)) == 0
        report = dict(
            line.split(": ", 1)
            for line in (out_dir / "compare.txt").read_text().splitlines()
        )
        assert float(report["discrepancy"]) <= 1e-4

    def test_blowup_manifest_names_the_node(self, tmp_path):
        cfg = write_config(tmp_path, "c.cfg", "example = sin1d\nsizes = 32\nT = 8.0\ndt = 8.0\n")
        out_dir = tmp_path / "out"
        assert run("flow-compare", "--config", cfg, "--out", str(out_dir)) == 3
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["last_valid_t"] == 0.0
        assert manifest["blowup_node"] == [24]


class TestA2Check:
    def test_flat_zero_gauge_unbounded(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "a.cfg", "example = flat\ntheta = 0.5\ngauge = zero\n")
        assert run("a2-check", "--config", cfg) == 0
        assert "S_max: unbounded" in capsys.readouterr().out

    def test_sin1d_bounded_with_witness(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "a.cfg", "example = sin1d\ntheta = 0.1\ngauge = zero\nS = 1.0\n"
        )
        out_dir = tmp_path / "out"
        assert run("a2-check", "--config", cfg, "--out", str(out_dir)) == 0
        report = dict(
            line.split(": ", 1) for line in (out_dir / "a2.txt").read_text().splitlines()
        )
        assert float(report["S_max"]) == pytest.approx(6.834, abs=0.05)
        assert float(report["margin_at_S"]) > 0
        assert "witness_node" in report

    def test_logdet_gauge_family_unbounded(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "a.cfg", "example = sin1d\ntheta = 0.5\ngauge = logdet\n")
        assert run("a2-check", "--config", cfg) == 0
        assert "S_max: unbounded" in capsys.readouterr().out

    def test_s_max_beyond_2_80(self, tmp_path, capsys):
        # the bracket takes more than 80 doublings (test_criteria.py checks
        # this input, and one beyond 2^23, with a cap on the margins)
        grid = PeriodicGrid((8,), (2 * np.pi,))
        psi = ScalarField.from_function(grid, lambda x: 3e-3 * np.cos(x))
        snap = tmp_path / "near_flat.hfld"
        write_potential_snapshot(str(snap), geo.PotentialMetric(grid, 1e12 * np.eye(1), psi))
        cfg = write_config(tmp_path, "a.cfg", f"potential = {snap}\ntheta = 0.5\n")
        assert run("a2-check", "--config", cfg) == 0
        out, err = capsys.readouterr()
        report = dict(line.split(": ", 1) for line in out.splitlines())
        assert float(report["S_max"]) == pytest.approx(8.68e25, rel=1e-3) and err == ""

    def test_infeasible_at_zero_is_reported(self, tmp_path, capsys):
        # theta = 1.5 makes the margin negative already at S = 0
        cfg = write_config(tmp_path, "a.cfg", "example = sin1d\nsizes = 16\ntheta = 1.5\n")
        assert run("a2-check", "--config", cfg) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "S_max: infeasible at S=0" and err == ""


class TestSmoothingProbe:
    def test_probe_csv_is_reproducible(self, tmp_path):
        cfg = write_config(
            tmp_path, "p.cfg", "example = rough1d\nt_samples = 0.001,0.005,0.02\n"
        )
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert run("smoothing-probe", "--config", cfg, "--out", str(out1)) == 0
        assert run("smoothing-probe", "--config", cfg, "--out", str(out2)) == 0
        assert (out1 / "probe.csv").read_bytes() == (out2 / "probe.csv").read_bytes()
        lines = (out1 / "probe.csv").read_text().splitlines()
        assert lines[0] == "t,sup_q,t_sup_q"
        assert len(lines) == 4

    def test_samples_closer_than_dt_min_do_not_blow_up(self, tmp_path):
        cfg = write_config(
            tmp_path, "p.cfg", "example = sin1d\nsizes = 16\nt_samples = 0.01,0.010000000000000002\n"
        )
        out_dir = tmp_path / "out"
        assert run("smoothing-probe", "--config", cfg, "--out", str(out_dir)) == 0
        times = [line.split(",")[0] for line in (out_dir / "probe.csv").read_text().splitlines()]
        assert times == ["t", "0.01", "0.010000000000000002"]


    def test_blowup_writes_and_prints_the_samples_reached(self, tmp_path, capsys, blowup_past):
        # the run blows up just past t = 0.015: its outputs are those of a
        # run that stops at the one sample it reached
        text = "example = sin1d\nsizes = 32\nt_samples = 0.01{}\n"
        reached, cut = tmp_path / "reached", tmp_path / "cut"
        cfg = write_config(tmp_path, "r.cfg", text.format(""))
        assert run("smoothing-probe", "--config", cfg, "--out", str(reached)) == 0
        printed = capsys.readouterr().out
        blowup_past(0.015)
        cfg = write_config(tmp_path, "c.cfg", text.format(",0.02,0.03"))
        assert run("smoothing-probe", "--config", cfg, "--out", str(cut)) == 3
        assert capsys.readouterr().out == printed and printed.startswith("t=0.01 ")
        assert (cut / "probe.csv").read_bytes() == (reached / "probe.csv").read_bytes()
        manifest = json.loads((cut / "manifest.json").read_text())
        assert (manifest["outcome"], manifest["blowup_node"]) == ("blowup", [3])


class TestErrorPaths:
    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "b.cfg", "example = flat\nwat = 1\n")
        assert run("curvature", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    def test_unknown_example_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "b.cfg", "example = nope\n")
        assert run("curvature", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    def test_missing_input_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "b.cfg", "T = 1.0\n")
        assert run("flow-run", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    def test_bad_scheme_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "b.cfg", "example = flat\nT = 1.0\nscheme = rk9\n")
        assert run("flow-run", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    def test_negative_t_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "b.cfg", "example = flat\nT = -1.0\n")
        assert run("flow-run", "--config", cfg, "--out", str(tmp_path / "o")) == 2

    def test_nonconvex_potential_input_exits_4(self, tmp_path):
        grid = PeriodicGrid((128,), (2 * np.pi,))
        pm = geo.PotentialMetric(
            grid, np.eye(1), ScalarField.from_function(grid, lambda x: -0.5 * np.sin(x))
        )
        # deepen the well beyond convexity by hand-editing the snapshot data
        snap = tmp_path / "bad_psi.hfld"
        bad = geo.PotentialMetric(grid, np.eye(1), pm.psi * 20.0)
        write_potential_snapshot(str(snap), bad)
        cfg = write_config(tmp_path, "b.cfg", f"potential = {snap}\nT = 1.0\n")
        assert run("flow-run", "--config", cfg, "--out", str(tmp_path / "o")) == 4

    def test_nonconvex_3d_potential_names_the_first_worst_node(self, tmp_path, capsys):
        # the positivity certificate cannot prove the concave nodes, so the
        # check falls back to the screened eigenvalue kernel, which names the
        # first worst node in plain ints
        grid = PeriodicGrid((8, 8, 8), (2 * np.pi,) * 3)
        psi = ScalarField.from_function(grid, lambda x, y, z: -2.0 * np.cos(x) * np.cos(y) * np.cos(z))
        pm = geo.PotentialMetric(grid, np.eye(3), psi)
        snap = tmp_path / "concave.hfld"
        write_potential_snapshot(str(snap), pm)
        cfg = write_config(tmp_path, "c.cfg", f"potential = {snap}\n")
        assert run("curvature", "--config", cfg, "--out", str(tmp_path / "o")) == 4
        comps = geo.potential_hessian(psi).components + np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
        eigs = geo.sym_min_eigenvalues(comps, 3)
        worst = np.unravel_index(np.argmin(eigs), grid.shape)
        node = tuple(int(k) for k in worst)
        assert not geo._positivity_certificate(comps)[0].all() and eigs[worst] < 0
        assert capsys.readouterr().err == (f"positivity failure: matrix field not positive definite at node "
                                           f"{node} (min eigenvalue {eigs[worst]:.3e})\n")

    def test_flow_run_without_t_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.cfg", "example = sin1d\nsizes = 16\n")
        assert run("flow-run", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == "config error: flow-run requires T\n"
        assert not (tmp_path / "o").exists()

    # case -> the message naming what is wrong with the potential snapshot
    BAD_SNAPSHOT = {"two-components": "must have one component, got 2",
                    "no-background": "header lacks the 'background' key",
                    "truncated-header": "truncated snapshot header"}

    @pytest.mark.parametrize("case", sorted(BAD_SNAPSHOT))
    def test_malformed_potential_snapshot_exits_2(self, tmp_path, capsys, case):
        grid = PeriodicGrid((16,), (2 * np.pi,))
        snap = tmp_path / "psi.hfld"
        values = np.zeros((16, 2)) if case == "two-components" else np.zeros(16)
        write_snapshot(str(snap), grid, values, extra={} if case == "no-background" else {"background": "1.0"})
        if case == "truncated-header":  # the file ends inside the header line
            content = snap.read_bytes()
            snap.write_bytes(content[:content.index(b"\n", len(b"HFLD1\n"))])
        cfg = write_config(tmp_path, "c.cfg", f"potential = {snap}\n")
        assert run("curvature", "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert_one_config_error(err)
        assert self.BAD_SNAPSHOT[case] in err and str(snap) in err, err

    @pytest.mark.parametrize("verb", ["curvature", "flow-run"])
    @pytest.mark.parametrize("length", ["inf", "nan"])
    def test_non_finite_period_exits_2(self, tmp_path, capsys, verb, length):
        # a header saying lengths=inf once ran both verbs to exit 0, with
        # spacing inf and every curvature quantity 0.0
        grid = PeriodicGrid((16,), (2 * np.pi,))
        snap = tmp_path / "psi.hfld"
        write_snapshot(str(snap), grid, np.zeros(16), extra={"background": "1.0"})
        snap.write_bytes(re.sub(rb"lengths=\S+", b"lengths=" + length.encode(), snap.read_bytes(), count=1))
        cfg = write_config(tmp_path, "c.cfg", f"potential = {snap}\n" + (self.T if verb == "flow-run" else ""))
        assert run(verb, "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert_one_config_error(err)
        assert f"periods must be positive and finite, got lengths ({length},)" in err and str(snap) in err, err

    T = "T = 0.01\n"
    # case -> (verb, config text); the snapshot paths are filled in per run
    BAD_INPUT = {
        "sizes-wrong-dimension": ("flow-run", "example = bump2d\nsizes = 64\n" + T),
        "sizes-below-8": ("flow-run", "example = sin1d\nsizes = 4\n" + T),
        "snapshot-nan": ("flow-run", "potential = {nan}\n" + T),
        "snapshot-background-not-pd": ("flow-run", "potential = {not_pd}\n" + T),
        "snapshot-short-payload": ("flow-run", "potential = {short}\n" + T),
        "snapshot-background-nan": ("curvature", "potential = {background_nan}\n"),
        "snapshot-background-inf": ("curvature", "potential = {background_inf}\n"),
        "snapshot-background-text": ("curvature", "potential = {background_text}\n"),
        "snapshot-background-empty": ("curvature", "potential = {background_empty}\n"),
        "max-halvings-negative": ("flow-run", "example = sin1d\nsizes = 16\nmax_halvings = -3\n" + T),
        "diag-stride-negative": ("flow-run", "example = sin1d\nsizes = 16\ndiag_stride = -1\n" + T),
        "sample-time-negative": ("flow-run",
                                 "example = sin1d\nsizes = 16\nsample_times = -0.5,0.005\n" + T),
        "sample-time-beyond-T": ("flow-run", "example = sin1d\nsizes = 16\nsample_times = 0.02\n" + T),
        "flow-run-T-inf": ("flow-run", "example = sin1d\nsizes = 16\nT = inf\n"),
        "smoothing-probe-t-samples-inf": ("smoothing-probe",
                                          "example = sin1d\nsizes = 16\nt_samples = 0.01,inf\n"),
        "smoothing-probe-t-samples-nan": ("smoothing-probe",
                                          "example = sin1d\nsizes = 16\nt_samples = nan\n"),
        "a2-check-S-nan": ("a2-check", "example = sin1d\nsizes = 16\ntheta = 0.5\nS = nan\n"),
        "a2-check-S-inf": ("a2-check", "example = sin1d\nsizes = 16\ntheta = 0.5\nS = inf\n"),
        "a2-check-theta-inf": ("a2-check", "example = sin1d\nsizes = 16\ntheta = inf\n"),
        "a2-check-gauge-unknown": ("a2-check", "example = sin1d\nsizes = 16\ntheta = 0.5\ngauge = bogus\n"),
        "a2-check-theta-overflows-the-margin": ("a2-check",
                                                "example = sin1d\nsizes = 16\ntheta = 1e308\n"),
        "config-missing": ("curvature", None),
        "config-not-ascii": ("curvature", "\ufeffexample = flat\n"),
        "snapshots-not-a-bool": ("curvature", "example = flat\nsnapshots = maybe\n"),
        "sizes-beside-a-potential": ("curvature", "potential = {valid}\nsizes = 8\n"),
        # the step control is checked before the input (here, sizes below 8) is built
        "flow-run-sigma-zero": ("flow-run", "example = sin1d\nsizes = 4\nsigma = 0\n" + T),
        "flow-run-sigma-above-1": ("flow-run", "example = sin1d\nsizes = 4\nsigma = 2\n" + T),
        "flow-run-dt-min-zero": ("flow-run", "example = sin1d\nsizes = 4\ndt_min = 0\n" + T),
        "smoothing-probe-sigma-zero": ("smoothing-probe",
                                       "example = sin1d\nsizes = 4\nsigma = 0\nt_samples = 0.01\n"),
        "smoothing-probe-sigma-above-1": ("smoothing-probe",
                                          "example = sin1d\nsizes = 4\nsigma = 2\nt_samples = 0.01\n"),
        "smoothing-probe-dt-min-zero": ("smoothing-probe",
                                        "example = sin1d\nsizes = 4\ndt_min = 0\nt_samples = 0.01\n"),
        # flow-compare steps at its fixed dt and reads no adaptive step key
        "flow-compare-sigma": ("flow-compare", "example = sin1d\nsizes = 16\ndt = 1e-3\nsigma = 0.05\n" + T),
        "flow-compare-dt-min": ("flow-compare", "example = sin1d\nsizes = 16\ndt = 1e-3\ndt_min = 0.5\n" + T),
        "flow-compare-max-halvings": ("flow-compare",
                                      "example = sin1d\nsizes = 16\ndt = 1e-3\nmax_halvings = 0\n" + T),
    }
    # case -> the message its config error names
    BAD_INPUT_MESSAGE = {"snapshot-nan": "non-finite", "config-missing": "cannot read config",
                         "config-not-ascii": "cannot read config",
                         "snapshots-not-a-bool": "cannot parse 'maybe' as bool",
                         "sizes-beside-a-potential": "valid.hfld sets the grid: drop 'sizes'",
                         "flow-run-sigma-zero": "sigma must be in (0, 1]",
                         "flow-run-sigma-above-1": "sigma must be in (0, 1]",
                         "flow-run-dt-min-zero": "dt_min must be positive and finite",
                         "smoothing-probe-sigma-zero": "sigma must be in (0, 1]",
                         "smoothing-probe-sigma-above-1": "sigma must be in (0, 1]",
                         "smoothing-probe-dt-min-zero": "dt_min must be positive and finite",
                         "flow-compare-sigma": "unknown config keys: sigma",
                         "flow-compare-dt-min": "unknown config keys: dt_min",
                         "flow-compare-max-halvings": "unknown config keys: max_halvings"}

    @pytest.mark.parametrize("case", sorted(BAD_INPUT))
    def test_rejected_input_exits_2(self, tmp_path, capsys, case):
        grid = PeriodicGrid((16,), (2 * np.pi,))
        with_nan = np.zeros(16)
        with_nan[3] = np.nan
        snaps = {"valid": (np.zeros(16), "1.0"), "nan": (with_nan, "1.0"),
                 "not_pd": (np.zeros(16), "-1.0"),
                 "background_nan": (np.zeros(16), "nan"), "background_inf": (np.zeros(16), "inf"),
                 "background_text": (np.zeros(16), "a"), "background_empty": (np.zeros(16), "")}
        paths = {}
        for key, (values, background) in snaps.items():
            paths[key] = str(tmp_path / f"{key}.hfld")
            write_snapshot(paths[key], grid, values, extra={"background": background})
        paths["short"] = str(tmp_path / "short.hfld")
        with open(paths["nan"], "rb") as src, open(paths["short"], "wb") as dst:
            dst.write(src.read()[:-8])
        verb, text = self.BAD_INPUT[case]
        if text is None:  # a config path that does not exist
            cfg = str(tmp_path / "missing.cfg")
        else:
            cfg = write_config(tmp_path, "b.cfg", text.format(**paths))
        assert run(verb, "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert_one_config_error(err)
        if "{background_" in (text or ""):  # a malformed header entry names itself and the file
            assert "background" in err and str(tmp_path) in err, err
        assert self.BAD_INPUT_MESSAGE.get(case, "") in err, err

    OVERFLOW = {"curvature": "", "flow-run": T, "a2-check": "theta = 0.5\n",
                "flow-compare": T + "dt = 1e-3\n"}

    @pytest.mark.parametrize("verb", sorted(OVERFLOW))
    def test_overflowing_determinant_exits_2(self, tmp_path, capsys, verb):
        # det g = 1e330 overflows, so log det g is not finite
        grid = PeriodicGrid((8, 8, 8), (2 * np.pi,) * 3)
        psi = ScalarField.from_function(grid, lambda x, y, z: np.cos(x) * np.sin(y + z))
        snap = tmp_path / "huge.hfld"
        write_potential_snapshot(str(snap), geo.PotentialMetric(grid, 1e110 * np.eye(3), psi))
        cfg = write_config(tmp_path, "h.cfg", f"potential = {snap}\n{self.OVERFLOW[verb]}")
        assert run(verb, "--config", cfg, "--out", str(tmp_path / "o")) == 2
        assert_one_config_error(capsys.readouterr().err)

    # each verb's extra config, and what its error line names
    OVERFLOWING_CURVATURE = {"curvature": ("", "sup_riemann"),
                             "flow-run": ("T = 1e-300\n", "sup_q, t_sup_q, var_det"),
                             "smoothing-probe": ("t_samples = 1e-300\n", "sup_q, t_sup_q, var_det")}

    @pytest.mark.parametrize("verb", sorted(OVERFLOWING_CURVATURE))
    def test_overflowing_curvature_exits_2(self, tmp_path, capsys, verb):
        # log det g is finite, but the derivatives of g and their products
        # overflow, so every curvature sup of the report would be nan, and so
        # would sup|Q|_g of a flow's first diagnostics row (var det g is inf)
        grid = PeriodicGrid((64,), (2 * np.pi,))
        psi = ScalarField.from_function(grid, lambda x: -(7e307 / 100) * np.cos(10 * x))
        snap = tmp_path / "huge.hfld"
        write_potential_snapshot(str(snap), geo.PotentialMetric(grid, np.array([[8e307]]), psi))
        extra, named = self.OVERFLOWING_CURVATURE[verb]
        cfg = write_config(tmp_path, "c.cfg", f"potential = {snap}\n{extra}")
        assert run(verb, "--config", cfg, "--out", str(tmp_path / "o")) == 2
        captured = capsys.readouterr()
        assert_one_config_error(captured.err)
        assert named in captured.err and captured.out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("example", ["rough1d", "sin1d"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, example, where):
        # rough1d draws its potential from the seed, sin1d ignores it; either
        # way a negative seed is rejected before the input is built
        text = f"example = {example}\nsizes = 16\nT = 0.01\n" + ("seed = -1\n" if where == "config" else "")
        flags = ["--seed", "-1"] if where == "flag" else []
        cfg = write_config(tmp_path, "s.cfg", text)
        assert run("flow-run", "--config", cfg, "--out", str(tmp_path / "o"), *flags) == 2
        err = capsys.readouterr().err
        assert_one_config_error(err)
        assert "seed must be non-negative, got -1" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb, text", [("curvature", "n_samples = 1000000000000000\n"),
                                            ("flow-run", "sizes = 1000000000000000\nT = 0.01\n")])
    def test_input_too_large_to_allocate_exits_2(self, tmp_path, capsys, verb, text):
        # 10^15 entries are petabytes, more than any address space holds, so
        # the allocation fails at once without touching memory
        cfg = write_config(tmp_path, "m.cfg", f"example = sin1d\n{text}")
        assert run(verb, "--config", cfg, "--out", str(tmp_path / "o")) == 2
        captured = capsys.readouterr()
        assert_one_config_error(captured.err)
        assert "does not fit in memory" in captured.err and captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_s_max_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        # the margin stays positive up to S = 2^1023, and the next doubling
        # overflows the pencil
        grid = PeriodicGrid((8,), (2 * np.pi,))
        psi = ScalarField.from_function(grid, lambda x: 1e288 * np.cos(x))
        snap = tmp_path / "huge.hfld"
        write_potential_snapshot(str(snap), geo.PotentialMetric(grid, 1e300 * np.eye(1), psi))
        cfg = write_config(tmp_path, "a.cfg", f"potential = {snap}\ntheta = 0.5\n")
        assert run("a2-check", "--config", cfg) == 2
        assert_one_config_error(capsys.readouterr().err)

    @pytest.mark.parametrize("probe", ["0,0,0", "x,0", "nan,0", "inf,0"])
    def test_bad_probe_exits_2(self, tmp_path, capsys, probe):
        cfg = write_config(tmp_path, "b.cfg", "example = bump2d\nsizes = 16,16\n")
        assert run("curvature", "--config", cfg, "--out", str(tmp_path / "o"), "--probe", probe) == 2
        assert capsys.readouterr().err.startswith("config error: bad --probe")

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.cfg", "example = sin1d\nsizes = 16\nT = 0.01\n")
        out = tmp_path / "taken"
        out.write_text("")
        assert run("flow-run", "--config", cfg, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_out_below_a_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.cfg", "example = sin1d\nsizes = 16\nT = 0.01\n")
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run("flow-run", "--config", cfg, "--out", str(taken / "sub" / "dir")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{taken} exists and is not a directory" in err
        dangling = tmp_path / "dangling"
        dangling.symlink_to(tmp_path / "nowhere")
        assert run("flow-run", "--config", cfg, "--out", str(dangling / "sub")) == 2

    # verb -> (config text, the output file whose name a directory takes)
    UNWRITABLE = {"curvature": ("example = flat\n", "report.txt"),
                  "flow-run": ("example = sin1d\nsizes = 16\nT = 0.01\n", "diagnostics.csv"),
                  "a2-check": ("example = sin1d\nsizes = 16\ntheta = 0.5\n", "manifest.json")}

    @pytest.mark.parametrize("verb", sorted(UNWRITABLE))
    def test_unwritable_output_exits_2(self, tmp_path, capsys, verb):
        text, name = self.UNWRITABLE[verb]
        cfg = write_config(tmp_path, "b.cfg", text)
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert run(verb, "--config", cfg, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert_one_config_error(err)
        assert f"cannot write {out / name}: Is a directory" in err, err
        # the writer removes its temporary file, and no manifest claims the run
        assert not [p.name for p in out.iterdir() if p.name.startswith(".tmp-")]
        assert not (out / "manifest.json").is_file()

    @pytest.mark.parametrize("verb", ["flow-run", "flow-compare", "a2-check", "smoothing-probe"])
    def test_probe_is_curvature_only(self, tmp_path, verb):
        cfg = write_config(tmp_path, "b.cfg", "example = flat\n")
        with pytest.raises(SystemExit) as info:
            run(verb, "--config", cfg, "--out", str(tmp_path / "o"), "--probe", "0,0")
        assert info.value.code == 2


class TestManifest:
    # common keys of every verb's manifest, plus the verb's own
    COMMON = {"command", "config", "input", "seed", "wall_clock_seconds", "outcome", "files", "versions"}
    CASES = {
        "curvature": ("example = sin1d\nsizes = 16\nn_samples = 10\n", set()),
        "flow-run": ("example = sin1d\nsizes = 16\nT = 0.01\n", {"last_valid_t"}),
        "flow-compare": ("example = sin1d\nsizes = 16\nT = 0.01\ndt = 1e-3\n", set()),
        "a2-check": ("example = sin1d\nsizes = 16\ntheta = 0.1\n", set()),
        "smoothing-probe": ("example = rough1d\nsizes = 16\nt_samples = 0.001\n", set()),
    }

    @pytest.mark.parametrize("verb", sorted(CASES))
    def test_keys_and_listed_files(self, tmp_path, verb):
        text, own = self.CASES[verb]
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path, "m.cfg", text)
        assert run(verb, "--config", cfg, "--out", str(out_dir)) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest) == self.COMMON | own
        assert manifest["command"] == verb
        assert manifest["outcome"] == "ok"
        assert sorted(manifest["files"] + ["manifest.json"]) == sorted(
            p.name for p in out_dir.iterdir()
        )

    def test_records_the_seed_of_the_run(self, tmp_path):
        # rough1d draws its potential from the seed, so the seed changes the outputs
        cfg = write_config(tmp_path, "r.cfg", "example = rough1d\nsizes = 16\nT = 0.001\n")
        outputs = {}
        for seed in ("7", "8", None):
            out_dir = tmp_path / f"out{seed}"
            flags = ["--seed", seed] if seed else []
            assert run("flow-run", "--config", cfg, "--out", str(out_dir), *flags) == 0
            seed_in_manifest = json.loads((out_dir / "manifest.json").read_text())["seed"]
            outputs[seed] = seed_in_manifest, (out_dir / "diagnostics.csv").read_bytes()
        assert outputs["7"][0] == 7 and outputs["8"][0] == 8 and outputs[None][0] is None
        assert outputs["7"][1] != outputs["8"][1]


class TestParser:
    def test_successive_calls_share_no_parsed_state(self, monkeypatch):
        # the parser is built once per process and every call parses afresh:
        # a flag of one call never reaches the next
        parsed = []
        monkeypatch.setattr(cli, "_run_verb", lambda command, args: parsed.append(vars(args)) or 0)
        calls = [("curvature", "--config", "a", "--out", "o", "--seed", "7", "--probe", "1,2"),
                 ("a2-check", "--config", "b"),
                 ("curvature", "--config", "c", "--out", "p", "--probe", "0"),
                 ("curvature", "--config", "d", "--out", "q"),
                 ("a2-check", "--config", "e", "--out", "r", "--seed", "3")]
        for argv in calls:
            assert run(*argv) == 0
        assert parsed == [
            {"command": "curvature", "config": "a", "out": "o", "seed": 7, "probe": "1,2"},
            {"command": "a2-check", "config": "b", "out": None, "seed": None},
            {"command": "curvature", "config": "c", "out": "p", "seed": None, "probe": "0"},
            {"command": "curvature", "config": "d", "out": "q", "seed": None, "probe": None},
            {"command": "a2-check", "config": "e", "out": "r", "seed": 3},
        ]
        assert cli.build_parser() is cli.build_parser()


class TestReadme:
    def test_command_key_table_matches_the_schemas(self):
        # each row lists exactly the verb's keys beyond the common input keys
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as handle:
            rows = dict(re.findall(r"^\| ([a-z0-9-]+) +\| (.*)\|$", handle.read(), re.MULTILINE))
        every_key = set().union(*(verb.schema for verb in VERBS.values()))
        for name, verb in VERBS.items():
            listed = set(re.findall(r"`([^`]+)`", rows[name])) & every_key
            assert listed == set(verb.schema) - set(_INPUT_KEYS), name


class TestPotentialInput:
    def test_potential_snapshot_round_trips_through_cli(self, tmp_path):
        pm = reg.build_example("sin1d", sizes=(128,))
        snap = tmp_path / "sin.hfld"
        write_potential_snapshot(str(snap), pm)
        cfg = write_config(tmp_path, "p.cfg", f"potential = {snap}\n")
        out_dir = tmp_path / "out"
        assert run("curvature", "--config", cfg, "--out", str(out_dir), "--probe", "0") == 0
        report = dict(
            line.split(": ", 1)
            for line in (out_dir / "report.txt").read_text().splitlines()
        )
        assert float(report["beta_00@probe"]) == pytest.approx(0.25, abs=1e-3)


# Value pools of the exit-code fuzz, by schema kind: values a run accepts,
# then adversarial ones (zero, negatives, the smallest subnormal, the largest
# finite float, nan and inf, over-long ints, malformed lists and words, and
# None for a missing key).  n_samples and refine_steps ask for work in
# proportion to their value, so neither pool holds a large one.
FUZZ_VALID = {"float": ("1e-3", "0.02", "0.5", "1"), "int": ("0", "1", "2", "5"),
              "floats": ("0.01", "0.01,0.02", "0,0.01", "0.5,1"),
              "scheme": ("rk2", "euler"), "gauge": ("zero", "logdet"), "snapshots": ("true", "false")}
FUZZ_ADVERSARIAL = {"float": ("0", "-1", "5e-324", "1e308", "nan", "inf", "-inf", "x", "1,2", None),
                    "int": ("-3", "9" * 40, "1.5", "x", None), "count": ("-3", "1.5", "x", None),
                    "floats": ("-1", "nan", "inf", "1e308", "5e-324,1e-3", "0.02,0.01", "0.01,,0.02",
                               "x,y", "", None),
                    "scheme": ("rk9", "", None), "gauge": ("nope", None), "snapshots": ("2", None),
                    "example": ("nope", None), "sizes": ("7", "0", "-8", "8,8,8,8", "x", "8.5", "", None)}
FUZZ_ALARM_S = 2


class _Alarm(BaseException):
    """Raised by SIGALRM in a fuzz case still running at its alarm; not an
    Exception, so no handler of the CLI catches it."""


def _ring(signum, frame):
    raise _Alarm


@st.composite
def fuzz_invocations(draw):
    """``(argv, config text)`` of one CLI call: a verb and a config on a grid
    of 8 or 16 nodes per axis whose keys are omitted or accepted values,
    except for up to two keys that take adversarial ones; at times an
    unknown key or a missing potential snapshot, and adversarial ``--seed``
    and ``--probe`` flags."""
    verb = draw(st.sampled_from(("examples", *VERBS)))
    if verb == "examples":
        return [verb], ""
    schema = VERBS[verb].schema
    keys = ["example", "sizes", *(key for key in schema if key not in _INPUT_KEYS or key == "seed")]
    adversarial = draw(st.lists(st.sampled_from(keys), max_size=2, unique=True))
    example = draw(st.sampled_from(sorted(reg.EXAMPLES)))
    ndim = len(reg.EXAMPLES[example].default_sizes)
    config = {"example": example,
              "sizes": ",".join(draw(st.lists(st.sampled_from(("8", "16")), min_size=ndim, max_size=ndim)))}
    for key in keys:
        kind = schema.get(key, key)
        kind = "count" if key in ("n_samples", "refine_steps") else kind if kind in FUZZ_VALID else key
        if key in adversarial:
            config[key] = draw(st.sampled_from(FUZZ_ADVERSARIAL[kind]))
        elif key in VERBS[verb].required or (key not in config and draw(st.booleans())):
            config[key] = draw(st.sampled_from(FUZZ_VALID["int" if kind == "count" else kind]))
    if draw(st.integers(0, 9)) == 0:
        config[draw(st.sampled_from(("potential", "unknown_key")))] = "missing.hfld"
    argv = [verb, "--config", "config.cfg", "--out", "out"]
    seed = draw(st.sampled_from((None,) * 4 + ("0", "7", "-1", "9" * 40, "x")))
    if seed is not None:
        argv += ["--seed", seed]
    probe = draw(st.sampled_from((None,) * 4 + ("1.0,2.0", "0", "1,2,3", "nan", "inf", "1e308,1e308", "x")))
    if probe is not None and VERBS[verb].probe:
        argv += ["--probe", probe]
    return argv, "".join(f"{key} = {value}\n" for key, value in config.items() if value is not None)


class TestExitCodeFuzz:
    """The exit-code contract under random configs (ROADMAP, "The exit-code
    contract holds under fuzzing"): ``main`` run in this process ends every
    call with 0, 2, 3 or 4 and writes no traceback.  Each case has its own
    alarm; a case still running when it rings is a legal but long run (a
    flow to ``T = 1e308``, say), which the contract does not bound."""

    @pytest.mark.slow
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=fuzz_invocations())
    # a legal run of about 10^310 steps, which only its alarm ends
    @example(case=(["flow-run", "--config", "config.cfg", "--out", "out"],
                   "example = sin1d\nsizes = 8\nT = 1e308\n"))
    def test_every_call_ends_in_a_defined_exit_code(self, case):
        argv, text = case
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as work:
            with open(os.path.join(work, "config.cfg"), "w", encoding="utf-8") as handle:
                handle.write(text)
            argv = [os.path.join(work, a) if a in ("config.cfg", "out") else a for a in argv]
            previous = signal.signal(signal.SIGALRM, _ring)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    signal.alarm(FUZZ_ALARM_S)
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse's usage errors
                        code = exc.code
                    finally:
                        signal.alarm(0)
            except _Alarm:
                event("alarm")
                return
            finally:
                signal.signal(signal.SIGALRM, previous)
        event(f"exit {code}")
        assert code in (0, 2, 3, 4), (argv, text, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue(), (argv, text)
