"""Command-line interface: verbs, exit codes, manifests, reproducibility."""

import json

import numpy as np
import pytest

from koszulflow import geometry as geo
from koszulflow import registry as reg
from koszulflow.cli import main, write_potential_snapshot
from koszulflow.grid import PeriodicGrid, ScalarField
from koszulflow.io import read_snapshot, write_snapshot


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
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

    def test_differentiates_the_metric_once(self, tmp_path, monkeypatch):
        counts = {}

        def counted(name, original):
            def wrapper(*args):
                counts[name] = counts.get(name, 0) + 1
                return original(*args)
            return wrapper

        names = ("metric_partials", "sym_inverse_matrices", "metric_from_potential", "_christoffel")
        for name in names:
            monkeypatch.setattr(geo, name, counted(name, getattr(geo, name)))
        cfg = write_config(tmp_path, "c.cfg", "example = bump2d\nsizes = 16,16\nn_samples = 20\n")
        assert run("curvature", "--config", cfg, "--out", str(tmp_path / "out")) == 0
        assert counts == dict.fromkeys(names, 1)


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
        "a2-check-theta-overflows-the-margin": ("a2-check",
                                                "example = sin1d\nsizes = 16\ntheta = 1e308\n"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_INPUT))
    def test_rejected_input_exits_2(self, tmp_path, capsys, case):
        grid = PeriodicGrid((16,), (2 * np.pi,))
        with_nan = np.zeros(16)
        with_nan[3] = np.nan
        snaps = {"nan": (with_nan, "1.0"), "not_pd": (np.zeros(16), "-1.0"),
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
        cfg = write_config(tmp_path, "b.cfg", text.format(**paths))
        assert run(verb, "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert_one_config_error(err)
        if "{background_" in text:  # a malformed header entry names itself and the file
            assert "background" in err and str(tmp_path) in err, err

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

    @pytest.mark.parametrize("verb", ["flow-run", "flow-compare", "a2-check", "smoothing-probe"])
    def test_probe_is_curvature_only(self, tmp_path, verb):
        cfg = write_config(tmp_path, "b.cfg", "example = flat\n")
        with pytest.raises(SystemExit) as info:
            run(verb, "--config", cfg, "--out", str(tmp_path / "o"), "--probe", "0,0")
        assert info.value.code == 2


class TestManifest:
    # common keys of every verb's manifest, plus the verb's own
    COMMON = {"command", "config", "input", "wall_clock_seconds", "outcome", "files", "versions"}
    CASES = {
        "curvature": ("example = sin1d\nsizes = 16\nn_samples = 10\n", {"seed"}),
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
