"""Golden output hashes: every file a CLI verb writes, except the manifest
(which records wall-clock time), must keep its exact bytes.

The hashes below were recorded before the CLI handlers were folded into
one table-driven runner and the flow core's loops were merged, and the two
``flow-compare`` entries on ``pot3d`` and ``bump2d`` before the potential
leg moved onto raw arrays; any later refactor that changes one output bit
fails here.  Re-record them only for
a deliberate change of results, and give the reason in CHANGES.md.
``a2-check-sin1d`` was re-recorded when ``max_s`` moved from a bisection
with an absolute 1e-9 stop to the sign change of the margin next to the
pencil's own extreme: ``S_max`` 7.009546998888254 -> 7.009546999645851.
"""

import hashlib

import numpy as np
import pytest

from koszulflow import geometry as geo
from koszulflow.cli import main, write_potential_snapshot
from koszulflow.grid import PeriodicGrid, ScalarField
from koszulflow.io import MANIFEST_NAME

POT3D = "{pot3d}"

# name -> (verb, config text, extra argv, expected exit code)
CASES = {
    "curvature-bump2d": (
        "curvature",
        "example = bump2d\nsizes = 16,16\nn_samples = 20\nrefine_steps = 5\nsnapshots = true\n",
        ["--probe", "1.0,2.0"],
        0,
    ),
    "curvature-twist2d": (
        "curvature",
        "example = twist2d\nsizes = 16,16\nsnapshots = true\n",
        ["--probe", "0,0"],
        0,
    ),
    "curvature-pot3d": (
        "curvature",
        f"potential = {POT3D}\nn_samples = 20\nrefine_steps = 5\nsnapshots = true\n",
        ["--seed", "3"],
        0,
    ),
    "flow-run-sin1d": (
        "flow-run",
        "example = sin1d\nsizes = 32\nT = 0.05\ndiag_stride = 7\nsample_times = 0.01,0.02\n",
        [],
        0,
    ),
    "flow-run-bump2d-euler": (
        "flow-run",
        "example = bump2d\nsizes = 16,16\nT = 0.1\ndiag_stride = 5\nscheme = euler\n",
        [],
        0,
    ),
    "flow-run-blowup": (
        "flow-run",
        "example = sin1d\nsizes = 32\nT = 1.0\ndt_min = 0.5\nmax_halvings = 0\n"
        "scheme = euler\nsigma = 1.0\n",
        [],
        3,
    ),
    "flow-compare-sin1d": (
        "flow-compare",
        "example = sin1d\nsizes = 32\nT = 0.01\ndt = 1e-3\n",
        [],
        0,
    ),
    "flow-compare-pot3d": (
        "flow-compare",
        f"potential = {POT3D}\nT = 0.02\ndt = 2e-3\n",
        [],
        0,
    ),
    "flow-compare-bump2d-euler": (
        "flow-compare",
        "example = bump2d\nsizes = 16,16\nT = 0.02\ndt = 1e-3\nscheme = euler\n",
        [],
        0,
    ),
    "a2-check-sin1d": (
        "a2-check",
        "example = sin1d\nsizes = 32\ntheta = 0.1\ngauge = zero\nS = 1.0\n",
        [],
        0,
    ),
    "a2-check-pot3d-logdet": (
        "a2-check",
        f"potential = {POT3D}\ntheta = 0.5\ngauge = logdet\nS = 0.5\n",
        [],
        0,
    ),
    "smoothing-probe-rough1d": (
        "smoothing-probe",
        "example = rough1d\nsizes = 32\nt_samples = 0.001,0.005,0.01\n",
        [],
        0,
    ),
}

GOLDEN = {
    "a2-check-pot3d-logdet": {
        "a2.txt": "06906b9bad53edf74345329d46bec7c441bc7504456781b1264f0bb55fe87ed8",
    },
    "a2-check-sin1d": {
        "a2.txt": "d55bd0039d1adafa441a37c5c16e44fbcbd5e19a1ebc5cccb5204cdc77167e63",
    },
    "curvature-bump2d": {
        "beta.hfld": "e6c05879e285f9dc06e6bfb0a7dd8400d37a328ff88074b7306df79cb2a906f3",
        "metric.hfld": "38311a36158e6663c4ab2b377934e8c8b0c8fe7759b433bf06a46da54479d75c",
        "psi.hfld": "db80f1cb284048008c152a1542f9c46d1d6cf51ef87efd0b4e952768c3474053",
        "report.txt": "552262474e852d264935937316f60de6073944ac822c7a2c1a68eb3aef50bdf6",
    },
    "curvature-pot3d": {
        "beta.hfld": "6beb709612f8955427299c7169c1e8a81b261fc9fb66b5ed0832016d1d276d96",
        "metric.hfld": "6a5748c508cfc4713a6dc09c23ebfc367adc1ab328176c1b131cb8393432177b",
        "psi.hfld": "e14edf56fbba8a40d60e71c2bbe5a53a41465822f977d18658407169eec10b4c",
        "report.txt": "3dccbc71753976de0586f31de1fb4450ca07977219f4886df52ca64ef3bbea89",
    },
    "curvature-twist2d": {
        "beta.hfld": "065f73f3802e518d931153c11bceb7365ed873b9ebe2a245758d028bd8ad2c2d",
        "metric.hfld": "eaf2eda710bf50a159c48141577f046e2a4647075400421abfc99830389642df",
        "report.txt": "86d89f5758f266bf68989931aa9cc0eb27353d2c8c4a5f7f202dafa6415508c2",
    },
    "flow-compare-sin1d": {
        "compare.txt": "3a74f11bca399df250e23204a2d18076c7b3aae2ffcec698c25d07ab2b01701b",
    },
    "flow-compare-bump2d-euler": {
        "compare.txt": "5baf64314c63809bf1010e2fa87ce98fbd92f8b422362fe9402df0e79f7766b6",
    },
    "flow-compare-pot3d": {
        "compare.txt": "c775f8008e1e8e73307f8d1feb782cf748dc9d58d36abd82212fffa0e1b9a3f7",
    },
    "flow-run-blowup": {
        "diagnostics.csv": "a2fef745888b7a348e2ad2ec5840814abb2c8232179091bd21a68b1ce8302dc7",
    },
    "flow-run-bump2d-euler": {
        "diagnostics.csv": "9c430675ba20f045dcae8ab43d88238a5264f21bc619eec725d577249a4f31a2",
        "final_metric.hfld": "35dce420a1d20cbab360529c5db90328a126182936c8259d66c09950a7f24d8e",
        "final_phi.hfld": "252762b56d69179acfd85416ead88bbaabb88581edf0a1469ce2faa207cd5e4e",
    },
    "flow-run-sin1d": {
        "diagnostics.csv": "e03e9d051295bf21e98dc003f5f7b11c7c59eccea526a28854ed687db1b4a99c",
        "final_metric.hfld": "1dea554837f0c0bb0227c36aa087b372db9351b3a3e602629d8e16f969ef58eb",
        "final_phi.hfld": "e2fc5a3d11e01deb04eeef0e6c9e32b62cde81dd1a52728f7a0231f9adb9e134",
    },
    "smoothing-probe-rough1d": {
        "probe.csv": "e28125a115ea8c461b4a3ea31855cad58ad248aaeef1c3985170253e9f08da46",
    },
}


@pytest.fixture(scope="module")
def pot3d(tmp_path_factory):
    grid = PeriodicGrid((8, 8, 8), (2 * np.pi,) * 3)
    psi = ScalarField.from_function(
        grid, lambda x, y, z: 0.1 * np.cos(x) * np.cos(y) + 0.05 * np.sin(z + 0.5 * x)
    )
    path = tmp_path_factory.mktemp("golden") / "pot3d.hfld"
    write_potential_snapshot(str(path), geo.PotentialMetric(grid, 2.0 * np.eye(3), psi))
    return str(path)


def output_hashes(name, tmp_path, pot3d):
    verb, text, extra, _ = CASES[name]
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text.replace(POT3D, pot3d))
    out = tmp_path / name
    code = main([verb, "--config", str(cfg), "--out", str(out), *extra])
    hashes = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != MANIFEST_NAME
    }
    return code, hashes


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_hashes(name, tmp_path, pot3d):
    code, hashes = output_hashes(name, tmp_path, pot3d)
    assert code == CASES[name][3]
    assert hashes == GOLDEN[name]
