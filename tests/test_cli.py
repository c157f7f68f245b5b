import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import cavitytd.cli as cli
from cavitytd import cq, diagnostics, freq, incident
from cavitytd.cli import main
from cavitytd.incident import ROW_BLOCK
from cavitytd.io import vtk_mesh_part
from cavitytd.scene import build_scene, mesh_scene
from cavitytd.trace import TraceGrid, beta

from conftest import DTN_MUTATIONS, mutate_dtn_weights

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_config(**overrides):
    config = {
        "scene": {
            "eps0": 1.0,
            "mu0": 1.0,
            "polarization": "TE",
            "cavities": [
                {"aperture": [-0.5, 0.5], "depth": 1.0, "epsilon": 1.0, "mu": 1.0}
            ],
        },
        "mesh": {"h": 0.2},
        "trace": {"L": 4.0, "N": 64},
        "incident": {
            "profile": {"kind": "gaussian-pulse", "center": 3.5, "width": 0.5},
            "theta": 1.5707963267948966,
        },
        "scheme": {"dt": 0.2, "steps": 32},
        "sweep": {"s_values": [[1.0, 0.0], [2.0, 1.0]]},
        "probes": [[0.0, -0.5]],
        "snapshots": {"every": 16},
    }
    config.update(overrides)
    return config


def set_entry(config, path, value):
    """Set config[path[0]][path[1]]... to value; an empty path changes nothing."""
    if path:
        *head, last = path
        for key in head:
            config = config[key]
        config[last] = value


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def in_process_solutions(config, s_values, out):
    """Write into `out`, in this process and by save_solution_csv, the
    solution files of solve-freq on small_config's scene at s_values; the
    files' names."""
    scene = build_scene(config)
    grid = TraceGrid(L=4.0, N=64, apertures=scene.apertures)
    meshes = mesh_scene(scene, 0.2)
    solver = freq.FrequencySolver(scene, meshes, grid)
    profile = incident.WaveProfile(kind="gaussian-pulse", center=3.5, width=0.5)
    wave = incident.PlaneWave(profile, math.pi / 2)
    out.mkdir()
    idx = 0
    for group in freq.frequency_groups(s_values):
        data = [incident.boundary_data_freq(wave, grid, s) for s in group]
        for sol in solver.solve_group(group, data):
            for j, (mesh, field) in enumerate(zip(meshes, sol.fields)):
                freq.save_solution_csv(out / f"solution_s{idx:03d}_cavity{j}.csv", mesh, field)
            idx += 1
    return sorted(p.name for p in out.iterdir())


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestValidate:
    def test_shipped_reference_config(self, tmp_path):
        code = main(
            ["validate", "--config", str(CONFIG_DIR / "reference_single.json"),
             "--out", str(tmp_path)]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["passed"] is True
        assert len(manifest["checks"]) == 6 and all(manifest["checks"].values())
        assert manifest["outputs"] == []

    def test_manifest_records_each_check_value_and_limit(self, tmp_path):
        # Each check's value and limit sit under metrics, keyed by the check,
        # next to its verdict; a check passes at a value at most its limit.
        out = tmp_path / "out"
        path = CONFIG_DIR / "reference_three.json"
        assert main(["validate", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        checks, metrics = manifest["checks"], manifest["metrics"]
        assert sorted(checks) == [
            "oracle-equivalence", "passivity-frequency", "passivity-time-domain",
            "symbol-bound", "symbol-branch-eq", "symbol-branch-re",
        ]
        for name, passed in checks.items():
            metric = metrics[name]
            assert set(metric) == {"value", "limit"}
            assert isinstance(metric["value"], float) and isinstance(metric["limit"], float)
            assert metric["value"] <= metric["limit"]
            assert passed is True, name
        assert metrics["passivity-time-domain"]["limit"] == diagnostics.TIME_DEFECT_TOL
        assert metrics["passivity-frequency"]["limit"] == diagnostics.DEFECT_TOL
        assert "resolution" not in metrics and "seed" not in manifest

    def test_flipped_dtn_weight_exit_1(self, tmp_path, flipped_dtn_weight):
        path = write_config(tmp_path, small_config())
        assert main(["validate", "--config", str(path), "--out", str(tmp_path)]) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        failed = [name for name, passed in manifest["checks"].items() if not passed]
        assert failed == ["passivity-time-domain"]
        metric = manifest["metrics"]["passivity-time-domain"]
        assert metric["value"] > metric["limit"]

    @pytest.mark.parametrize("mutation", sorted(DTN_MUTATIONS))
    def test_dtn_mutation_fails_time_domain_exit_1(self, tmp_path, monkeypatch, mutation):
        mutate_dtn_weights(monkeypatch, *DTN_MUTATIONS[mutation])
        path = CONFIG_DIR / "reference_three.json"
        assert main(["validate", "--config", str(path), "--out", str(tmp_path)]) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        failed = [name for name, passed in manifest["checks"].items() if not passed]
        assert failed == ["passivity-time-domain"]

    def test_overlapping_apertures_exit_2(self, tmp_path):
        config = small_config()
        config["scene"]["cavities"] = [
            {"aperture": [0.0, 1.0], "depth": 1.0, "epsilon": 1.0, "mu": 1.0},
            {"aperture": [1.0, 2.0], "depth": 1.0, "epsilon": 1.0, "mu": 1.0},
        ]
        path = write_config(tmp_path, config)
        assert main(["validate", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_fine_grid_narrow_aperture(self, tmp_path):
        # 26 samples in the aperture at N = 2048; a grid of the same period
        # at the dense oracle's cap N = 1024 would hold only 13 of them.
        config = small_config(trace={"L": 8.0, "N": 2048})
        config["scene"]["cavities"][0]["aperture"] = [-0.05, 0.05]
        path = write_config(tmp_path, config)
        assert main(["validate", "--config", str(path), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["passed"] is True
        assert manifest["metrics"]["trace"] == {"L": 8.0, "N": 2048}

    def test_all_aperture_row(self, tmp_path):
        # One frequency certificate covers every set of aperture traces, the
        # three apertures of reference_three together too: no check per
        # trace count.
        path = CONFIG_DIR / "reference_three.json"
        assert main(["validate", "--config", str(path), "--out", str(tmp_path)]) == 0
        checks = json.loads((tmp_path / "manifest.json").read_text())["checks"]
        assert checks["passivity-frequency"] is True
        assert [name for name in checks if name.startswith("passivity-")] == [
            "passivity-frequency", "passivity-time-domain"
        ]

    def test_conjugated_symbol_fails_passivity_frequency_exit_1(self, tmp_path, monkeypatch):
        # The certificate's symbol conjugated: its modulus, so the symbol
        # bound, stays put, and Re(beta/s) changes sign near the branch
        # point at small Re s.
        monkeypatch.setattr(diagnostics, "beta", lambda *args: np.conj(beta(*args)))
        path = CONFIG_DIR / "reference_three.json"
        assert main(["validate", "--config", str(path), "--out", str(tmp_path)]) == 1
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        failed = [name for name, passed in manifest["checks"].items() if not passed]
        assert failed == ["passivity-frequency"]

    def test_rerun_differs_only_in_wall_times(self, tmp_path):
        # manifest.json is validate's one record: a rerun into the same
        # directory rewrites it with every check's value and verdict unchanged.
        path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        manifests = []
        for _ in range(2):
            assert main(["validate", "--config", str(path), "--out", str(out)]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text()))
        for manifest in manifests:
            assert manifest.pop("wall_times") and manifest.pop("peak_rss_mb")
        assert manifests[0] == manifests[1]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


class TestSolveFreq:
    def test_writes_solutions_and_report(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        assert main(["solve-freq", "--config", str(path), "--out", str(out)]) == 0
        files = sorted(p.name for p in out.glob("solution_*.csv"))
        assert files == ["solution_s000_cavity0.csv", "solution_s001_cavity0.csv"]
        report = (out / "estimate_report.csv").read_text().splitlines()
        assert report[0] == "s1,s2,lhs,rhs,ratio"
        assert len(report) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        ratio = manifest["metrics"]["estimate_ratio_max"]
        assert ratio["value"] == max(float(row.split(",")[4]) for row in report[1:])
        assert manifest["checks"]["estimate-band"] is (ratio["value"] <= ratio["limit"])
        assert manifest["metrics"]["trace"] == {"L": 4.0, "N": 64}
        metrics = manifest["metrics"]
        assert metrics["dofs"] > 0 and metrics["lu_nnz"] > 0
        # 1 and 2+1j lie too far apart to share a factorization.
        assert metrics["factorizations"] == 2
        assert metrics["ordering"] == "MMD_AT_PLUS_A"
        assert 0.0 < metrics["max_residual"] <= 1e-10
        worst = metrics["worst_frequency"]
        assert worst["s"] == small_config()["sweep"]["s_values"][worst["index"]]
        # The time the run waited on the solution writer is its own entry.
        assert sorted(manifest["wall_times"]) == ["solves", "write"]

    def test_manifest_records_auto_sized_grid(self, tmp_path):
        path = write_config(tmp_path, small_config(trace={}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        grid = TraceGrid.for_apertures([(-0.5, 0.5)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["trace"] == {"L": grid.L, "N": grid.N}
        # sweep writes no solution file and starts no writer.
        assert sorted(manifest["wall_times"]) == ["solves"]

    def test_sweep_count_contract(self, tmp_path):
        config = small_config(sweep={"s_re": [0.5, 4.0], "count": 20, "s_im": 0.0})
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["solve-freq", "--config", str(path), "--out", str(out)]) == 0
        assert len(list(out.glob("solution_*.csv"))) == 20
        assert len((out / "estimate_report.csv").read_text().splitlines()) == 21

    def test_nonpositive_sweep_frequency_exit_2(self, tmp_path):
        config = small_config(sweep={"s_values": [[-1.0, 0.0]]})
        path = write_config(tmp_path, config)
        assert main(["solve-freq", "--config", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "command, entry, value, flags, error",
        [
            ("solve-freq", ("sweep",), {"s_re": [0.5, 4.0], "count": "x"}, [], "ConfigError"),
            ("solve-freq", ("sweep",), {"s_values": [[1.0]]}, [], "ConfigError"),
            ("solve-freq", ("incident",),
             {"profile": {"center": 3.5, "width": 0.5}, "theta": 4.0}, [], "ConfigError"),
            ("solve-freq", (), None, ["--s", "nan"], "ConfigError"),
            ("solve-freq", (), None, ["--s", "1+nanj"], "ConfigError"),
            ("solve-freq", ("sweep", "s_values", 1), [math.nan, 0.0], [], "ConfigError"),
            ("solve-freq", ("sweep", "s_values", 1), [0.0, 1.0], [], "DomainError"),
            # (s * width)**2 of the gaussian transform would overflow.
            ("solve-freq", (), None, ["--s", "1+1e155j"], "DomainError"),
            ("solve-freq", ("sweep", "s_values"), [[1.0, 1e155]], [], "DomainError"),
            ("solve-freq", ("sweep",), {"s_values": []}, [], "ConfigError"),
            ("sweep", ("sweep",), {"s_re": [0.5, 4.0], "count": 0}, [], "ConfigError"),
            ("solve-freq", (), None, ["--s", ","], "ConfigError"),
            ("solve-time", ("scene", "eps0"), math.nan, [], "ConfigError"),
            ("solve-time", ("incident", "profile", "center"), math.nan, [], "ConfigError"),
            ("solve-time", ("incident", "profile", "width"), math.nan, [], "ConfigError"),
            ("solve-time", ("incident", "profile", "amplitude"), math.nan, [], "ConfigError"),
            ("solve-time", ("scheme", "dt"), math.inf, [], "ConfigError"),
            ("solve-time", ("scheme", "steps"), math.inf, [], "ConfigError"),
            ("mesh-export", ("mesh", "h"), math.nan, [], "ConfigError"),
            ("mesh-export", ("scene", "cavities", 0, "depth"), math.nan, [], "ConfigError"),
            ("mesh-export", ("mesh", "h"), 1e-9, [], "MeshFailure"),
            ("mesh-export", ("scene", "cavities", 0),
             {"aperture": [-0.5, 0.5], "depth": 1.0, "epsilon": 1.0,
              "mu": "1 + 0.3*exp(-((y+0.8)/0.05)**2)", "collar": 0.05},
             [], "ApertureCollarViolation"),
            ("solve-time", ("probes",), [[0.0, -0.5], [3.0, -0.5]], [], "ConfigError"),
            ("solve-freq", ("scene", "polarization"), "TM", [], "UnsupportedPolarization"),
            ("validate", ("scene", "polarization"), "TM", [], "UnsupportedPolarization"),
            ("solve-time", ("scene", "polarization"), "TM", [], "UnsupportedPolarization"),
            ("sweep", ("scene", "polarization"), "TM", [], "UnsupportedPolarization"),
            ("mesh-export", ("scene", "polarization"), "TM", [], "UnsupportedPolarization"),
            ("solve-time", ("scheme", "steps"), 40.7, [], "ConfigError"),
            ("solve-time", ("snapshots", "every"), 10.5, [], "ConfigError"),
            ("solve-time", ("trace",), {"L": 4.0, "N": 2**40}, [], "ConfigError"),
            ("solve-time", ("trace",), {"min_samples": 10**9}, [], "ConfigError"),
            ("validate", ("trace",), {"L": 40.0}, [], "ConfigError"),
            ("validate", ("trace",), {"N": 4096}, [], "ConfigError"),
            ("validate", ("trace",), {"L": 4, "N": 128, "min_samples": 4096}, [],
             "ConfigError"),
            ("mesh-export", ("mesh", "h"), 1e-320, [], "MeshFailure"),
            ("solve-freq", ("sweep", "s_values", 0), [True, 0.0], [], "ConfigError"),
            ("solve-freq", ("sweep", "s_values", 0), [1.0, 0.0, 5.0], [], "ConfigError"),
            ("solve-time", ("snapshots", "every"), True, [], "ConfigError"),
            ("mesh-export", ("scene", "cavities", 0),
             {"aperture": [0.0, True], "depth": True, "epsilon": True}, [], "ConfigError"),
            ("mesh-export", ("scene", "cavities", 0, "aperture"), ["-0.5", "0.5"], [],
             "ConfigError"),
            ("solve-time", ("scheme", "steps"), "100", [], "ConfigError"),
            ("mesh-export", ("scene", "cavities", 0, "depth"), 10**400, [], "ConfigError"),
            ("mesh-export", ("scene", "cavities", 0, "epsilon"), 10**400, [], "ConfigError"),
            ("mesh-export", ("mesh", "h"), 10**400, [], "ConfigError"),
            ("solve-time", ("trace", "L"), 10**400, [], "ConfigError"),
            ("solve-time", ("incident", "profile", "center"), 10**400, [], "ConfigError"),
            ("solve-time", ("scheme", "dt"), 10**400, [], "ConfigError"),
            ("sweep", ("sweep",), {"s_re": [0.5, 4.0], "count": 10**400}, [], "ConfigError"),
            ("mesh-export", ("scene", "cavities", 0, "epsilon"), "1" + "0" * 400, [],
             "ConfigError"),
            ("mesh-export", ("scene", "cavities", 0, "epsilon"), "1e20**16", [],
             "ConfigError"),
            ("mesh-export", ("scene", "cavities", 0, "mu"), "1 + 0*(1/0)", [], "ConfigError"),
            ("mesh-export", ("scene", "cavities", 0, "epsilon"), "(-8)**0.5", [],
             "ConfigError"),
            ("solve-time", ("scheme", "steps"), 10**400, [], "ConfigError"),
            # (steps + 1) * N one trace row above the cap at small_config's N = 64.
            ("solve-time", ("scheme", "steps"), cq.MAX_MARCH_SAMPLES // 64, [], "ConfigError"),
            ("mesh-export", ("scene", "cavities"),
             [{"aperture": [-0.5, 0.3], "depth": 1.0, "epsilon": 1.0, "mu": 1.0},
              {"aperture": [0.5, 0.9],
               "vertices": [[0.5, 0.0], [0.5, -1.0], [0.9, -1.0], [0.9, 0.0]],
               "epsilon": 1.0, "mu": 1.0}],
             [], "MeshFailure"),
            ("mesh-export", ("scene", "cavities", 0, "aperture"), [-0.5, 0.5, 7], [],
             "ConfigError"),
            ("mesh-export", ("scene", "cavities", 0),
             {"aperture": [-0.5, 0.5], "vertices": [[-0.5], [-0.5, -1.0], [0.5, -1.0], [0.5, 0.0]],
              "epsilon": 1.0, "mu": 1.0, "mesh_file": "cavity.mesh.txt"},
             [], "ConfigError"),
            ("mesh-export", ("scene", "cavities", 0),
             {"aperture": [-0.5, 0.5],
              "vertices": [[-0.5, 0.0], [-0.5, -1.0, 0.0], [0.5, -1.0], [0.5, 0.0]],
              "epsilon": 1.0, "mu": 1.0, "mesh_file": "cavity.mesh.txt"},
             [], "ConfigError"),
            ("mesh-export", ("scene", "cavities", 0),
             {"aperture": [-0.5, 0.5],
              "vertices": [[-0.5, 0.0, 0.0], [-0.5, -1.0, 0.0], [0.5, -1.0, 0.0],
                           [0.5, 0.0, 0.0]],
              "epsilon": 1.0, "mu": 1.0, "mesh_file": "cavity.mesh.txt"},
             [], "ConfigError: malformed cavity entry"),
            ("sweep", ("sweep",), {"s_re": [0.5, 4.0], "count": 10**12}, [], "ConfigError"),
            ("sweep", ("sweep",), {"s_re": [0.5, 4.0], "count": freq.MAX_SWEEP_FREQUENCIES + 1},
             [], "ConfigError"),
            # Pulse centres the march refuses as not at rest at t = 0.
            ("solve-time", ("incident", "profile", "center"), 5.4 * 0.5, [], "ConfigError"),
            ("solve-time", ("incident", "profile", "center"), 6.2 * 0.5, [], "ConfigError"),
            # The frequency commands never march but share the rule: one
            # default causality_tol for every command that reads the pulse.
            ("solve-freq", ("incident", "profile", "center"), 6.0 * 0.5, [], "ConfigError"),
            # A horizon of 0.8 ends more than four widths (2.0) before the peak arrives at 3.5.
            ("solve-time", ("scheme", "steps"), 4, [], "ConfigError: scheme: the horizon"),
        ],
        ids=["sweep-count-not-an-integer", "sweep-s-value-without-imag", "theta-outside-0-pi",
             "s-flag-nan", "s-flag-nan-imag", "sweep-s-value-nan", "sweep-s-value-zero-real",
             "s-flag-huge-imag", "sweep-s-value-huge-imag",
             "sweep-s-values-empty", "sweep-count-zero", "s-flag-empty",
             "eps0-nan",
             "profile-center-nan", "profile-width-nan", "profile-amplitude-nan",
             "dt-infinity", "steps-infinity", "mesh-h-nan", "cavity-depth-nan",
             "mesh-h-tiny", "collar-thinner-than-first-layer",
             "probe-outside-every-cavity", "tm-scene", "tm-scene-validate",
             "tm-scene-solve-time", "tm-scene-sweep", "tm-scene-mesh-export",
             "steps-fractional", "snapshots-every-fractional", "trace-n-over-cap",
             "trace-min-samples-over-cap", "trace-l-alone", "trace-n-alone",
             "trace-min-samples-with-l-n", "mesh-h-subnormal", "sweep-s-value-boolean",
             "sweep-s-value-three-numbers", "snapshots-every-boolean",
             "cavity-aperture-boolean", "cavity-aperture-strings",
             "steps-string", "cavity-depth-overflow", "epsilon-overflow", "mesh-h-overflow",
             "trace-l-overflow", "profile-center-overflow", "dt-overflow",
             "sweep-count-overflow", "epsilon-expression-long-integer",
             "epsilon-expression-overflow", "mu-expression-division-by-zero",
             "epsilon-expression-complex", "steps-overflow", "steps-over-sample-cap",
             "polygon-without-mesh-file", "cavity-aperture-three-numbers",
             "polygon-vertex-one-number", "polygon-vertices-ragged",
             "polygon-vertices-three-numbers", "sweep-count-huge", "sweep-count-over-cap",
             "profile-center-5.4-widths", "profile-center-6.2-widths",
             "solve-freq-profile-center-6-widths", "horizon-before-arrival"],
    )
    def test_config_error_before_meshing_exit_2(self, tmp_path, monkeypatch, capsys,
                                                command, entry, value, flags, error):
        def no_work(*args, **kwargs):
            raise AssertionError("config error reached the meshing stage")

        monkeypatch.setattr(cli, "mesh_scene", no_work)
        config = small_config()
        set_entry(config, entry, value)
        path = write_config(tmp_path, config)
        argv = [command, "--config", str(path), "--out", str(tmp_path), *flags]
        assert main(argv) == 2
        assert f"config error: {error}" in capsys.readouterr().err

    def test_solver_failure_exit_1(self, tmp_path, monkeypatch, capsys):
        # A solve that misses its residual certificate is a run failure, not
        # a config error, and the message names the frequency.
        monkeypatch.setattr(freq, "_RESIDUAL_LIMIT", 1e-300)
        path = write_config(tmp_path, small_config())
        assert main(["solve-freq", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "run failed: FactorizationFailure" in err and "at s=(1+0j)" in err

    @pytest.mark.parametrize("s_im", [0.0, 0.5])
    def test_writer_files_match_in_process_writes(self, tmp_path, s_im):
        # The forked writer formats every file as save_solution_csv does in
        # process, byte for byte, and is reaped before the command returns.
        config = small_config(sweep={"s_re": [0.5, 4.0], "count": 24, "s_im": s_im})
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["solve-freq", "--config", str(path), "--out", str(out)]) == 0
        assert_no_child_left()
        s_values = [complex(v, s_im) for v in np.geomspace(0.5, 4.0, 24)]
        names = in_process_solutions(config, s_values, tmp_path / "ref")
        assert names == sorted(p.name for p in out.glob("solution_*.csv"))
        assert len(names) == 24
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_solver_failure_keeps_the_earlier_groups_files(self, tmp_path, monkeypatch,
                                                           capsys):
        # The second group misses its certificate: the run exits 1 with the
        # first group's files written in full and no other, and the writer
        # is reaped.
        solve_group = freq.FrequencySolver.solve_group
        calls = []

        def fail_from_the_second_group(solver, s_values, data):
            calls.append(s_values)
            if len(calls) == 2:
                monkeypatch.setattr(freq, "_RESIDUAL_LIMIT", 1e-300)
            return solve_group(solver, s_values, data)

        monkeypatch.setattr(freq.FrequencySolver, "solve_group", fail_from_the_second_group)
        config = small_config(sweep={"s_re": [0.5, 4.0], "count": 24, "s_im": 0.0})
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["solve-freq", "--config", str(path), "--out", str(out)]) == 1
        assert "run failed: FactorizationFailure" in capsys.readouterr().err
        assert_no_child_left()
        monkeypatch.undo()
        names = in_process_solutions(config, calls[0], tmp_path / "ref")
        assert 1 < len(names) < 24
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_writer_failure_reaches_the_caller(self, tmp_path):
        # A directory in the place of a solution file: the writer's OSError
        # is raised in the command, as an in-process write raises it.
        path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        blocked = out / "solution_s001_cavity0.csv"
        blocked.mkdir(parents=True)
        with pytest.raises(OSError) as failure:
            main(["solve-freq", "--config", str(path), "--out", str(out)])
        assert str(blocked) in str(failure.value)
        assert_no_child_left()
        assert (out / "solution_s000_cavity0.csv").is_file()

    def test_zero_amplitude_zero_field_files(self, tmp_path):
        config = small_config()
        config["incident"]["profile"]["amplitude"] = 0.0
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["solve-freq", "--config", str(path), "--out", str(out),
                     "--s", "1+0j"]) == 0
        field = np.loadtxt(out / "solution_s000_cavity0.csv", delimiter=",", skiprows=1)
        assert np.all(field[:, 2:] == 0.0)

    def test_tiny_amplitude_certifies_and_scales_exactly(self, reference_single):
        # At load scale 2**-530 the load's squares underflow; the certificate
        # still holds, and the field is the scale-1 field times 2**-530.  The
        # commands refuse such an amplitude (incident.MAX_AMPLITUDE), so the
        # scaled data go to the solver of reference_single directly.
        _, scene, meshes, grid, wave, _ = reference_single
        solver = freq.FrequencySolver(scene, meshes, grid)
        s = 1.0 + 0.5j
        data = incident.boundary_data_freq(wave, grid, s)
        sols = [solver.solve(s, data * scale) for scale in (1.0, 2.0**-530)]
        assert np.any(sols[0].fields[0]) and sols[1].residual <= 1e-10
        assert np.array_equal(sols[1].fields[0], sols[0].fields[0] * 2.0**-530)

    def test_s_flag_override(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        assert main(["solve-freq", "--config", str(path), "--out", str(out),
                     "--s", "1+0.5j"]) == 0
        assert len(list(out.glob("solution_*.csv"))) == 1

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, small_config())
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["solve-freq", "--config", str(path), "--out", str(out)]) == 0
            outs.append((out / "estimate_report.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_threads_byte_identical(self, tmp_path):
        # Complex and real frequencies: the outputs and the manifest's solve
        # record do not depend on the thread count.  Over [0.5, 4] six
        # frequencies are six groups of one; 24 put several frequencies in
        # each group, so the groups solve anchored members.
        for s_im, count in ((0.5, 6), (0.0, 6), (0.0, 24), (0.5, 24)):
            config = small_config(sweep={"s_re": [0.5, 4.0], "count": count, "s_im": s_im})
            path = write_config(tmp_path, config)
            blobs = []
            for threads in ("1", "3"):
                out = tmp_path / f"{s_im}-{count}-{threads}"
                assert main(["solve-freq", "--config", str(path), "--out", str(out),
                             "--threads", threads]) == 0
                metrics = json.loads((out / "manifest.json").read_text())["metrics"]
                record = [metrics[k] for k in ("dofs", "factorizations", "lu_nnz",
                                               "triangular_solves", "max_residual",
                                               "worst_frequency")]
                files = sorted(out.glob("*.csv"))
                blobs.append((record, [p.name for p in files],
                              [p.read_bytes() for p in files]))
            assert blobs[0] == blobs[1]
            factorizations = blobs[0][0][1]
            assert factorizations == count if count == 6 else factorizations < count

    def test_mixed_realness_factorizes_at_each_switch(self, tmp_path):
        # One group that switches between complex and real s three times:
        # each switch factorizes, and the files match direct solves and do
        # not depend on the thread count.
        s_flag = "1+0.2j,1.1,1.05+0.1j,1.15"
        s_values = [complex(tok) for tok in s_flag.split(",")]
        assert len(freq.frequency_groups(s_values)) == 1
        config = small_config()
        path = write_config(tmp_path, config)
        blobs = []
        for threads in ("1", "3"):
            out = tmp_path / threads
            assert main(["solve-freq", "--config", str(path), "--out", str(out),
                         "--s", s_flag, "--threads", threads]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["metrics"]["factorizations"] == 4
            files = sorted(out.glob("*.csv"))
            blobs.append(([p.name for p in files], [p.read_bytes() for p in files]))
        assert blobs[0] == blobs[1]
        scene = build_scene(config)
        grid = TraceGrid(L=4.0, N=64, apertures=scene.apertures)
        solver = freq.FrequencySolver(scene, mesh_scene(scene, 0.2), grid)
        profile = incident.WaveProfile(kind="gaussian-pulse", center=3.5, width=0.5)
        wave = incident.PlaneWave(profile, math.pi / 2)
        for k, s in enumerate(s_values):
            ref = solver.solve(s, incident.boundary_data_freq(wave, grid, s)).fields[0]
            rows = np.loadtxt(out / f"solution_s{k:03d}_cavity0.csv", delimiter=",",
                              skiprows=1)
            got = rows[:, 2] + 1j * rows[:, 3]
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_tm_scene_exit_2(self, tmp_path):
        config = small_config()
        config["scene"]["polarization"] = "TM"
        path = write_config(tmp_path, config)
        assert main(["solve-freq", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_written_group_is_let_go_before_the_next_is_solved(self, tmp_path, monkeypatch):
        # With one thread, no solution of an earlier group is alive when a
        # group's solve starts: each is dropped as it is written.
        refs = []
        solve_group = freq.FrequencySolver.solve_group

        def spy(solver, s_values, data):
            assert all(ref() is None for ref in refs)
            sols = solve_group(solver, s_values, data)
            refs.extend(weakref.ref(sol) for sol in sols)
            return sols

        monkeypatch.setattr(freq.FrequencySolver, "solve_group", spy)
        config = small_config(sweep={"s_re": [0.5, 4.0], "count": 24, "s_im": 0.0})
        path = write_config(tmp_path, config)
        assert main(["solve-freq", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert len(refs) == 24 and all(ref() is None for ref in refs)

    @pytest.mark.parametrize("command", ["solve-freq", "sweep"])
    def test_threads_flag_runs_the_serial_path(self, tmp_path, monkeypatch, command):
        # --threads is accepted and has no effect: no thread is started, and
        # every output and manifest field but the timings and the peak RSS
        # is the same as with --threads 1.
        def no_thread(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        config = small_config(sweep={"s_re": [0.5, 4.0], "count": 24, "s_im": 0.5})
        path = write_config(tmp_path, config)
        blobs = []
        for threads in ("1", "3"):
            out = tmp_path / threads
            assert main([command, "--config", str(path), "--out", str(out),
                         "--threads", threads]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["wall_times"], manifest["peak_rss_mb"]
            manifest["outputs"] = [Path(p).name for p in manifest["outputs"]]
            files = sorted(out.glob("*.csv"))
            blobs.append((manifest, [(p.name, p.read_bytes()) for p in files]))
        assert blobs[0] == blobs[1]
        assert len(blobs[0][1]) == (1 + 24 if command == "solve-freq" else 1)


class TestSolveTime:
    def test_zero_amplitude_all_zero(self, tmp_path):
        config = small_config()
        config["incident"]["profile"]["amplitude"] = 0.0
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["solve-time", "--config", str(path), "--out", str(out)]) == 0
        probes = np.loadtxt(out / "probes.csv", delimiter=",", skiprows=1)
        assert np.all(probes[:, 1] == 0.0)
        energy = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1)
        assert np.all(energy[:, 1] == 0.0)

    def test_reference_outputs(self, tmp_path):
        path = write_config(tmp_path, small_config(scheme={"dt": 0.125, "steps": 64}))
        out = tmp_path / "out"
        assert main(["solve-time", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "energy.csv").exists()
        assert (out / "probes.csv").exists()
        snapshots = list(out.glob("snapshot_*.vtk"))
        assert len(snapshots) == 5  # steps 0, 16, 32, 48, 64
        head = snapshots[0].read_bytes().split(b"\n", 4)
        assert head[0].startswith(b"# vtk DataFile") and head[2] == b"BINARY"
        manifest = json.loads((out / "manifest.json").read_text())
        # run_time_domain raises above the causality limit, so the t = 0
        # ratio is reported without a check that could only read true.
        assert "causality" not in manifest["checks"]
        assert manifest["metrics"]["initial_ratio"]["value"] <= 1e-8
        assert manifest["checks"]["realness"] is True
        assert 0.0 < manifest["metrics"]["max_residual"] <= 1e-10
        worst = manifest["metrics"]["worst_step"]
        assert 0 <= worst["step"] <= 64 and worst["t"] == 0.125 * worst["step"]
        assert manifest["metrics"]["dofs"] > 0 and manifest["metrics"]["lu_nnz"] > 0
        assert manifest["metrics"]["factorizations"] == 1
        assert manifest["metrics"]["ordering"] == "MMD_AT_PLUS_A"
        assert manifest["scheme"] == {"dt": 0.125, "steps": 64}
        # Each check's verdict sits next to the value and limit it came from.
        metrics = manifest["metrics"]
        assert metrics["trace"] == {"L": 4.0, "N": 64}
        for check, metric, limit in (
            ("realness", "imag_residue", 1e-10),
            ("boundary-passivity", "passivity_deficit", 1e-10),
            ("stability-ratio", "stability_ratio",
             diagnostics.PINNED_STABILITY_RATIO * diagnostics.PIN_MARGIN),
        ):
            assert metrics[metric]["limit"] == limit
            assert manifest["checks"][check] is (metrics[metric]["value"] <= limit)
        assert metrics["initial_ratio"]["limit"] == 1e-8
        # The a-priori ratios are reported without a check.
        assert set(metrics["apriori_ratio"]) == {"linf", "l2"}
        assert all(v > 0.0 for v in metrics["apriori_ratio"].values())
        assert not any(name.startswith("apriori") for name in manifest["checks"])
        # A rerun into the same directory differs only in wall times.
        assert main(["solve-time", "--config", str(path), "--out", str(out)]) == 0
        rerun = json.loads((out / "manifest.json").read_text())
        for key in ("wall_times", "peak_rss_mb"):
            assert rerun.pop(key) and manifest.pop(key)
        assert rerun == manifest

    @pytest.mark.parametrize("pin, passivity_limit, passed",
                             [(1e12, 1.0, True), (1e-12, -1.0, False)],
                             ids=["limits-above", "limits-below"])
    def test_stability_report_rows_match_manifest_checks(self, tmp_path, monkeypatch,
                                                         pin, passivity_limit, passed):
        # Each verdict the manifest records follows from the value and limit
        # recorded next to it, whichever way the verdict goes.
        monkeypatch.setattr(diagnostics, "PINNED_STABILITY_RATIO", pin)
        monkeypatch.setattr(diagnostics, "TIME_DEFECT_TOL", passivity_limit)
        path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        assert main(["solve-time", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for check, metric, limit in (
            ("stability-ratio", "stability_ratio", pin * diagnostics.PIN_MARGIN),
            ("boundary-passivity", "passivity_deficit", passivity_limit),
        ):
            recorded = manifest["metrics"][metric]
            assert recorded["limit"] == limit, check
            assert manifest["checks"][check] is (recorded["value"] <= limit), check
            assert manifest["checks"][check] is passed, check

    def test_negated_dtn_history_fails_boundary_passivity(self, tmp_path, monkeypatch):
        # A march whose DtN history has its sign flipped feeds energy back
        # through the apertures: the cumulative outflow goes negative on the
        # shipped scene, and the check reads false.
        dtn_weights = cq.dtn_weights

        def negated(*args):
            omega, imag = dtn_weights(*args)
            omega[1:] *= -1.0
            return omega, imag

        monkeypatch.setattr(cq, "dtn_weights", negated)
        out = tmp_path / "out"
        assert main(["solve-time", "--config", str(CONFIG_DIR / "reference_single.json"),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checks"]["boundary-passivity"] is False
        assert manifest["metrics"]["passivity_deficit"]["value"] > 0.1

    def test_deterministic_probes(self, tmp_path):
        path = write_config(tmp_path, small_config())
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["solve-time", "--config", str(path), "--out", str(out)]) == 0
            blobs.append((out / "probes.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_causality_violation_exit_1(self, tmp_path):
        # A pulse that is not at rest at t = 0 (admitted by a loose
        # causality_tol) leaves a state at t = 0 far above the rest-state
        # bar; the run must fail loudly with exit 1.
        config = small_config()
        config["incident"]["profile"].update(center=2.15, width=0.5, causality_tol=1e-3)
        path = write_config(tmp_path, config)
        assert main(["solve-time", "--config", str(path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("widths, default_code, loose_code", [(5.4, 2, 1), (6.2, 2, 1),
                                                                  (6.6, 0, 0)])
    def test_rest_state_rules_agree(self, tmp_path, widths, default_code, loose_code):
        # The parse step's default causality_tol refuses the centres at 5.4
        # and 6.2 widths (profile-center-*-widths above); given a loose
        # tolerance, the march refuses them too, and accepts 6.6 widths,
        # which the default admits.
        config = small_config()
        config["incident"]["profile"]["center"] = widths * 0.5
        path = write_config(tmp_path, config, "default.json")
        assert main(["solve-time", "--config", str(path), "--out", str(tmp_path)]) == default_code
        config["incident"]["profile"]["causality_tol"] = 1e-3
        path = write_config(tmp_path, config, "loose.json")
        assert main(["solve-time", "--config", str(path), "--out", str(tmp_path)]) == loose_code

    def test_oblique_rest_state_at_aperture_arrival(self, tmp_path, monkeypatch, capsys):
        # reference_two's wave (theta = 0.4 pi) reaches the aperture end
        # x = 1.5 at waveform time c1 * 1.5 = 0.46, before t = 0.  Centred at
        # 6.6 widths, the waveform there is 1.7e-8 against the default
        # tolerance 9.2e-10 (3.5e-10 at the origin), and the march reads an
        # initial ratio of 2.8e-8 against its 1e-8.  solve-time exits 2
        # before meshing; the frequency commands, which never march, keep
        # the rule at the origin, and the shipped centre (7.33 widths) runs.
        config = json.loads((CONFIG_DIR / "reference_two.json").read_text())
        shipped = write_config(tmp_path, config, "shipped.json")
        config["incident"]["profile"]["center"] = 6.6 * 0.75
        path = write_config(tmp_path, config)
        parser = cli._build_parser()
        for command in ("solve-freq", "sweep"):
            cli._parse_config(parser.parse_args([command, "--config", str(path)]))
        cli._parse_config(parser.parse_args(["solve-time", "--config", str(shipped)]))
        config["incident"]["profile"]["causality_tol"] = 1e-3
        loose = write_config(tmp_path, config, "loose.json")
        assert main(["solve-time", "--config", str(loose), "--out", str(tmp_path)]) == 1
        assert "CausalityViolation" in capsys.readouterr().err

        def no_work(*args, **kwargs):
            raise AssertionError("config error reached the meshing stage")

        monkeypatch.setattr(cli, "mesh_scene", no_work)
        assert main(["solve-time", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "gaussian tail at t<=0.463525 is 1.697e-08" in capsys.readouterr().err

    def test_nan_dt_exit_2(self, tmp_path, monkeypatch, capsys):
        # json reads the NaN literal; the scheme check must reject it before
        # the scene is meshed, let alone solved.
        def no_work(*args, **kwargs):
            raise AssertionError("config error reached the compute stage")

        monkeypatch.setattr(cli, "mesh_scene", no_work)
        monkeypatch.setattr(cli, "run_time_domain", no_work)
        config = small_config(scheme={"dt": float("nan"), "steps": 32})
        path = write_config(tmp_path, config)
        assert "NaN" in path.read_text()
        assert main(["solve-time", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [("trace", "N", 100), ("trace", "L", 1.0), ("incident", "theta", 4.0),
         ("snapshots", "every", "x"), ("snapshots", "every", -4), ("probes", 0, [0.0, "a"])],
        ids=["trace-N-not-power-of-two", "trace-L-too-small", "theta-outside-0-pi",
             "snapshots-every-not-an-integer", "snapshots-every-negative",
             "probe-coordinate-not-a-number"],
    )
    def test_config_value_error_exit_2(self, tmp_path, capsys, section, key, value):
        config = small_config()
        config[section][key] = value
        path = write_config(tmp_path, config)
        assert main(["solve-time", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_solver_failure_exit_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(freq, "_RESIDUAL_LIMIT", 1e-300)
        path = write_config(tmp_path, small_config())
        assert main(["solve-time", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "run failed: FactorizationFailure" in err
        assert "at step 0 (t=0)" in err

    def test_probe_outside_cavities_exit_2(self, tmp_path, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("probe error reached the time solve")

        monkeypatch.setattr(cli, "run_time_domain", no_solve)
        path = write_config(tmp_path, small_config(probes=[[0.0, -0.5], [3.0, -0.5]]))
        assert main(["solve-time", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err and "(3.0, -0.5)" in err

    def test_threads_flag(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main(["solve-time", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["solve-time", "--config", str(path), "--out", str(out2),
                     "--threads", "2"]) == 0
        for name in ("probes.csv", "energy.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # The checks' values and verdicts do not depend on the thread count.
        manifests = [json.loads((out / "manifest.json").read_text()) for out in (out1, out2)]
        for key in ("metrics", "checks"):
            assert manifests[0][key] == manifests[1][key]

    def test_byte_identical_reruns_and_threads(self, tmp_path):
        # A rerun, and any --threads value, writes the same bytes to every
        # snapshot, probes.csv and energy.csv.
        path = write_config(tmp_path, small_config())
        blobs = []
        for run, threads in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / run
            assert main(["solve-time", "--config", str(path), "--out", str(out),
                         "--threads", threads]) == 0
            files = sorted(out.glob("snapshot_*.vtk")) + [out / "probes.csv",
                                                         out / "energy.csv"]
            blobs.append([(p.name, p.read_bytes()) for p in files])
        assert len(blobs[0]) == 2 + 3  # snapshots at steps 0, 16, 32
        assert blobs[0] == blobs[1] == blobs[2]
        # Every snapshot starts with the mesh part of the run's meshes.
        config = small_config()
        mesh_part = vtk_mesh_part(mesh_scene(build_scene(config), config["mesh"]["h"]))
        for name, blob in blobs[0][:3]:
            assert blob.startswith(mesh_part), name

    def test_boundary_data_sampled_once_per_order(self, tmp_path, monkeypatch):
        # The march samples g and records its norm row, which the energy
        # record reuses: g, dg/dt and d2g/dt2 are each sampled once per
        # time of the run, in blocks of at most ROW_BLOCK times.
        series = incident.boundary_data_series
        rows = {}

        def count_rows(pw, grid, times, order=0):
            assert len(times) <= ROW_BLOCK
            rows[order] = rows.get(order, 0) + len(times)
            return series(pw, grid, times, order=order)

        monkeypatch.setattr(cq, "boundary_data_series", count_rows)
        monkeypatch.setattr(incident, "boundary_data_series", count_rows)
        steps = 2 * ROW_BLOCK + 5
        path = write_config(tmp_path, small_config(scheme={"dt": 0.2, "steps": steps}))
        assert main(["solve-time", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert rows == {0: steps + 1, 1: steps + 1, 2: steps + 1}

    def test_memory_flat_in_the_step_count(self, tmp_path):
        # The march holds no field history and no space-time data array.
        # From 512 to 2048 steps its traced peak may grow only by the DtN
        # weights and spectra, 3 (N_trace/2 + 1) float64 per added step, by
        # the per-step records (32 float64 allowed: the forms, norms and
        # residuals, the energy record and a probe row) and by 256 KiB for
        # the rest.  Sampled data would add N_trace float64 per step and
        # order, a field history n_nodes (702 here) per step.
        config = small_config(mesh={"h": 0.04}, snapshots={"every": 0})
        n_trace = config["trace"]["N"]
        peaks = []
        steps = (512, 2048)
        for n in steps:
            config["scheme"] = {"dt": 0.2, "steps": n}
            path = write_config(tmp_path, config, f"config{n}.json")
            tracemalloc.start()
            try:
                code = main(["solve-time", "--config", str(path), "--out", str(tmp_path / str(n))])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        per_step = (3 * (n_trace // 2 + 1) + 32) * 8
        assert peaks[1] - peaks[0] <= (steps[1] - steps[0]) * per_step + 2**18


class TestAmplitude:
    """The problem is linear in the amplitude, and a power of two commutes
    with every floating-point operation short of under- and overflow."""

    # The manifest's ratio metrics: homogeneous of degree 0 in the amplitude.
    RATIOS = ("apriori_ratio", "imag_residue", "initial_ratio", "passivity_deficit",
              "stability_ratio", "max_residual", "estimate_ratio_max")

    @staticmethod
    def run(tmp_path, command, amplitude):
        config = small_config()
        config["incident"]["profile"]["amplitude"] = amplitude
        out = tmp_path / f"{command}-{amplitude!r}"
        path = write_config(tmp_path, config, f"{out.name}.json")
        return main([command, "--config", str(path), "--out", str(out)]), out

    @pytest.mark.parametrize("k", [-300, 300])
    @pytest.mark.parametrize("command, pattern, columns", [
        ("solve-time", "probes.csv", slice(1, None)),
        ("solve-freq", "solution_*.csv", slice(2, None)),
    ])
    def test_power_of_two_scales_bitwise(self, tmp_path, command, pattern, columns, k):
        # Probes and solution values scale bitwise by 2**k; every check and
        # ratio reads the same.  Amplitude 0 runs and writes zeros.
        runs = []
        for amplitude in (1.0, 2.0**k, 0.0):
            code, out = self.run(tmp_path, command, amplitude)
            assert code == 0
            values = [np.loadtxt(p, delimiter=",", skiprows=1)[:, columns]
                      for p in sorted(out.glob(pattern))]
            runs.append((json.loads((out / "manifest.json").read_text()), values))
        (base, ones), (scaled, twos), (_, zeros) = runs
        assert ones and len(twos) == len(zeros) == len(ones) and np.any(ones[0])
        for one, two, zero in zip(ones, twos, zeros):
            assert np.array_equal(two, np.ldexp(one, k))
            assert not np.any(zero)
        assert scaled["checks"] == base["checks"]
        ratios = [key for key in self.RATIOS if key in base["metrics"]]
        assert "max_residual" in ratios
        assert [scaled["metrics"][key] for key in ratios] == [
            base["metrics"][key] for key in ratios]

    @pytest.mark.parametrize("amplitude", [2.0**-301, 2.0**301, 2.0**-600],
                             ids=["2**-301", "2**301", "2**-600"])
    @pytest.mark.parametrize("command", ["solve-time", "solve-freq"])
    def test_out_of_range_exit_2_before_meshing(self, tmp_path, monkeypatch, capsys,
                                                command, amplitude):
        def no_mesh(*args):
            raise AssertionError("the amplitude reached the mesher")

        monkeypatch.setattr(cli, "mesh_scene", no_mesh)
        assert self.run(tmp_path, command, amplitude)[0] == 2
        err = capsys.readouterr().err
        assert "ConfigError: malformed incident block: profile amplitude" in err


# The unit square below the aperture [-0.5, 0.5] as two triangles, in the
# format mesh-export writes.
SQUARE_MESH = ("4\n-0.5 0\n-0.5 -1\n0.5 -1\n0.5 0\n2\n0 1 2\n0 2 3\n"
               "4\n0 1 0\n1 2 0\n2 3 0\n3 0 1\n")


@pytest.mark.parametrize("command", ["solve-freq", "sweep", "solve-time"])
def test_manifest_records_resolution(tmp_path, command):
    # h, dx = L/N and L of the config, and for the march dt and dt/sigma.
    path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    resolution = json.loads((out / "manifest.json").read_text())["metrics"]["resolution"]
    expected = {"h": 0.2, "dx": 4.0 / 64, "h_over_dx": 0.2 / (4.0 / 64), "L": 4.0}
    if command == "solve-time":
        expected |= {"dt": 0.2, "dt_over_width": 0.2 / 0.5}
    assert resolution == expected


@pytest.mark.parametrize("command", ["validate", "solve-freq", "sweep", "solve-time",
                                     "mesh-export"])
def test_out_dir_holds_manifest_and_its_outputs(tmp_path, command):
    # The manifest lists every file a command writes besides itself.
    path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    names = [Path(p).name for p in outputs]
    assert len(set(names)) == len(names)
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["manifest.json"])


class TestMeshExport:
    @pytest.mark.parametrize(
        "command, flag",
        [("mesh-export", "--seed"), ("mesh-export", "--threads"), ("validate", "--threads"),
         ("validate", "--seed"), ("solve-time", "--seed"), ("solve-freq", "--seed"),
         ("sweep", "--seed")],
    )
    def test_unread_flag_rejected(self, tmp_path, capsys, command, flag):
        path = write_config(tmp_path, small_config())
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--out", str(tmp_path), flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read mesh file"),
            ("3\n-0.5 0\n0.5 0\n", "is truncated"),
            ("3\n-0.5 0\n0 -1\n0.5 x\n1\n0 1 2\n0\n", "is malformed"),
            ("3\n-0.5 0\n0 -1\n0.5 -0.1\n1\n0 1 2\n0\n", "has no aperture edge"),
            ("3\n-0.4 0\n0 -1\n0.5 0\n1\n0 1 2\n0\n", "does not span [-0.5, 0.5]"),
            ("4\n-0.5 0\n0 -1\n0.5 0\n0 0.5\n2\n0 1 2\n0 2 3\n0\n",
             "has vertices above y=0"),
            (SQUARE_MESH.replace("0 2 3\n", "0 2 99\n"), "names a vertex outside [0, 4)"),
            (SQUARE_MESH.replace("0 2 3\n", "0 2 -3\n"), "names a vertex outside [0, 4)"),
            (SQUARE_MESH.replace("0 1 0\n1 2 0\n2 3 0\n", "0 1 7\n1 2 7\n2 3 7\n"),
             "boundary tags must be 0 (wall) or 1"),
            (SQUARE_MESH.replace("0.5 0\n", "0.5 \xff\n"), "cannot read mesh file"),
            (SQUARE_MESH.replace("\n2\n", "\n-1\n"), "is malformed: negative count -1"),
            (SQUARE_MESH.replace("0.5 -1", "nan -1"), "is malformed: a vertex coordinate"),
            (SQUARE_MESH.replace("0 2 3\n", "0 2 99999999999999999999\n"), "is malformed"),
            (SQUARE_MESH + "3 0 1\n", "is malformed: 3 tokens follow the boundary edges"),
        ],
        ids=["unreadable", "truncated", "malformed", "one-aperture-node",
             "aperture-off-span", "vertex-above-ground", "triangle-index-above-range",
             "triangle-index-negative", "wall-tag-unknown", "not-utf-8", "count-negative",
             "vertex-nan", "index-beyond-int64", "trailing-tokens"],
    )
    def test_imported_mesh_failure_exit_2(self, tmp_path, capsys, text, message):
        mesh_path = tmp_path / "cavity.mesh.txt"
        if text is not None:
            # latin-1 writes "\xff" as the byte 0xff, which is not UTF-8.
            mesh_path.write_text(text, encoding="latin-1")
        config = small_config()
        config["scene"]["cavities"] = [{
            "aperture": [-0.5, 0.5],
            "vertices": [[-0.5, 0.0], [-0.5, -1.0], [0.5, -1.0], [0.5, 0.0]],
            "epsilon": 1.0, "mu": 1.0, "mesh_file": str(mesh_path),
        }]
        path = write_config(tmp_path, config)
        assert main(["mesh-export", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: MeshFailure" in err and message in err

    def test_imported_square_mesh_exit_0(self, tmp_path):
        # The mesh the failure cases above corrupt is itself accepted.
        mesh_path = tmp_path / "cavity.mesh.txt"
        mesh_path.write_text(SQUARE_MESH)
        config = small_config()
        config["scene"]["cavities"] = [{
            "aperture": [-0.5, 0.5],
            "vertices": [[-0.5, 0.0], [-0.5, -1.0], [0.5, -1.0], [0.5, 0.0]],
            "epsilon": 1.0, "mu": 1.0, "mesh_file": str(mesh_path),
        }]
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["mesh-export", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "cavity0.mesh.txt").read_text() == SQUARE_MESH

    def test_roundtrip(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out = tmp_path / "out"
        assert main(["mesh-export", "--config", str(path), "--out", str(out)]) == 0
        from cavitytd.scene import load_mesh

        mesh = load_mesh(out / "cavity0.mesh.txt")
        assert mesh.n_vertices > 0

    def test_env_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, small_config())
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("CAVITY_TD_OUT", str(env_out))
        assert main(["mesh-export", "--config", str(path),
                     "--out", str(tmp_path / "ignored")]) == 0
        assert (env_out / "cavity0.mesh.txt").exists()
        assert not (tmp_path / "ignored").exists()


def _fresh_python(code):
    """Run `code` in a new interpreter that imports cavitytd from this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


# Only the frequency commands use these: scipy.special for the gaussian
# transform, scipy.integrate for the bump's Laplace quadrature.
FREQUENCY_MODULES = ("scipy.integrate", "scipy.special")


@pytest.mark.parametrize("module", FREQUENCY_MODULES)
def test_import_leaves_out_frequency_module(module):
    # The CLI must not pay for them at start-up.
    code = f"import sys, cavitytd.cli; print({module!r} in sys.modules)"
    assert _fresh_python(code) == "False"


def test_time_commands_leave_out_frequency_modules(tmp_path):
    config = CONFIG_DIR / "reference_single.json"
    code = (
        "import sys\n"
        "from cavitytd.cli import main\n"
        "for command in ('solve-time', 'validate'):\n"
        f"    assert main([command, '--config', {str(config)!r},\n"
        f"                 '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        f"print([m for m in {FREQUENCY_MODULES!r} if m in sys.modules])"
    )
    assert _fresh_python(code) == "[]"


def test_integer_keys_take_integral_numbers():
    # 100.0 is the integer 100 and a large int stays exact; fractional
    # values are the config-error cases above.
    assert cli._int(100.0) == 100 and isinstance(cli._int(100.0), int)
    assert cli._int(2**60 + 1) == 2**60 + 1
    # A quoted number is not a number.
    with pytest.raises(ValueError):
        cli._int("100")


class ReadRecorder(dict):
    """A config mapping that records the path of every key read from it,
    through nested mappings and lists."""

    def __init__(self, data, seen, path=()):
        super().__init__({k: _recording(v, seen, path + (k,)) for k, v in data.items()})
        self.seen, self.path = seen, path

    def __getitem__(self, key):
        self.seen.add(self.path + (key,))
        return super().__getitem__(key)

    def get(self, key, default=None):
        return self[key] if key in self else default


def _recording(value, seen, path):
    if isinstance(value, dict):
        return ReadRecorder(value, seen, path)
    if isinstance(value, list):
        return [_recording(v, seen, path + (i,)) for i, v in enumerate(value)]
    return value


def key_paths(value, path=()):
    """The path of every key in a parsed JSON document, through lists by index."""
    if isinstance(value, dict):
        return {p for k, v in value.items() for p in {path + (k,)} | key_paths(v, path + (k,))}
    if isinstance(value, list):
        return {p for i, v in enumerate(value) for p in key_paths(v, path + (i,))}
    return set()


@pytest.mark.parametrize("name", ["reference_single", "reference_two", "reference_three"])
def test_every_shipped_config_key_is_read(name, monkeypatch):
    # A key that no command reads is a knob that changes nothing.
    path = CONFIG_DIR / f"{name}.json"
    document = json.loads(path.read_text())
    seen = set()
    monkeypatch.setattr(cli, "load_config", lambda *_: ReadRecorder(document, seen))
    parser = cli._build_parser()
    for command in ("validate", "solve-freq", "solve-time", "sweep", "mesh-export"):
        cli._parse_config(parser.parse_args([command, "--config", str(path)]))
    assert sorted(map(str, key_paths(document) - seen)) == []


def test_unread_scheme_key_is_ignored(tmp_path):
    # The benchmark's generated configs still carry scheme.contour_tol and
    # the top-level seed, and older configs a validate block; no command
    # reads them.
    parser = cli._build_parser()
    old_keys = {"scheme": {"dt": 0.2, "steps": 32, "contour_tol": 1e-20},
                "seed": 11, "validate": {"trials": 40}}
    current = write_config(tmp_path, small_config(), "current.json")
    old = write_config(tmp_path, small_config(**old_keys), "old.json")
    for command in ("validate", "solve-freq", "solve-time", "sweep", "mesh-export"):
        runs = [cli._parse_config(parser.parse_args([command, "--config", str(path)]))
                for path in (current, old)]
        assert runs[0] == runs[1], command


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read config file"),
        (b'{"scene": "\xff"}', "cannot read config file"),
        (b'{"seed": ' + b"1" * 5000 + b"}", "is not valid JSON"),
        (b"[" * 100_000 + b"]" * 100_000, "is not valid JSON"),
    ],
    ids=["directory", "not-utf-8", "integer-too-long", "nesting-too-deep"],
)
def test_unreadable_config_exit_2(tmp_path, capsys, content, message):
    path = tmp_path / "config.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["mesh-export", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: ConfigError" in err and message in err


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_manifest_hashes_the_config_bytes_read(tmp_path):
    # A config given as a pipe (--config <(cat config.json)) can be read
    # only once: the manifest hashes the bytes the run parsed, as it does
    # for a regular file.
    raw = json.dumps(small_config()).encode()
    path = write_config(tmp_path, small_config())
    assert main(["mesh-export", "--config", str(path), "--out", str(tmp_path / "file")]) == 0
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, raw)
        os.close(write_end)
        argv = ["mesh-export", "--config", f"/dev/fd/{read_end}", "--out", str(tmp_path / "pipe")]
        assert main(argv) == 0
    finally:
        os.close(read_end)
    for run in ("file", "pipe"):
        manifest = json.loads((tmp_path / run / "manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(raw).hexdigest(), run
