import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import cavitytd.cli as cli
from cavitytd import diagnostics, freq
from cavitytd.cli import main
from cavitytd.cq import CqScheme, cq_frequencies
from cavitytd.trace import TraceGrid

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
        "scheme": {"dt": 0.2, "steps": 32, "contour_tol": 1e-20},
        "sweep": {"s_values": [[1.0, 0.0], [2.0, 1.0]]},
        "probes": [[0.0, -0.5]],
        "snapshots": {"every": 16},
        "validate": {"trials": 40},
        "seed": 11,
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


class TestValidate:
    def test_shipped_reference_config(self, tmp_path):
        code = main(
            ["validate", "--config", str(CONFIG_DIR / "reference_single.json"),
             "--out", str(tmp_path)]
        )
        assert code == 0
        summary = (tmp_path / "validate_summary.txt").read_text()
        assert "FAIL" not in summary
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["passed"] is True

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

    @pytest.mark.parametrize("trials", ["x", 0], ids=["not-an-integer", "zero"])
    def test_malformed_trials_exit_2(self, tmp_path, capsys, trials):
        path = write_config(tmp_path, small_config(validate={"trials": trials}))
        assert main(["validate", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "ConfigError" in capsys.readouterr().err


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

    def test_manifest_records_auto_sized_grid(self, tmp_path):
        path = write_config(tmp_path, small_config(trace={}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        grid = TraceGrid.for_apertures([(-0.5, 0.5)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["trace"] == {"L": grid.L, "N": grid.N}

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
            ("solve-time", ("scene", "eps0"), math.nan, [], "ConfigError"),
            ("solve-time", ("incident", "profile", "center"), math.nan, [], "ConfigError"),
            ("solve-time", ("incident", "profile", "width"), math.nan, [], "ConfigError"),
            ("solve-time", ("incident", "profile", "amplitude"), math.nan, [], "ConfigError"),
            ("solve-time", ("scheme", "dt"), math.inf, [], "ConfigError"),
            ("solve-time", ("scheme", "steps"), math.inf, [], "ConfigError"),
            ("mesh-export", ("mesh", "h"), math.nan, [], "ConfigError"),
            ("mesh-export", ("scene", "cavities", 0, "depth"), math.nan, [], "ConfigError"),
            ("validate", ("seed",), "x", [], "ConfigError"),
            ("mesh-export", ("mesh", "h"), 1e-9, [], "MeshFailure"),
            ("solve-time", ("probes",), [[0.0, -0.5], [3.0, -0.5]], [], "ConfigError"),
            ("solve-freq", ("scene", "polarization"), "TM", [], "UnsupportedPolarization"),
        ],
        ids=["sweep-count-not-an-integer", "sweep-s-value-without-imag", "theta-outside-0-pi",
             "s-flag-nan", "s-flag-nan-imag", "sweep-s-value-nan", "sweep-s-value-zero-real",
             "eps0-nan",
             "profile-center-nan", "profile-width-nan", "profile-amplitude-nan",
             "dt-infinity", "steps-infinity", "mesh-h-nan", "cavity-depth-nan",
             "seed-not-a-number", "mesh-h-tiny", "probe-outside-every-cavity", "tm-scene"],
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

    def test_zero_amplitude_zero_field_files(self, tmp_path):
        config = small_config()
        config["incident"]["profile"]["amplitude"] = 0.0
        path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["solve-freq", "--config", str(path), "--out", str(out),
                     "--s", "1+0j"]) == 0
        field = np.loadtxt(out / "solution_s000_cavity0.csv", delimiter=",", skiprows=1)
        assert np.all(field[:, 2:] == 0.0)

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
        config = small_config(sweep={"s_re": [0.5, 4.0], "count": 6, "s_im": 0.5})
        path = write_config(tmp_path, config)
        blobs = []
        for run, threads in (("a", "1"), ("b", "3")):
            out = tmp_path / run
            assert main(["solve-freq", "--config", str(path), "--out", str(out),
                         "--threads", threads]) == 0
            blobs.append((out / "estimate_report.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_tm_scene_exit_2(self, tmp_path):
        config = small_config()
        config["scene"]["polarization"] = "TM"
        path = write_config(tmp_path, config)
        assert main(["solve-freq", "--config", str(path), "--out", str(tmp_path)]) == 2


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
        path = write_config(tmp_path, small_config(scheme={"dt": 0.125, "steps": 64,
                                                           "contour_tol": 1e-20}))
        out = tmp_path / "out"
        assert main(["solve-time", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "energy.csv").exists()
        assert (out / "probes.csv").exists()
        assert (out / "stability_report.csv").exists()
        snapshots = list(out.glob("snapshot_*.vtk"))
        assert len(snapshots) == 5  # steps 0, 16, 32, 48, 64
        head = snapshots[0].read_text().splitlines()
        assert head[0].startswith("# vtk DataFile")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checks"]["causality"] is True
        assert manifest["checks"]["realness"] is True
        assert 0.0 < manifest["metrics"]["max_residual"] <= 1e-10
        assert len(manifest["metrics"]["worst_s"]) == 2
        # Each check's verdict sits next to the value and limit it came from.
        metrics = manifest["metrics"]
        assert metrics["trace"] == {"L": 4.0, "N": 64}
        for check, metric, limit in (
            ("causality", "initial_ratio", 1e-8),
            ("realness", "imag_residue", 1e-10),
            ("energy-dissipation", "dissipation_violation", 1e-8),
            ("stability-ratio", "stability_ratio",
             diagnostics.PINNED_STABILITY_RATIO * diagnostics.PIN_MARGIN),
        ):
            assert metrics[metric]["limit"] == limit
            assert manifest["checks"][check] is (metrics[metric]["value"] <= limit)
        stability = (out / "stability_report.csv").read_text().splitlines()[1].split(",")
        assert metrics["stability_ratio"]["value"] == float(stability[3])
        # A rerun into the same directory differs only in wall times.
        assert main(["solve-time", "--config", str(path), "--out", str(out)]) == 0
        rerun = json.loads((out / "manifest.json").read_text())
        assert rerun.pop("wall_times") and manifest.pop("wall_times")
        assert rerun == manifest

    def test_deterministic_probes(self, tmp_path):
        path = write_config(tmp_path, small_config())
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["solve-time", "--config", str(path), "--out", str(out)]) == 0
            blobs.append((out / "probes.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_causality_violation_exit_1(self, tmp_path):
        # A contour radius too close to one folds the late-time field back
        # into t = 0; the run must fail loudly with exit 1.
        config = small_config(scheme={"dt": 0.2, "steps": 32, "contour_tol": 1e-3})
        path = write_config(tmp_path, config)
        assert main(["solve-time", "--config", str(path), "--out", str(tmp_path)]) == 1

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
         ("snapshots", "every", "x"), ("probes", 0, [0.0, "a"])],
        ids=["trace-N-not-power-of-two", "trace-L-too-small", "theta-outside-0-pi",
             "snapshots-every-not-an-integer", "probe-coordinate-not-a-number"],
    )
    def test_config_value_error_exit_2(self, tmp_path, capsys, section, key, value):
        config = small_config()
        config[section][key] = value
        path = write_config(tmp_path, config)
        assert main(["solve-time", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_solver_failure_exit_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(freq, "_RESIDUAL_LIMIT", 1e-300)
        config = small_config()
        path = write_config(tmp_path, config)
        s0 = cq_frequencies(CqScheme(**config["scheme"]))[0]
        assert main(["solve-time", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "run failed: FactorizationFailure" in err
        assert f"at CQ node 0 (s={s0})" in err

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


class TestMeshExport:
    @pytest.mark.parametrize(
        "command, flag",
        [("mesh-export", "--seed"), ("mesh-export", "--threads"), ("validate", "--threads"),
         ("solve-time", "--seed"), ("solve-freq", "--seed"), ("sweep", "--seed")],
    )
    def test_unread_flag_rejected(self, tmp_path, capsys, command, flag):
        path = write_config(tmp_path, small_config())
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--out", str(tmp_path), flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

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
