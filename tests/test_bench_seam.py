"""The benchmark tracer wraps package names by import path; a refactor that
drops or renames one must fail here, not only when the benchmark runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cavitytd.freq import frequency_groups
from test_cli import small_config, write_config

ROOT = Path(__file__).resolve().parent.parent


def traced_layers(tmp_path, command, config=None):
    """The traced run's per-layer record and its manifest's metrics."""
    config = write_config(tmp_path, small_config() if config is None else config)
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave bench/ untouched
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # bench/child.py installs bench/tracer.Tracer, runs the command and
    # raises if a span the command is expected to open never fired.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "trace", command,
         str(config), str(tmp_path / "out"), str(result)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    return json.loads(result.read_text())["layers"], manifest["metrics"]


@pytest.mark.parametrize("command", ["solve-time", "solve-freq"])
def test_traced_run_opens_every_expected_span(tmp_path, command):
    layers, metrics = traced_layers(tmp_path, command)
    assert layers["fem.assemble_calls"] == 1
    # One kernel column per build.
    assert layers["trace.fft_columns"] == layers["fem.builds"]
    if command == "solve-time":
        # The march builds and factorizes one step matrix and solves no
        # contour node; per-node solves would show here first.
        assert layers["cq.nodes"] == 0
        assert layers["fem.builds"] == 1
        # The tracer sizes every snapshot the writer it wraps writes.
        snapshots = list((tmp_path / "out").glob("snapshot_*.vtk"))
        assert snapshots
        assert layers["io.vtk_bytes"] == sum(p.stat().st_size for p in snapshots)
        solves = 1
    else:
        solves = len(small_config()["sweep"]["s_values"])
    # Every LU the tracer sees is one the manifest counts.
    assert layers["fem.factorizations"] == metrics["factorizations"] == solves


def test_traced_dense_sweep_shares_factorizations(tmp_path):
    # 24 frequencies over [0.5, 4] fall in a few groups: one factorization
    # per group, one build per frequency.
    sweep = {"s_re": [0.5, 4.0], "count": 24, "s_im": 0.0}
    layers, metrics = traced_layers(tmp_path, "solve-freq", small_config(sweep=sweep))
    s_values = np.geomspace(0.5, 4.0, 24)
    groups = len(frequency_groups(s_values))
    assert layers["fem.builds"] == s_values.size
    assert layers["fem.factorizations"] == groups < s_values.size
    assert metrics["factorizations"] == groups
    assert layers["freq.lu_held"] == 1
