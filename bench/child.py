"""One measured cavitytd process, started fresh by bench/run.py.

    python3 bench/child.py setup CONFIG RESULT
    python3 bench/child.py run|trace COMMAND CONFIG OUT RESULT

`setup` times the import of cavitytd plus everything the first solve needs.
`run` times one untraced call into `cavitytd.cli.main`; `trace` does the
same with the layer spans of bench/tracer.py installed.  Each mode writes
its figures as JSON to RESULT and exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _setup(config_path: str) -> dict:
    t0 = time.perf_counter()
    import cavitytd

    config = cavitytd.load_config(config_path)
    scene = cavitytd.build_scene(config)
    grid = cavitytd.TraceGrid(
        L=float(config["trace"]["L"]), N=int(config["trace"]["N"]),
        apertures=scene.apertures,
    )
    meshes = cavitytd.mesh_scene(scene, float(config["mesh"]["h"]))
    cavitytd.FrequencySolver(scene, meshes, grid)
    return {"setup_s": time.perf_counter() - t0}


def _run(mode: str, command: str, config: str, out: str) -> tuple[int, dict]:
    import numpy
    import scipy

    import cavitytd.cli

    tracer = None
    if mode == "trace":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    argv = [command, "--config", config, "--out", out, "--threads", "1"]
    t0 = time.perf_counter()
    rc = cavitytd.cli.main(argv)
    wall = time.perf_counter() - t0
    result = {
        "rc": rc,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None and rc == 0:
        result["layers"] = tracer.metrics(command)
    return rc, result


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "setup":
        config, result_path = rest
        rc, result = 0, _setup(config)
    else:
        command, config, out, result_path = rest
        rc, result = _run(mode, command, config, out)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
