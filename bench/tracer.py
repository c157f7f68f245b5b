"""Layer spans for one traced cavitytd run, recorded from outside the package.

`Tracer.install()` replaces public callables of the package's modules with
wrappers that open a span around each call, at the name the calling code
looks up (for example `cavitytd.freq.build_system`, which is what
`FrequencySolver.operator` calls).  Nothing under `src/` changes.

Spans nest through a thread-local stack, so every span records its parent
and a layer's self time is its duration minus the time its children cover.
Counters are taken at the same boundaries.  `Tracer.metrics()` folds the
spans and counters into the per-layer metrics of `LAYER_METRICS` and raises
if a span the command is expected to open never fired.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import weakref
from collections import Counter

# Bytes held per stored LU entry: one complex128 value plus one int32 index.
LU_BYTES_PER_NNZ = 20

# Per-layer metric -> source.  "span:<name>" is the summed self time of that
# span; "count:<name>" a counter or maximum kept below.  Units and directions
# are listed with the metrics in BENCHMARK.json.
LAYER_METRICS = {
    "scene.mesh_s": "span:scene.mesh",
    "scene.vertices": "count:scene.vertices",
    "fem.assemble_s": "span:fem.assemble",
    "fem.assemble_calls": "count:fem.assemble",
    "fem.build_s": "span:fem.build",
    "fem.builds": "count:fem.build",
    "fem.factorize_s": "span:fem.factorize",
    "fem.factorizations": "count:fem.factorizations",
    "fem.lu_nnz_max": "count:fem.lu_nnz_max",
    "fem.lu_nnz_sum": "count:fem.lu_nnz_sum",
    "fem.dofs": "count:fem.dofs",
    "fem.solve_s": "span:fem.solve",
    "fem.rhs_s": "span:fem.rhs",
    "trace.apply_B_s": "span:trace.apply_B",
    "trace.fft_columns": "count:trace.fft_columns",
    "incident.series_s": "span:incident.series",
    "incident.freq_data_s": "span:incident.freq_data",
    "freq.solve_s": "span:freq.solve",
    "freq.operator_calls": "count:freq.operator_calls",
    "freq.operator_hits": "count:freq.operator_hits",
    "freq.lu_held": "count:freq.lu_held",
    "freq.lu_bytes_held": "count:freq.lu_bytes_held",
    "cq.self_s": "span:cq.run",
    "cq.nodes": "count:cq.nodes",
    "diagnostics.energy_s": "span:diagnostics.energy",
    "diagnostics.stability_s": "span:diagnostics.stability",
    "diagnostics.apriori_s": "span:diagnostics.apriori",
    "diagnostics.estimate_s": "span:diagnostics.estimate",
    "io.vtk_s": "span:io.vtk",
    "io.vtk_bytes": "count:io.vtk_bytes",
    "io.csv_s": "span:io.csv",
    "io.csv_bytes": "count:io.csv_bytes",
    "cli.self_s": "span:cli.main",
}

_COMMON_SPANS = {
    "cli.main", "scene.mesh", "fem.assemble", "fem.build", "fem.factorize",
    "fem.solve", "fem.rhs", "trace.apply_B", "io.csv",
}
# Spans each CLI command must open; a missing one fails the traced run.
EXPECTED_SPANS = {
    "solve-time": _COMMON_SPANS | {
        "cq.run", "incident.series", "diagnostics.energy",
        "diagnostics.stability", "diagnostics.apriori", "io.vtk",
    },
    "solve-freq": _COMMON_SPANS | {
        "freq.solve", "incident.freq_data", "diagnostics.estimate",
    },
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._held_nnz: dict[int, int] = {}  # id(live operator) -> its LU nnz
        self._held_total = 0

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
        stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str | None, after=None) -> None:
        """Replace owner.attr by a wrapper; `after(args, result)` counts."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs) if name else fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        setattr(owner, attr, wrapper)

    # -- counters ------------------------------------------------------------

    def _bump(self, key: str, by: int = 1) -> None:
        self.counts[key] += by

    def _peak(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], value)

    def _file_bytes(self, key: str):
        return lambda args, out: self._bump(key, os.path.getsize(args[0]))

    def _on_splu(self, args, lu) -> None:
        self._bump("fem.factorizations")
        self._bump("fem.lu_nnz_sum", lu.nnz)
        self._peak("fem.lu_nnz_max", lu.nnz)

    def _wrap_factorize(self, op_cls) -> None:
        # Only a call that reached splu factorized; keep its fill, not the LU,
        # for as long as the operator lives.
        fn = op_cls.factorize

        @functools.wraps(fn)
        def factorize(op):
            before = self.counts["fem.factorizations"]
            lu = self.call("fem.factorize", fn, op)
            if self.counts["fem.factorizations"] != before:
                self._hold(op, lu.nnz)
            return lu

        op_cls.factorize = factorize

    def _hold(self, op, nnz: int) -> None:
        key = id(op)
        if key not in self._held_nnz:
            weakref.finalize(op, self._release, key)
        self._held_total += nnz - self._held_nnz.get(key, 0)
        self._held_nnz[key] = nnz
        self._peak("freq.lu_held", len(self._held_nnz))
        self._peak("freq.lu_bytes_held", self._held_total * LU_BYTES_PER_NNZ)

    def _release(self, key: int) -> None:
        self._held_total -= self._held_nnz.pop(key)

    def _on_build(self, args, op) -> None:
        self._bump("fem.build")
        self._peak("fem.dofs", op.n_dofs)

    def _wrap_operator(self, solver_cls) -> None:
        # A lookup that opened no fem.build span was served from the cache.
        fn = solver_cls.operator

        @functools.wraps(fn)
        def operator(solver, s):
            builds = self.counts["fem.build"]
            out = fn(solver, s)
            self._bump("freq.operator_calls")
            self._bump("freq.operator_hits", int(self.counts["fem.build"] == builds))
            return out

        solver_cls.operator = operator

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import cavitytd.cli as cli
        import cavitytd.cq as cq
        import cavitytd.diagnostics as diag
        import cavitytd.fem as fem
        import cavitytd.freq as freq

        w = self.wrap
        w(cli, "main", "cli.main")
        w(cli, "mesh_scene", "scene.mesh", lambda a, meshes: self._bump(
            "scene.vertices", sum(m.n_vertices for m in meshes)))
        for mod in (freq, cli):
            w(mod, "assemble_all", "fem.assemble", lambda a, o: self._bump("fem.assemble"))
        w(freq, "build_system", "fem.build", self._on_build)
        w(fem.spla, "splu", None, self._on_splu)
        self._wrap_factorize(fem.SystemOperator)
        w(fem.SystemOperator, "solve", "fem.solve")
        for mod in (freq, cq):
            w(mod, "apply_rhs", "fem.rhs")
        w(fem, "apply_B_columns", "trace.apply_B",
          lambda a, o: self._bump("trace.fft_columns", a[0].shape[1]))
        w(cq, "boundary_data_series", "incident.series")
        w(cli, "boundary_data_bundle", "incident.series")
        w(cli, "boundary_data_freq", "incident.freq_data")
        w(freq.FrequencySolver, "solve", "freq.solve")
        w(freq.FrequencySolver, "solve_load", None, lambda a, o: self._bump("cq.nodes"))
        self._wrap_operator(freq.FrequencySolver)
        w(cli, "run_time_domain", "cq.run")
        w(diag, "energy", "diagnostics.energy")
        w(diag, "stability_check", "diagnostics.stability")
        w(diag, "apriori_check", "diagnostics.apriori")
        w(cli, "estimate_report", "diagnostics.estimate")
        w(cli, "write_vtk_snapshot", "io.vtk", self._file_bytes("io.vtk_bytes"))
        for mod, attr in ((cli, "write_csv"), (cli, "save_solution_csv"),
                          (diag, "save_energy_csv")):
            w(mod, attr, "io.csv", self._file_bytes("io.csv_bytes"))

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def metrics(self, command: str) -> dict[str, float]:
        fired = {span[0] for span in self.spans}
        missing = sorted(EXPECTED_SPANS[command] - fired)
        if missing:
            raise RuntimeError(f"expected spans never fired: {', '.join(missing)}")
        self_s = self.self_times()
        out = {}
        for metric, source in LAYER_METRICS.items():
            kind, key = source.split(":", 1)
            out[metric] = self_s.get(key, 0.0) if kind == "span" else self.counts[key]
        return out
