"""solve-freq's solution writer: one forked process that formats and
writes the solution files while the command solves.

Only solve-freq imports this module, when it runs.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import pickle
import time
import warnings
from functools import partial
from pathlib import Path
from typing import NoReturn

import numpy as np

from .freq import save_solution_csv, solution_csv_format

__all__ = ["SolutionWriter"]


def _solution_path(out: Path, idx: int, j: int) -> Path:
    return out / f"solution_s{idx:03d}_cavity{j}.csv"


class SolutionWriter:
    """One forked process that formats and writes solve-freq's solution files.

    `send` puts one frequency's fields into a pipe, each as a one-byte tag
    (r for float64, c for complex128) and its raw bytes.  The writer reads
    them in sweep order, cavity after cavity, and writes each file with
    save_solution_csv and the formats it inherited at the fork: the bytes
    and names are those of an in-process write, and the text is formatted
    while the parent solves the next group.  The writer leaves at the
    pipe's end of file, so a parent that dies ends it too.  `close` reaps
    it and raises the exception it failed with.  `blocked` is the time the
    parent spent in `send` and `close`.
    """

    def __init__(self, out: Path, meshes) -> None:
        self._out, self.blocked, self._sent = out, 0.0, 0
        formats = [solution_csv_format(mesh) for mesh in meshes]
        r, w = os.pipe()
        err_r, err_w = os.pipe()
        # A 1 MiB pipe takes a group's fields while the writer still formats
        # the group before; at the 64 KiB default the two take turns.  Where
        # the system refuses, the default serves with the same output.
        with contextlib.suppress(AttributeError, OSError):
            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1 << 20)
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns of a fork in a process with threads, such
                # as BLAS's worker pool; the writer calls no BLAS.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            for fd in (r, w, err_r, err_w):
                os.close(fd)
            raise
        if pid == 0:
            os.close(w)
            os.close(err_r)
            _write_solutions(r, err_w, out, meshes, formats)
        os.close(r)
        os.close(err_w)
        self._pid, self._pipe, self._errors = pid, open(w, "wb"), err_r

    def send(self, fields) -> list[Path]:
        """Hand one frequency's fields to the writer; the paths it writes."""
        t0 = time.perf_counter()
        self._pipe.write(b"".join(
            (b"c" if np.iscomplexobj(f) else b"r") + f.tobytes() for f in fields
        ))
        self._pipe.flush()
        self.blocked += time.perf_counter() - t0
        self._sent += 1
        return [_solution_path(self._out, self._sent - 1, j) for j in range(len(fields))]

    def close(self) -> None:
        """Close the pipe, wait for the writer and raise what it failed with."""
        t0 = time.perf_counter()
        with contextlib.suppress(BrokenPipeError):  # the writer has failed
            self._pipe.close()
        _, status = os.waitpid(self._pid, 0)
        with open(self._errors, "rb") as report:
            failure = report.read()
        self.blocked += time.perf_counter() - t0
        if failure:
            raise pickle.loads(failure)
        if status:
            raise ChildProcessError(f"the solution writer ended with wait status {status}")


def _write_solutions(fields_fd: int, report_fd: int, out: Path, meshes, formats) -> NoReturn:
    """The writer process: write each field read from the pipe `fields_fd`
    until its end of file, send the exception it fails with, pickled, to
    the pipe `report_fd`, and leave by os._exit, so that it never returns
    into the parent's stack."""
    code = 1
    try:
        with open(fields_fd, "rb") as pipe, open(report_fd, "wb") as report:
            try:
                for k, tag in enumerate(iter(partial(pipe.read, 1), b"")):
                    idx, j = divmod(k, len(meshes))
                    dtype = np.dtype(np.complex128 if tag == b"c" else np.float64)
                    size = meshes[j].n_vertices * dtype.itemsize
                    raw = pipe.read(size)
                    if len(raw) < size:  # the parent stopped inside a field
                        break
                    field = np.frombuffer(raw, dtype)
                    save_solution_csv(_solution_path(out, idx, j), meshes[j], field,
                                      formats[j])
                code = 0
            except Exception as exc:
                report.write(pickle.dumps(exc))
    finally:
        os._exit(code)
