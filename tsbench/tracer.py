"""Per-layer spans and work counts, recorded from outside tsflow.

`Tracer.install()` wraps every plain function in each layer module's
`__all__` (plus the few private helpers in EXTRA) exactly once, then rebinds
every attribute of every loaded `tsflow*` module that refers to an original.
Modules import by name, so `navier_stokes.grid_transform` is a binding of
its own and must be rebound too. `functools.lru_cache` helpers are not plain
functions and are skipped. Spans are recorded only while an op is active
(`begin_op` .. `end_op`); otherwise a wrapper is a direct call-through.
`uninstall()` puts every original back and reports whether any wrapper is
left anywhere.

A span is (id, name, start, end, parent, op, thread, counts). A span that
starts on a thread with no open span (a harness pool thread) is parented to
the op thread's innermost open span, so fanned-out work counts as that
span's children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "io", "spectral", "viscosity", "stokes", "navier_stokes", "harness")

# Private helpers wrapped besides `__all__`: mode_blocks is the viscous symbol
# that stokes and navier_stokes rebuild on every solve, and _map_cases is the
# suite fan-out whose duration is the op thread's wait on the thread pool.
EXTRA = {"viscosity": ("mode_blocks",), "harness": ("_map_cases",)}

_MARK = "__tsbench_original__"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _grid_counts(args, kwargs, result, exc, dur):
    fld, N = _arg(args, kwargs, 0, "field"), int(_arg(args, kwargs, 1, "N"))
    comps = fld.coeffs.shape[0] if fld.coeffs.ndim > fld.lattice.n else 1
    return {"spectral.fft_points": comps * N**fld.lattice.n, "spectral.grid_N_max": N}


def _sampling_counts(args, kwargs, result, exc, dur):
    samples = np.asarray(_arg(args, kwargs, 0, "samples"))
    return {"spectral.fft_points": samples.size, "spectral.grid_N_max": samples.shape[-1]}


def _solve_stokes_counts(args, kwargs, result, exc, dur):
    f = _arg(args, kwargs, 1, "f")
    return {"stokes.factorizations": 1, "stokes.modes_solved": f.lattice.size - 1}


def _picard_counts(args, kwargs, result, exc, dur):
    report = result[2] if exc is None else getattr(exc, "report", None)
    if report is None:
        return None
    hist = report.residual_history
    # omega halves after a pass whose defect grew, unless that pass converged
    checked = len(hist) - 1 if report.converged else len(hist)
    halvings = sum(1 for i in range(1, checked) if hist[i] > hist[i - 1])
    return {"navier_stokes.iterations": report.iterations,
            "navier_stokes.omega_halvings": halvings}


def _file_read(args, kwargs, result, exc, dur):
    return {"io.bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _export_counts(args, kwargs, result, exc, dur):
    fld = _arg(args, kwargs, 1, "field")
    lat = (fld[0] if isinstance(fld, (list, tuple)) else fld).lattice
    return {"io.rows_exported": int(_arg(args, kwargs, 2, "N")) ** lat.n}


# Work counts, computed from each call's arguments and result. Bytes are
# computed from file and buffer sizes, not measured at the device.
COUNTERS = {
    "spectral.grid_transform": _grid_counts,
    "spectral.sampling_transform": _sampling_counts,
    "stokes.solve_stokes": _solve_stokes_counts,
    "stokes.solve_mode": lambda a, k, r, e, d: {"stokes.factorizations": 1,
                                                "stokes.modes_solved": 1},
    "navier_stokes.picard_solve": _picard_counts,
    "harness.run_suite": lambda a, k, r, e, d: (
        None if e else {"harness.cases": sum(s.cases for s in r.results)}),
    "harness._map_cases": lambda a, k, r, e, d: {"harness.pool_wait_s": d},
    "io.read_field": _file_read,
    "io.read_tensor": _file_read,
    "io.atomic_write_bytes": lambda a, k, r, e, d: {
        "io.bytes_written": len(_arg(a, k, 1, "data"))},
    "io.export_grid_csv": _export_counts,
}

COUNT_NAMES = (
    "spectral.fft_points", "spectral.grid_N_max", "stokes.factorizations",
    "stokes.modes_solved", "navier_stokes.iterations", "navier_stokes.omega_halvings",
    "harness.cases", "harness.pool_wait_s", "io.bytes_read", "io.bytes_written",
    "io.rows_exported",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack = []
        self._bindings = []  # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def _targets(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"tsflow.{layer}"]
            for name in tuple(mod.__all__) + EXTRA.get(layer, ()):
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and not hasattr(fn, _MARK):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        return wrappers

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers = self._targets()
        for mod in _tsflow_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._bindings.append((mod, attr, value))
        return len(self._bindings)

    def uninstall(self):
        """Restore every binding; True when no wrapper is left anywhere."""
        for mod, attr, original in self._bindings:
            setattr(mod, attr, original)
        restored = all(getattr(mod, attr) is orig for mod, attr, orig in self._bindings)
        self._bindings = []
        leftover = any(hasattr(value, _MARK)
                       for mod in _tsflow_modules() for value in vars(mod).values())
        return restored and not leftover

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op_id):
        self._op_stack = self._stack()
        self.op = op_id

    def end_op(self):
        self.op = None

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            outer = stack or tracer._op_stack
            parent = outer[-1] if outer else None
            sid = next(tracer._ids)
            stack.append(sid)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = counter(args, kwargs, result, exc, end - start) if counter else None
                tracer.spans.append(
                    (sid, name, start, end, parent, op, threading.get_ident(), counts))

        setattr(wrapper, _MARK, fn)
        return wrapper


def _tsflow_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "tsflow" or key.startswith("tsflow."))]


def op_summary(spans):
    """Per-layer calls and self time, and work counts, for one op's spans.

    Self time is a span's duration minus the union of its children's
    intervals, so children running in parallel threads are not counted twice.
    """
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    counts = {name: 0 for name in COUNT_NAMES}
    for sid, name, start, end, _parent, _op, _thread, extra in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        layer = layers[name.split(".", 1)[0]]
        layer["calls"] += 1
        layer["self_s"] += (end - start) - covered
        for key, value in (extra or {}).items():
            counts[key] = max(counts[key], value) if key.endswith("_max") else counts[key] + value
    return layers, counts


def write_spans(path, spans):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("id\tname\tstart\tend\tparent\top\tthread\n")
        for sid, name, start, end, parent, op, thread, _ in spans:
            fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent or 0}\t{op}\t{thread}\n")
