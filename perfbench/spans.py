"""In-memory span recorder for the traced benchmark run.

While installed, a ``Tracer`` replaces each traced qcfk function in every
module namespace that binds it (``adaptivity`` and ``cli`` import several of
them by name) with a wrapper that records one span per call: op id, span
id, parent span id, name, start and end.  Uninstalling puts the original
function objects back.  Nothing inside ``src/`` is edited.

Some calls also feed per-op counters (rows, subnormal outputs, bytes moved,
repeated outputs).  The work of computing those counters is recorded as
``trace.bookkeeping`` spans beside the call, so it never inflates a layer's
self time.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import NamedTuple

import numpy as np

# layer (qcfk module) -> public functions wrapped in the traced run
TRACED = {
    "adaptivity": ("run_adaptive", "fixed_k_run", "mark_atoms"),
    "estimators": ("solve_dual_pair", "estimate", "exact_goal_error"),
    "model": ("make_partition", "assemble", "reduce_system"),
    "banded": ("factor", "solve", "matvec", "norm"),
    "cli": ("parse_run_spec", "run"),
}
PACKAGE = "qcfk"
BOOKKEEPING = "trace.bookkeeping"

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps

# Per-layer metrics of BENCHMARK.json, in its order.  A time of a function
# that some workload never calls (run_adaptive and mark_atoms on
# sweep-exact, fixed_k_run and exact_goal_error and the cli functions on
# adapt-*) would read exactly 0 on every run of that workload, so those
# appear only in the full trace result, next to these.
PER_LAYER = (
    ("adaptivity.self_ms", "ms"),
    ("adaptivity.iterations", "count"),
    ("adaptivity.final_atomistic", "count"),
    ("estimators.self_ms", "ms"),
    ("estimators.solve_dual_pair.ms", "ms"),
    ("estimators.solve_dual_pair.self_ms", "ms"),
    ("estimators.solve_dual_pair.calls", "count"),
    ("estimators.estimate.ms", "ms"),
    ("estimators.estimate.self_ms", "ms"),
    ("estimators.flags", "count"),
    ("model.self_ms", "ms"),
    ("model.make_partition.ms", "ms"),
    ("model.assemble.ms", "ms"),
    ("model.assemble.calls", "count"),
    ("model.assemble.redundant_frac", "ratio"),
    ("model.reduce_system.ms", "ms"),
    ("model.reduce_system.self_ms", "ms"),
    ("model.reduce_system.redundant_frac", "ratio"),
    ("model.dofs", "count"),
    ("banded.self_ms", "ms"),
    ("banded.factor.ms", "ms"),
    ("banded.factor.calls", "count"),
    ("banded.factor.rows", "count"),
    ("banded.factor.redundant_frac", "ratio"),
    ("banded.factor.failures", "count"),
    ("banded.solve.ms", "ms"),
    ("banded.solve.calls", "count"),
    ("banded.solve.rows", "count"),
    ("banded.solve.subnormal_out", "count"),
    ("banded.solve.live_frac", "ratio"),
    ("banded.matvec.ms", "ms"),
    ("banded.matvec.calls", "count"),
    ("banded.matvec.rows", "count"),
    ("banded.norm.ms", "ms"),
    ("banded.bytes_computed", "bytes"),
    ("cli.output_bytes", "bytes"),
    ("trace.op_wall_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.bookkeeping_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
)

# (counter of repeated outputs, counter of calls) -> ratio name
_RATIOS = {
    "model.assemble.redundant_frac": ("model.assemble.redundant", "model.assemble.calls"),
    "model.reduce_system.redundant_frac": (
        "model.reduce_system.redundant",
        "model.reduce_system.calls",
    ),
    "banded.factor.redundant_frac": ("banded.factor.redundant", "banded.factor.calls"),
    "banded.solve.live_frac": ("banded.solve.live", "banded.solve.rows"),
}


class Span(NamedTuple):
    op: int
    sid: int
    parent: int | None
    name: str
    start: float
    end: float


def digest(obj) -> bytes:
    """Content hash of an output: arrays bit for bit, dataclasses by field."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj)
    return h.digest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).data)
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    else:
        h.update(repr(obj).encode())


# --- per-call counters: probe(tracer, args, out) -------------------------
# ``args`` holds the call's arguments in signature order, however passed.


def _repeat(tr: "Tracer", name: str, out) -> None:
    seen = tr._seen.setdefault(name, set())
    key = digest(out)
    if key in seen:
        tr.count(name + ".redundant")
    seen.add(key)


def _probe_assemble(tr, args, out):
    tr.count("model.dofs", out.n_points)
    _repeat(tr, "model.assemble", out)


def _probe_reduce(tr, args, out):
    _repeat(tr, "model.reduce_system", out)


def _probe_factor(tr, args, out):
    a = args[0]
    tr.count("banded.factor.rows", a.n)
    tr.count("banded.bytes_computed", a.bands.nbytes + out.bands.nbytes)
    _repeat(tr, "banded.factor", out.bands)


def _probe_solve(tr, args, out):
    f, rhs = args[0], np.asarray(args[1])
    mag = np.abs(out)
    top = float(mag.max()) if mag.size else 0.0
    tr.count("banded.solve.rows", out.size)
    tr.count("banded.solve.subnormal_out", int(np.count_nonzero((mag > 0) & (mag < _TINY))))
    tr.count("banded.solve.live", int(np.count_nonzero(mag > _EPS * top)))
    tr.count("banded.bytes_computed", f.bands.nbytes + rhs.nbytes + out.nbytes)


def _probe_matvec(tr, args, out):
    a, x = args[0], np.asarray(args[1])
    tr.count("banded.matvec.rows", a.n)
    tr.count("banded.bytes_computed", a.bands.nbytes + x.nbytes + out.nbytes)


def _probe_norm(tr, args, out):
    # the dot product v . (A v); the matvec inside counts itself
    tr.count("banded.bytes_computed", 2 * np.asarray(args[1]).nbytes)


def _probe_estimate(tr, args, out):
    tr.count("estimators.flags", len(out.flags))


def _probe_run_adaptive(tr, args, out):
    tr.count("adaptivity.iterations", len(out.records))
    tr.count("adaptivity.final_atomistic", int(out.final_atomistic.size))


def _probe_cli_run(tr, args, out):
    tr.count("cli.output_bytes", len(out.encode()))


_PROBES = {
    "model.assemble": _probe_assemble,
    "model.reduce_system": _probe_reduce,
    "banded.factor": _probe_factor,
    "banded.solve": _probe_solve,
    "banded.matvec": _probe_matvec,
    "banded.norm": _probe_norm,
    "estimators.estimate": _probe_estimate,
    "adaptivity.run_adaptive": _probe_run_adaptive,
    "cli.run": _probe_cli_run,
}


class Tracer:
    """Span and counter recorder; use as ``with Tracer() as tr:``.

    Calls made outside ``begin_op``/``end_op`` pass straight through.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self._op: int | None = None
        self._stack: list[int] = []
        self._next = 0
        self._seen: dict[str, set] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _targets(self) -> dict[int, tuple[str, object]]:
        """id(original function) -> (span name, function)."""
        out = {}
        for layer, names in TRACED.items():
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                out[id(fn)] = (f"{layer}.{name}", fn)
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and value is targets[id(value)][1]:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self._seen = {}
        self.counts[op] = Counter()

    def end_op(self) -> None:
        self._op = None

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self._op][key] += n

    def _new_id(self) -> int:
        self._next += 1
        return self._next

    def _wrap(self, name: str, fn):
        probe = _PROBES.get(name)
        signature = inspect.signature(fn)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tr._op is None:
                return fn(*args, **kwargs)
            op = tr._op
            parent = tr._stack[-1] if tr._stack else None
            sid = tr._new_id()
            tr._stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                tr._stack.pop()
                tr.spans.append(Span(op, sid, parent, name, start, end))
                tr.count(name + ".raised")
                raise
            end = perf_counter()
            tr._stack.pop()
            tr.spans.append(Span(op, sid, parent, name, start, end))
            tr.count(name + ".calls")
            if probe is not None:
                try:
                    probe(tr, tuple(signature.bind(*args, **kwargs).arguments.values()), out)
                except Exception:  # a counter must never change the program's result
                    tr.count("trace.probe_errors")
                tr.spans.append(
                    Span(op, tr._new_id(), parent, BOOKKEEPING, end, perf_counter())
                )
            return out

        return traced


# --- aggregation ----------------------------------------------------------


def op_breakdown(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-op times in ms: ``<fn>.ms``, ``<fn>.self_ms``, ``<layer>.self_ms``.

    Self time is a span's duration minus the durations of its children.
    ``trace.unattributed_ms`` is the op's wall time not covered by any
    top-level span, so every self time plus it adds up to the wall time.
    """
    child = Counter()
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out = Counter()
    top = 0.0
    for s in spans:
        dur = s.end - s.start
        self_t = dur - child[s.sid]
        if s.parent is None:
            top += dur
        if s.name == BOOKKEEPING:
            out["trace.bookkeeping_ms"] += 1e3 * dur
            continue
        layer = s.name.split(".", 1)[0]
        out[f"{s.name}.ms"] += 1e3 * dur
        out[f"{s.name}.self_ms"] += 1e3 * self_t
        out[f"{layer}.self_ms"] += 1e3 * self_t
    out["trace.op_wall_ms"] = 1e3 * wall
    out["trace.unattributed_ms"] = 1e3 * (wall - top)
    return dict(out)


def all_metric_names() -> list[str]:
    """Every per-layer name the full trace result reports."""
    names = [name for name, _ in PER_LAYER] + ["trace.probe_errors"]
    for layer, fns in TRACED.items():
        names.append(f"{layer}.self_ms")
        for fn in fns:
            names += [f"{layer}.{fn}.{k}" for k in ("ms", "self_ms", "calls")]
    return list(dict.fromkeys(names))


def layer_metrics(
    tracer: Tracer, traced_walls: list[float], untraced_walls: list[float]
) -> dict[str, float]:
    """Per-op means over the traced ops; ratios are ratios of totals.

    ``trace.overhead_ms`` is the mean traced op wall time minus the mean
    untraced wall time of the same inputs.
    """
    by_op: dict[int, list[Span]] = {op: [] for op in range(len(traced_walls))}
    for s in tracer.spans:
        by_op[s.op].append(s)
    totals = Counter()
    for op, wall in enumerate(traced_walls):
        totals.update(op_breakdown(by_op[op], wall))
        totals.update(tracer.counts.get(op, Counter()))
    n = len(traced_walls)
    totals["banded.factor.failures"] = totals["banded.factor.raised"]
    out = {name: totals[name] / n for name in all_metric_names()}
    for name, (num, den) in _RATIOS.items():
        out[name] = totals[num] / totals[den] if totals[den] else 0.0
    out["trace.overhead_ms"] = 1e3 * (
        statistics.fmean(traced_walls) - statistics.fmean(untraced_walls)
    )
    return out
