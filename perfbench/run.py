"""qcfk benchmark: one closed-loop client driving the public API in-process.

    python3 perfbench/run.py --workload adapt-small --seed 1 --seconds 25 --trace 0

Run it from the root of a qcfk checkout; the package is imported from
``./src`` and nowhere else.  Workloads are defined in ``workloads.py``.

``--trace 0`` measures end to end: set-up (a fresh ``import qcfk`` plus a
warm-up op, repeated at least ``SETUP_MIN_REPS`` times and for at least
``SETUP_MIN_S``), then whole input cycles until ``--seconds`` would be
exceeded.  Every op of the run is checked after the last one, outside the
timed region, and the peak resident memory is read before the checks.
``--trace 1`` measures the workload's first cycle untraced, then the same
inputs again with every traced function wrapped (``spans.py``), requires
bit-identical outputs, and reports per-layer metrics per op.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
(environment, samples, every per-layer metric) goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``; the traced run also
writes its spans there as JSON lines.
"""

import os

# BLAS/OpenMP threads, fixed before numpy loads.
BLAS_THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_MIN_REPS = 7
SETUP_MIN_S = 3.0
SETUP_MAX_REPS = 60

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END = (
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class SetupError(RuntimeError):
    """The checkout holds no importable qcfk source tree."""


@dataclass
class Pass:
    """Outcome of one loop over inputs."""

    cases: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # s, ops that returned
    prints: list = field(default_factory=list)  # output fingerprints
    failures: list = field(default_factory=list)  # (op index, reason)
    cycles: int = 0
    peak_rss_mb: float = 0.0  # after the ops, before any check

    @property
    def attempted(self) -> int:
        return len(self.cases)


def fresh_import():
    """Import qcfk from ./src, dropping any copy already loaded."""
    if not (SRC / "qcfk" / "__init__.py").is_file():
        raise SetupError(f"no qcfk package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "qcfk" or n.startswith("qcfk.")]:
        del sys.modules[name]
    qcfk = importlib.import_module("qcfk")
    importlib.import_module("qcfk.cli")
    if Path(qcfk.__file__).resolve().parent != SRC / "qcfk":
        raise SetupError(f"qcfk imported from {qcfk.__file__}, not from {SRC}")
    return qcfk


def setup(workload):
    """Fresh imports, each followed by the warm-up op: at least
    SETUP_MIN_REPS of them and SETUP_MIN_S in all, at most SETUP_MAX_REPS."""
    times = []
    while len(times) < SETUP_MAX_REPS and (
        len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S
    ):
        t0 = perf_counter()
        qcfk = fresh_import()
        wl.run_op(qcfk, workload, wl.prepare(qcfk, workload, workload.warmup))
        times.append(perf_counter() - t0)
    return qcfk, times


def measure(qcfk, workload, cycle_iter, seconds=None, n_cycles=None) -> Pass:
    """Closed loop over whole cycles: stop after n_cycles, or before a cycle
    that would end past ``seconds``.  Only output fingerprints are kept; they
    are checked after the last op, so the peak memory read in between is
    that of the ops."""
    res = Pass()
    start = perf_counter()
    for cycle in cycle_iter:
        t_cycle = perf_counter()
        for case in cycle:
            request = wl.prepare(qcfk, workload, case)
            op = res.attempted
            res.cases.append(case)
            t0 = perf_counter()
            try:
                out = wl.run_op(qcfk, workload, request)
            except Exception as exc:  # a failed op is counted, not fatal
                res.failures.append((op, f"{type(exc).__name__}: {exc}"))
                res.prints.append(None)
                continue
            res.latencies.append(perf_counter() - t0)
            res.prints.append(wl.fingerprint(workload, out))
            del out
        res.cycles += 1
        now = perf_counter()
        if n_cycles is not None:
            if res.cycles >= n_cycles:
                break
        elif now - start + (now - t_cycle) > seconds:
            break
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for op, (case, fp) in enumerate(zip(res.cases, res.prints)):
        if fp is not None:
            reason = wl.check(qcfk, workload, case, fp)
            if reason is not None:
                res.failures.append((op, reason))
    res.failures.sort(key=lambda f: f[0])
    return res


def traced_pass(qcfk, workload, base: Pass):
    """Re-run base's inputs under the tracer; outputs must be bit-identical."""
    tracer = spans.Tracer()
    walls, failures = [], []
    with tracer:
        for op, case in enumerate(base.cases):
            request = wl.prepare(qcfk, workload, case)
            tracer.begin_op(op)
            t0 = perf_counter()
            try:
                out = wl.run_op(qcfk, workload, request)
            except Exception as exc:
                failures.append((op, f"traced: {type(exc).__name__}: {exc}"))
                out = None
            finally:
                walls.append(perf_counter() - t0)
                tracer.end_op()
            if out is not None and wl.fingerprint(workload, out) != base.prints[op]:
                failures.append((op, "traced output differs from untraced output"))
            del out
    return tracer, walls, failures


def quartiles_ms(samples):
    if len(samples) < 2:
        return None
    return [1e3 * q for q in statistics.quantiles(samples, n=4)]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qcfk").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree (read without git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_info() -> tuple[str | None, int | None]:
    """CPU model and last-level cache bytes, from /proc/cpuinfo when present."""
    model = cache = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key, value = key.strip(), value.strip()
                if key == "model name" and model is None:
                    model = value
                elif key == "cache size" and cache is None and value.endswith("KB"):
                    cache = 1024 * int(value[:-2])
                if model and cache:
                    break
    except OSError:
        pass
    return model, cache


def environment(workload, seed, cases) -> dict:
    import numpy
    import scipy

    model, l3 = cpu_info()
    m_max = max(c.m for c in [*cases, workload.warmup])
    vector = 8 * 2 * m_max
    band = 3 * vector  # reduced pentadiagonal system, 3 stored bands
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": git_commit(),
        "src_sha256_16": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "seed": seed,
        "workload": workload.name,
        "clients": 1,
        "loop": "closed",
        "largest_m": m_max,
        "largest_vector_bytes": vector,
        "largest_band_bytes": band,
        "largest_band_over_l3": band / l3 if l3 else None,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    workload = wl.WORKLOADS[args.workload]

    try:
        qcfk, setup_times = setup(workload)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    cycle_iter = wl.cycles(workload, args.seed)
    if args.trace:
        base = measure(qcfk, workload, cycle_iter, n_cycles=1)
        tracer, traced_walls, traced_failures = traced_pass(qcfk, workload, base)
    else:
        base = measure(qcfk, workload, cycle_iter, seconds=args.seconds)
        traced_failures = []
    failures = base.failures + traced_failures
    attempted = base.attempted * (2 if args.trace else 1)
    lat = base.latencies
    if not lat:
        print("perfbench: every op failed: " + repr(failures[:3]), file=sys.stderr)
        return 1

    e2e = {
        "op_p50_ms": 1e3 * statistics.median(lat),
        "ops_per_s": len(lat) / sum(lat),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": base.peak_rss_mb,
    }
    extra = {
        "n_ops": len(lat),
        "cycles": base.cycles,
        "op_quartiles_ms": quartiles_ms(lat),
        "failed_frac": len(failures) / attempted,
        "setup_reps_s": setup_times,  # the first also loads numpy and scipy
    }
    if len(lat) >= 100:  # at least ten samples beyond the 90th percentile
        extra["op_p90_ms"] = 1e3 * statistics.quantiles(lat, n=10)[-1]

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        layer = spans.layer_metrics(tracer, traced_walls, base.latencies)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in spans.PER_LAYER}
        t0 = tracer.spans[0].start if tracer.spans else 0.0
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s._replace(start=s.start - t0, end=s.end - t0)._asdict()) + "\n")
        full = {"per_layer": layer, "traced_latencies_s": traced_walls}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        full = {}
    env = environment(workload, args.seed, base.cases)
    record = {
        "environment": env,
        "end_to_end": e2e,
        "extra": extra,
        "failures": failures[:20],
        "cases": [c._asdict() for c in base.cases],
        "latencies_s": lat,
        **full,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"ops={len(lat)} cycles={base.cycles} failed={len(failures)}/{attempted}")
    print("# environment " + json.dumps(env))
    print(f"# setup: {len(setup_times)} reps, median {e2e['setup_s']:.4g} s; the first, "
          f"which also loads numpy and scipy, {setup_times[0]:.4g} s")
    for name, unit in END_TO_END:
        print(f"{name:>14} {e2e[name]:14.6g} {unit}")
    if "op_p90_ms" in extra:
        print(f"{'op_p90_ms':>14} {extra['op_p90_ms']:14.6g} ms")
    print(f"{'failed_frac':>14} {extra['failed_frac']:14.6g} ratio")
    for reason in failures[:5]:
        print(f"# failure: op {reason[0]}: {reason[1]}")
    if args.trace:
        for name in sorted(layer):
            print(f"{name:>40} {layer[name]:14.6g}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
