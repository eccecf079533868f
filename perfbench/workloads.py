"""Workloads of the qcfk benchmark: seeded inputs, the op, and its checks.

Inputs come in cycles of ``cycle`` ops.  Each workload has one fixed
Latin-hypercube design of ``cycle`` rows over (log M, k0, k1, k2): every
axis is cut into ``cycle`` equal strata and each stratum is used by exactly
one row.  A cycle runs every row once.  The seed decides, afresh for every
cycle, where in its log-M stratum each row's chain size falls (within
``JITTER / 2`` of a stratum width from the centre), a Latin-hypercube
draw of log tau_gl paired at random with the rows, and the order of the
ops.  The design is shared by every seed because op time at a given M
varies by up to 2x with the springs (through how many solve outputs end up
subnormal): springs or size pairings drawn per seed would make a run's
median depend more on what it drew than on the program.  Runs measure
whole cycles.  Op times cluster by design row, so short cycles use an odd
number of rows: the median then falls inside the middle row's cluster
rather than in the gap between two clusters.

The program only ever receives the generated inputs: ``ChainParams`` and
``AdaptConfig`` objects for ``adapt-*``, a CLI argv list for
``sweep-exact``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

JITTER = 0.5
SPRINGS = {"k0": (0.5, 2.0), "k1": (1.0, 4.0), "k2": (0.5, 3.0)}
TAU_RANGE = (1e-12, 1e-6)
# the paper's table2 grid of atomistic half-widths
TABLE2_K = (0, 2, 4, 6, 8, 10, 15, 20, 25, 30, 35, 40, 45, 50)
TABLE2_COLUMNS = ["k", "q_error", "eta1", "eta1_eff", "eta2", "eta2_eff", "precision_floor"]
# below this |Q(e)| double precision noise dominates the exact reference
PRECISION_FLOOR = 1e-13


class Case(NamedTuple):
    """One generated input, as plain numbers."""

    m: int
    k0: float
    k1: float
    k2: float
    tau_gl: float


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "adapt" (one run_adaptive call) or "sweep" (one table2 CLI call)
    m_range: tuple[float, float]
    cycle: int  # ops per cycle
    why: str

    @property
    def warmup(self) -> Case:
        """Fixed warm-up input: the smallest chain, default springs."""
        return Case(int(self.m_range[0]), 1.0, 2.0, 2.0, 1e-9)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "adapt-small", "adapt", (500, 5000), cycle=100,
            why="short chains: per-call Python overhead in model, estimators and "
            "adaptivity dominates, O(M) array work is a small share",
        ),
        Workload(
            "adapt-large", "adapt", (1e5, 3e5), cycle=7,
            why="long chains, M 1e5-3e5, whose ~20 live arrays grow from a third "
            "of L3 to about its size: O(M) factor, solves, assembly and estimate "
            "dominate",
        ),
        Workload(
            "sweep-exact", "sweep", (5e3, 5e4), cycle=7,
            why="table2 CLI over 14 windows of one chain: the exact oracle, "
            "the most repeated assembly per op, and the cli layer",
        ),
    )
}


def _strata(rng: random.Random, n: int) -> list[int]:
    """The stratum indices 0 .. n-1 in random order."""
    order = list(range(n))
    rng.shuffle(order)
    return order


def _point(rng: random.Random, stratum: int, n: int) -> float:
    """A point of (0, 1) near the centre of the given stratum."""
    return (stratum + 0.5 + JITTER * (rng.random() - 0.5)) / n


def _log_scale(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def design(workload: Workload) -> list[tuple[int, float, float, float]]:
    """The workload's fixed rows: (log-M stratum, k0, k1, k2)."""
    rng = random.Random(f"{workload.name}/design")
    n = workload.cycle
    m_strata = _strata(rng, n)
    springs = [
        [lo + _point(rng, s, n) * (hi - lo) for s in _strata(rng, n)]
        for lo, hi in SPRINGS.values()
    ]
    return list(zip(m_strata, *springs))


def cycles(workload: Workload, seed: int):
    """Endless sequence of input cycles; the same seed gives the same inputs."""
    rng = random.Random(f"{workload.name}/{seed}")
    rows = design(workload)
    n = len(rows)
    while True:
        cycle = [
            Case(
                round(_log_scale(_point(rng, s, n), *workload.m_range)),
                k0, k1, k2,
                _log_scale(_point(rng, t, n), *TAU_RANGE),
            )
            for (s, k0, k1, k2), t in zip(rows, _strata(rng, n))
        ]
        rng.shuffle(cycle)
        yield cycle


# --- requests, ops, checks --------------------------------------------------


def _params(qcfk, case: Case):
    return qcfk.ChainParams(m=case.m, k0=case.k0, k1=case.k1, k2=case.k2)


def prepare(qcfk, workload: Workload, case: Case):
    """Build the program's input objects for one op (outside the timed region)."""
    if workload.kind == "adapt":
        return _params(qcfk, case), qcfk.AdaptConfig(tau_gl=case.tau_gl)
    return [
        "table2",
        "--m", str(case.m),
        "--k", ",".join(str(k) for k in TABLE2_K),
        "--k0", repr(case.k0),
        "--k1", repr(case.k1),
        "--k2", repr(case.k2),
        "--format", "json",
    ]


def run_op(qcfk, workload: Workload, request):
    """One user-visible request.  Functions are looked up at call time so
    the traced run sees its wrappers."""
    if workload.kind == "adapt":
        return qcfk.run_adaptive(*request)
    return qcfk.cli.run(qcfk.cli.parse_run_spec(request))


class AdaptPrint(NamedTuple):
    """The fingerprint of one ``AdaptTrace``."""

    status: str
    records: tuple  # (iteration, k, n_atomistic, tau_at, eta1, eta2) per iteration
    atomistic_dtype: str
    atomistic: bytes  # the final region's atom ids


def fingerprint(workload: Workload, out):
    """Everything an op returns, in a compact form compared for bit identity
    and checked by ``check``."""
    if workload.kind == "sweep":
        return out
    return AdaptPrint(
        out.status,
        tuple((r.iteration, r.k, r.n_atomistic, r.tau_at, r.eta1, r.eta2) for r in out.records),
        out.final_atomistic.dtype.str,
        out.final_atomistic.tobytes(),
    )


def check(qcfk, workload: Workload, case: Case, fp) -> str | None:
    """Why the op's output, given by its fingerprint, is wrong, or None when
    every invariant holds."""
    if workload.kind == "adapt":
        return _check_adapt(qcfk, case, fp)
    return _check_sweep(case, fp)


def _check_adapt(qcfk, case: Case, fp: AdaptPrint) -> str | None:
    params = _params(qcfk, case)
    if fp.status != "converged":
        return f"status {fp.status!r}"
    final_eta1 = fp.records[-1][4]
    if not final_eta1 <= case.tau_gl:
        return f"final eta1 {final_eta1:.3e} > tau_gl {case.tau_gl:.3e}"
    sizes = [r[2] for r in fp.records]
    if any(b < a for a, b in zip(sizes, sizes[1:])):
        return f"region shrank: {sizes}"
    atomistic = np.frombuffer(fp.atomistic, dtype=fp.atomistic_dtype).copy()
    if atomistic.size != sizes[-1]:
        return "final region differs from the last iteration's region"
    part = qcfk.make_partition(params, atomistic=atomistic)
    pair = qcfk.solve_dual_pair(params, part)
    report = qcfk.estimate(pair)
    if report.eta1 != final_eta1:
        return "eta1 recomputed on the final region differs"
    q, _ = qcfk.exact_goal_error(params, part, pair)
    if abs(q) < PRECISION_FLOOR:
        return None
    if not report.bound_low <= q <= report.bound_high:
        return f"Q(e) {q:.3e} outside [{report.bound_low:.3e}, {report.bound_high:.3e}]"
    if abs(q) > report.eta2:
        return f"|Q(e)| {abs(q):.3e} > eta2 {report.eta2:.3e}"
    return None


def _check_sweep(case: Case, text: str) -> str | None:
    payload = json.loads(text)
    spec = payload["spec"]
    if spec["m"] != [case.m] or [spec["k0"], spec["k1"], spec["k2"]] != [
        case.k0, case.k1, case.k2
    ]:
        return "spec does not echo the requested chain"
    if payload["columns"] != TABLE2_COLUMNS:
        return f"columns {payload['columns']}"
    rows = [dict(zip(TABLE2_COLUMNS, row)) for row in payload["rows"]]
    if [r["k"] for r in rows] != list(TABLE2_K):
        return "rows do not carry the requested K values"
    for r in rows:
        values = (r["q_error"], r["eta1"], r["eta2"])
        if not all(isinstance(v, float) and math.isfinite(v) for v in values):
            return f"k={r['k']}: non-finite or missing value"
        if r["precision_floor"] != (r["q_error"] < PRECISION_FLOOR):
            return f"k={r['k']}: precision_floor flag wrong"
        if r["precision_floor"]:
            continue
        if r["q_error"] > r["eta1"] or r["q_error"] > r["eta2"]:
            return f"k={r['k']}: |Q(e)| {r['q_error']:.3e} exceeds eta1 or eta2"
    return None
