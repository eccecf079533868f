"""The benchmark's own tests: seeded inputs, tracing that changes nothing,
complete trace coverage, exact counts, non-vacuous checks, and the runner's
output contract."""

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads as wl

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _first(workload, seed, n_cycles=2):
    return list(itertools.islice(wl.cycles(workload, seed), n_cycles))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs(name):
    w = wl.WORKLOADS[name]
    assert _first(w, 7) == _first(w, 7)
    assert _first(w, 7) != _first(w, 8)
    lo, hi = w.m_range
    for cycle in _first(w, 7):
        assert len(cycle) == w.cycle
        # one chain size per log-stratum
        strata = sorted(
            int(w.cycle * math.log(c.m / lo) / math.log(hi / lo)) for c in cycle
        )
        assert strata == list(range(w.cycle))
        for c in cycle:
            for key, (s_lo, s_hi) in wl.SPRINGS.items():
                assert s_lo <= getattr(c, key) <= s_hi
            assert wl.TAU_RANGE[0] <= c.tau_gl <= wl.TAU_RANGE[1]


def _small_requests(qcfk):
    """A few quick ops of each kind: (workload, case, request)."""
    out = []
    small = wl.WORKLOADS["adapt-small"]
    for case in _first(small, 3, 1)[0][:4]:
        out.append((small, case, wl.prepare(qcfk, small, case)))
    sweep = wl.WORKLOADS["sweep-exact"]
    for case in _first(sweep, 3, 1)[0][:2]:
        case = case._replace(m=300)
        out.append((sweep, case, wl.prepare(qcfk, sweep, case)))
    return out


def _namespaces(qcfk):
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "qcfk" or name.startswith("qcfk.")
    }


def _traced(qcfk, reqs):
    tracer = spans.Tracer()
    outs, walls = [], []
    with tracer:
        for op, (w, _, request) in enumerate(reqs):
            tracer.begin_op(op)
            t0 = run.perf_counter()
            outs.append(wl.run_op(qcfk, w, request))
            walls.append(run.perf_counter() - t0)
            tracer.end_op()
    return tracer, outs, walls


def test_tracing_is_bit_identical_and_fully_removed(qcfk):
    reqs = _small_requests(qcfk)
    plain = [wl.fingerprint(w, wl.run_op(qcfk, w, r)) for w, _, r in reqs]
    before = _namespaces(qcfk)

    with spans.Tracer():
        # namespaces that import by name are patched too
        for mod, attr, home in [
            (qcfk.adaptivity, "solve_dual_pair", "qcfk.estimators"),
            (qcfk.cli, "fixed_k_run", "qcfk.adaptivity"),
            (qcfk, "run_adaptive", "qcfk.adaptivity"),
            (qcfk.banded, "factor", "qcfk.banded"),
        ]:
            assert getattr(mod, attr).__wrapped__ is before[home][attr]
    _, outs, _ = _traced(qcfk, reqs)

    assert [wl.fingerprint(w, o) for (w, _, _), o in zip(reqs, outs)] == plain
    after = _namespaces(qcfk)
    assert after.keys() == before.keys()
    for mod, names in before.items():
        for attr, value in names.items():
            assert after[mod][attr] is value, f"{mod}.{attr} left wrapped"


def test_self_times_cover_op_wall(qcfk):
    reqs = _small_requests(qcfk)
    tracer, _, walls = _traced(qcfk, reqs)
    for op, wall in enumerate(walls):
        op_spans = [s for s in tracer.spans if s.op == op]
        parts = spans.op_breakdown(op_spans, wall)
        covered = sum(
            v for k, v in parts.items()
            if k.count(".") == 2 and k.endswith(".self_ms")
        )
        total = covered + parts["trace.bookkeeping_ms"] + parts["trace.unattributed_ms"]
        assert total == pytest.approx(1e3 * wall, rel=1e-9, abs=1e-9)
        layers = sum(parts.get(f"{layer}.self_ms", 0.0) for layer in spans.TRACED)
        assert layers == pytest.approx(covered, rel=1e-9, abs=1e-9)
        assert 0.0 <= parts["trace.unattributed_ms"] < 0.05 * 1e3 * wall
        for s in op_spans:
            assert s.end >= s.start


def test_counts_repeat_exactly(qcfk):
    reqs = _small_requests(qcfk)
    first, _, walls = _traced(qcfk, reqs)
    second, _, _ = _traced(qcfk, reqs)
    assert first.counts == second.counts
    assert not any(c["trace.probe_errors"] for c in first.counts.values())
    m1 = spans.layer_metrics(first, walls, walls)
    m2 = spans.layer_metrics(second, walls, walls)
    counts = [n for n, unit in spans.PER_LAYER if unit in ("count", "ratio", "bytes")]
    assert {n: m1[n] for n in counts} == {n: m2[n] for n in counts}
    # the sweep ops rebuild the atomistic operator for every K
    assert m1["model.assemble.redundant_frac"] > 0.0
    assert m1["cli.output_bytes"] > 0.0


def test_checks_reject_wrong_outputs(qcfk):
    reqs = _small_requests(qcfk)
    (aw, acase, areq), (sw, scase, sreq) = reqs[0], reqs[-1]
    trace = wl.run_op(qcfk, aw, areq)
    fp = wl.fingerprint(aw, trace)
    assert wl.check(qcfk, aw, acase, fp) is None
    assert wl.check(qcfk, aw, acase._replace(tau_gl=trace.final_eta1 / 2), fp)
    assert wl.check(qcfk, aw, acase, fp._replace(status="stalled"))
    shrunk = fp._replace(atomistic=fp.atomistic[: len(fp.atomistic) // 2])
    assert wl.check(qcfk, aw, acase, shrunk)

    text = wl.run_op(qcfk, sw, sreq)
    assert wl.check(qcfk, sw, scase, text) is None
    payload = json.loads(text)
    row = next(r for r in payload["rows"] if not r[-1])
    row[1] = 2.0 * max(row[2], row[4])  # |Q(e)| above both estimates
    assert wl.check(qcfk, sw, scase, json.dumps(payload))
    payload["rows"] = payload["rows"][1:]
    assert wl.check(qcfk, sw, scase, json.dumps(payload))


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_prints_contract_line(trace):
    proc = _run(ROOT, "--workload", "adapt-small", "--seed", "5",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = spans.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)


def test_runner_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "adapt-small", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_checks_run_after_every_op(qcfk, monkeypatch):
    # the peak memory is read between the last op and the first check
    events = []
    real_run, real_check = wl.run_op, wl.check
    monkeypatch.setattr(wl, "run_op", lambda *a: events.append("op") or real_run(*a))
    monkeypatch.setattr(wl, "check", lambda *a: events.append("check") or real_check(*a))
    w = wl.WORKLOADS["adapt-small"]
    res = run.measure(qcfk, w, wl.cycles(w, 2), n_cycles=1)
    assert events == ["op"] * w.cycle + ["check"] * w.cycle
    assert res.peak_rss_mb > 0.0
    assert not res.failures
