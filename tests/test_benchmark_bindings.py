"""The qcfk names the benchmark harness in ``perfbench/`` binds.

``perfbench/spans.py`` wraps the functions its ``TRACED`` table names in
every qcfk module that binds them, and the workloads call a few more
through the package, unpacking what some of them return.  A rename or a
new return shape would only show in the benchmark's own tests, which are
not part of this suite; these checks make it fail here.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import qcfk
from qcfk import adaptivity, cli, estimators

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    spans = _load_spans()
    for layer, names in spans.TRACED.items():
        mod = importlib.import_module(f"{spans.PACKAGE}.{layer}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{layer}.{name}"


def test_by_name_imports_are_bound():
    # the tracer finds these through the importing module's namespace
    assert adaptivity.solve_dual_pair is estimators.solve_dual_pair
    assert cli.fixed_k_run is adaptivity.fixed_k_run
    for name in (
        "AdaptConfig", "ChainParams", "estimate", "exact_goal_error",
        "make_partition", "run_adaptive", "solve_dual_pair",
    ):
        assert hasattr(qcfk, name), name


def test_exact_goal_error_gives_a_float_and_a_vector():
    # the benchmark's adapt check unpacks (Q(e), e)
    p = qcfk.ChainParams(m=100)
    q, e = qcfk.exact_goal_error(p, qcfk.interval_partition(p, 5))
    assert type(q) is float and isinstance(e, np.ndarray) and e.shape == (2 * p.m - 4,)


def test_model_outputs_are_dataclasses():
    # perfbench/spans.py::digest hashes them field by field through
    # dataclasses.fields
    p = qcfk.ChainParams(m=100)
    part = qcfk.interval_partition(p, 5)
    pair = qcfk.solve_dual_pair(p, part)
    assert dataclasses.is_dataclass(qcfk.assemble(p, part))
    assert dataclasses.is_dataclass(qcfk.estimate(pair))
