"""The frozen value types: built without generated code, and with the
semantics of ``dataclass(frozen=True)`` that the package and its users
rely on (``dataclasses.fields``, ``replace``, equality, hashing, repr and
argument checks)."""

import dataclasses
import inspect

import numpy as np
import pytest

from qcfk import adaptivity, banded, cli, estimators, model
from qcfk._record import frozen

MODULES = (model, banded, estimators, adaptivity, cli)

# every record's fields, in order, as the public API has them
FIELDS = {
    "ChainParams": "m k0 k1 k2 a0 bc",
    "Partition": "atomistic",
    "QuadraticModel": "ids e_mat a_eq b_eq",
    "LinearSystem": "mat rhs_wells wells_free lift free_index",
    "BandedSpdMatrix": "bands",
    "BandedFactor": "bands",
    "DecayRoots": "mu q lam z1 q1 z2 d unit",
    "Reference": "params window core off fold c frame wells fa goal_frame edge3 "
    "base ediff_rim ea_core rim pz_factor ext_res ext_pz ymy_tail",
    "DualPair": "ref parts u_free g_free residual_primal residual_dual ez_y ez_g "
    "pz_y pz_g npy npg ymy gmy gmg differs",
    "EstimatorReport": "m m_window eta1 eta2 first_term sigma_bar eta_upp_plus "
    "eta_upp_minus eta_low_plus eta_low_minus bound_low bound_high eta2_weighted "
    "flags pair row gamma",
    "AdaptConfig": "tau_gl tau_div max_iterations symmetrize use_gamma",
    "IterationRecord": "iteration k n_atomistic m_window tau_at eta1 eta2",
    "AdaptTrace": "m config records status final_atomistic",
    "FixedKResult": "m k report q_error",
    "RunSpec": "mode m k k0 k1 k2 a0 tau_gl tau_div symmetrize gamma_split format out",
}
# compared by identity: they hold solved state, not a value
IDENTITY = {"Reference", "DualPair"}


def _methods(cls):
    for attr in vars(cls).values():
        for fn in (attr, getattr(attr, "__func__", None), getattr(attr, "fget", None),
                   getattr(attr, "func", None)):
            if hasattr(fn, "__code__"):
                yield fn


def test_no_method_is_generated_code():
    generated = [
        f"{cls.__qualname__}.{fn.__name__}"
        for mod in MODULES
        for cls in vars(mod).values()
        if isinstance(cls, type) and cls.__module__ == mod.__name__
        for fn in _methods(cls)
        if fn.__code__.co_filename == "<string>"
    ]
    assert generated == []


@pytest.fixture(scope="module")
def records():
    p = model.ChainParams(m=200)
    part = model.interval_partition(p, 4)
    qm = model.assemble(p, part)
    system = model.reduce_system(p, qm)
    pair = estimators.solve_dual_pair(p, part)
    trace = adaptivity.run_adaptive(p, adaptivity.AdaptConfig(tau_gl=1e-6))
    fixed = adaptivity.fixed_k_run(p, 4)
    spec = cli.parse_run_spec(["fixed-k", "--m", "200", "--k", "4"])
    out = [p, p.roots, part, qm, system, system.mat, banded.factor(system.mat), pair.ref,
           pair, fixed.report, trace.config, trace.records[0], trace, fixed, spec]
    return {type(r).__name__: r for r in out}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_records_keep_dataclass_semantics(records, name):
    x = records[name]
    cls = type(x)
    names = [f.name for f in dataclasses.fields(x)]
    assert dataclasses.is_dataclass(x) and names == FIELDS[name].split()
    values = {n: getattr(x, n) for n in names}

    y = dataclasses.replace(x)
    assert list(vars(y))[: len(names)] == names
    # by position, and by name in any order, each field lands on its name
    for z in (cls(*values.values()), cls(**dict(reversed(values.items())))):
        assert all(getattr(z, n) is getattr(x, n) for n in names)
    if name in IDENTITY:
        assert x == x and y != x and hash(x) == object.__hash__(x)
    else:
        assert y == x and not (y != x) and x != object()
        try:
            h = hash(x)
        except TypeError:  # an array field, as with any frozen dataclass
            with pytest.raises(TypeError):
                hash(y)
        else:
            assert hash(y) == h

    first = names[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(x, first, values[first])
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.not_a_field = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(x, first)
    for args, kwargs in (
        ((), {**values, "not_a_field": 1}),  # unknown
        ((), {}),  # missing
        ((values[first],), values),  # repeated
        ((*values.values(), None), {}),  # too many
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_record_reprs_show_the_shown_fields(records):
    text = repr(records["EstimatorReport"])
    assert text.startswith("EstimatorReport(m=200, m_window=")
    for hidden in ("pair=", "row=", "gamma="):
        assert hidden not in text
    assert repr(records["Partition"]) == (
        "Partition(atomistic=array([-3, -2, -1,  0,  1,  2,  3,  4]))"
    )
    assert repr(model.ChainParams(m=5)) == (
        "ChainParams(m=5, k0=1.0, k1=2.0, k2=2.0, a0=1.0, bc=None)"
    )


def test_defaults_fill_in_and_post_init_runs():
    c = adaptivity.AdaptConfig(1e-3, max_iterations=7)
    assert (c.tau_div, c.max_iterations, c.symmetrize) == (10.0, 7, False)
    # __post_init__ normalises the fields it sees
    p = model.ChainParams(np.int64(10), k1=3)
    assert type(p.m) is int and type(p.k1) is float and p.k0 == 1.0
    with pytest.raises(TypeError):
        model.ChainParams(k0=1.0)  # m has no default


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_signatures_show_the_fields(records, name):
    # inspect.signature and help() list each field by position or name with
    # its default and annotation, as a dataclass's generated __init__ does,
    # and the signature binds what the constructor takes
    x = records[name]
    sig = inspect.signature(type(x))
    fs = dataclasses.fields(x)
    assert list(sig.parameters) == FIELDS[name].split() and sig.return_annotation is None
    for f, param in zip(fs, sig.parameters.values()):
        default = inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert param.default is default and param.annotation == f.type
    values = [getattr(x, f.name) for f in fs]
    assert sig.bind(*values).arguments == {f.name: v for f, v in zip(fs, values)}
    assert str(sig).startswith(f"({fs[0].name}: ")


def test_signatures_are_built_on_first_access():
    @frozen
    class Point:
        x: int
        y: float = 0.0

    built = vars(vars(Point)["__signature__"])
    assert "sig" not in built  # making the class built none
    sig = inspect.signature(Point)
    assert list(sig.parameters) == ["x", "y"] and sig.parameters["y"].default == 0.0
    assert built["sig"] is sig and inspect.signature(Point) is sig
