"""Chain geometry, partitions, assembly, and energy bookkeeping."""

import numpy as np
import pytest

from qcfk import banded
from qcfk.model import (
    ChainParams,
    assemble,
    atom_ids,
    d_apply,
    dt_apply,
    interval_partition,
    lattice_sites,
    make_partition,
    reduce_system,
    stiffness_bands,
    well_positions,
    window,
)

from oracle_dense import (
    dense_solve,
    dense_system,
    energy_direct,
    energy_matrix,
    fd_gradient,
    flavor_partition,
    random_partition,
    random_point,
    solve_displacements,
    solve_positions,
    to_dense,
)


# ---------------------------------------------------------------------------
# parameters and geometry


def test_params_validation():
    with pytest.raises(ValueError):
        ChainParams(m=2)
    with pytest.raises(ValueError):
        ChainParams(m=10, k0=0.0)
    with pytest.raises(ValueError):
        ChainParams(m=10, k1=-1.0)
    with pytest.raises(ValueError):
        ChainParams(m=10, k2=-0.1)
    with pytest.raises(ValueError):
        ChainParams(m=10, a0=0.0)
    with pytest.raises(ValueError):
        ChainParams(m=10, bc=(0.0, 1.0))
    # non-finite numbers and a non-integral size are rejected on entry
    nan, inf = float("nan"), float("inf")
    for bad in (
        dict(k1=nan),
        dict(k2=inf),
        dict(k0=nan),
        dict(k0=inf),
        dict(a0=nan),
        dict(a0=inf),
        dict(bc=(-10.0, -9.0, nan, 10.0)),
    ):
        with pytest.raises(ValueError):
            ChainParams(m=10, **bad)
    with pytest.raises(ValueError, match="integer"):
        ChainParams(m=50.5)
    assert ChainParams(m=np.int64(10)).n_free == 16


def test_params_derived_counts():
    p = ChainParams(m=7, k1=3.0, k2=0.5)
    assert p.k12 == 3.0 + 4 * 0.5
    assert p.n_atoms == 14
    assert p.n_bonds == 13
    assert p.n_free == 10
    ids = atom_ids(p)
    assert ids[0] == -6 and ids[-1] == 7
    assert len(ids) == 14


def test_default_bc_pins_clamped_atoms_to_wells():
    # the default boundary positions are the well positions of the four
    # clamped atoms, which stretches the chain by one spacing overall
    p = ChainParams(m=5, a0=0.5)
    ids = atom_ids(p)
    b = well_positions(p, ids)
    assert p.bc == (b[0], b[1], b[-2], b[-1])
    assert p.bc[0] == -p.m * p.a0 and p.bc[-1] == p.m * p.a0


def test_bc_list_equals_tuple_form():
    # the default positions given as a list are the default: equal, hashable
    # params, and a solve window as short as the tuple form's
    bc = [-100000.0, -99999.0, 99999.0, 100000.0]
    as_list = ChainParams(m=100000, bc=bc)
    as_tuple = ChainParams(m=100000, bc=tuple(bc))
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
    part = interval_partition(as_list, 28)
    assert window(as_list, part) == window(as_tuple, part)
    assert window(as_list, part).m < as_list.m


def test_well_positions_shift_across_defect():
    p = ChainParams(m=4, a0=2.0)
    ids = atom_ids(p)
    b = well_positions(p, ids)
    a = lattice_sites(p)
    # left of the defect the wells sit one spacing below the lattice site
    left = ids <= 0
    assert np.array_equal(b[left], a[left] - p.a0)
    assert np.array_equal(b[~left], a[~left])
    # single ids work too
    assert well_positions(p, np.array([0]))[0] == -2.0
    assert well_positions(p, np.array([1]))[0] == 2.0


# ---------------------------------------------------------------------------
# partitions


def test_interval_partition_flags():
    p = ChainParams(m=6)
    part = interval_partition(p, 2)
    assert np.array_equal(part.atomistic, [-1, 0, 1, 2])
    full = interval_partition(p, 0)
    assert full.atomistic.size == 0
    with pytest.raises(ValueError):
        interval_partition(p, -1)
    with pytest.raises(ValueError):
        interval_partition(p, p.m - 1)


def test_make_partition_rejects_out_of_range():
    p = ChainParams(m=5)
    with pytest.raises(ValueError, match="atomistic atom 6"):
        make_partition(p, atomistic=[6])
    with pytest.raises(ValueError, match="atomistic atom -9"):
        make_partition(p, atomistic=[-9, 0])
    # ids are whole numbers, never truncated
    for bad in ([2.5, -1.7], [0, float("nan")]):
        with pytest.raises(ValueError, match="must be integers"):
            make_partition(p, atomistic=bad)
    assert make_partition(p, atomistic=[2.0, -1.0]).atomistic.tolist() == [-1, 2]


# ---------------------------------------------------------------------------
# assembled matrices, small literal cases


def test_atomistic_bond_matrix_small():
    # m = 3, k1 = k2 = 2: five bonds, NNN pairs add 2 k2 inside, k2 at the
    # outermost bonds, so the diagonal reads (4, 6, 6, 6, 4) with offdiag 2
    p = ChainParams(m=3)
    model = assemble(p, flavor_partition(p, interval_partition(p, 0), "atomistic"))
    dense = to_dense(model.e_mat)
    expect = np.array(
        [
            [4.0, 2.0, 0.0, 0.0, 0.0],
            [2.0, 6.0, 2.0, 0.0, 0.0],
            [0.0, 2.0, 6.0, 2.0, 0.0],
            [0.0, 0.0, 2.0, 6.0, 2.0],
            [0.0, 0.0, 0.0, 2.0, 6.0 - 2.0],
        ]
    )
    expect[4, 4] = 4.0
    assert np.allclose(dense, expect)
    # on-site misfit is k0 at every atom for the atomistic flavor
    assert np.allclose(to_dense(model.k_mat), np.eye(6) * p.k0)


def test_blended_bond_matrix_pure_continuum():
    # no atomistic atoms: every bond carries the Cauchy-Born constant k12
    # and the NNN coupling vanishes
    p = ChainParams(m=4, k1=3.0, k2=0.25)
    model = assemble(p, interval_partition(p, 0))
    dense = to_dense(model.e_mat)
    assert np.allclose(dense, np.eye(p.n_bonds) * p.k12)
    # chain-end atoms carry half the misfit weight in the continuum flavor
    kd = np.diag(to_dense(model.k_mat))
    assert kd[0] == 0.5 * p.k0 and kd[-1] == 0.5 * p.k0
    assert np.all(kd[1:-1] == p.k0)


def test_d_apply_adjoint():
    rng = np.random.default_rng(31)
    p = ChainParams(m=8)
    model = assemble(p, make_partition(p, atomistic=[-3, 0, 1, 2]))
    for _ in range(20):
        v = rng.normal(size=model.n_points)
        w = rng.normal(size=model.n_points - 1)
        assert np.isclose(np.dot(d_apply(model, v), w), np.dot(v, dt_apply(model, w)))


# ---------------------------------------------------------------------------
# energies


def test_energy_at_wells_and_lattice():
    # at y = b only the stretch terms contribute: the defect bond is
    # stretched to 2 a0 and its two spanning NNN pairs to 3 a0; with
    # k1 = k2 = 2, a0 = 1 that totals 1 + 2 * 1 = 3 for any m
    for m in (3, 5, 12):
        p = ChainParams(m=m)
        b = well_positions(p, atom_ids(p))
        assert np.isclose(energy_direct(p, interval_partition(p, 0), "atomistic", b), 3.0)
    # at y = a only the misfit contributes: m atoms on the left sit one
    # spacing from their wells, each worth 1/2 k0 a0^2
    p = ChainParams(m=7, k0=3.0, a0=2.0)
    a = lattice_sites(p)
    got = energy_direct(
        p, interval_partition(p, 0), "atomistic", a, check_wells=False
    )
    assert np.isclose(got, 0.5 * p.k0 * p.a0**2 * p.m)


def test_energy_matrix_matches_direct():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(120):
        p = ChainParams(m=int(rng.integers(3, 14)))
        part = random_partition(rng, p)
        for flavor in ("atomistic", "ac"):
            y = random_point(rng, 2 * p.m, well_positions(p, atom_ids(p)))
            model = assemble(p, flavor_partition(p, part, flavor))
            em = energy_matrix(p, model, y)
            ed = energy_direct(p, part, flavor, y)
            scale = max(abs(em), abs(ed), 1.0)
            worst = max(worst, abs(em - ed) / scale)
    assert worst < 1e-12


def test_energy_warns_off_well():
    p = ChainParams(m=3)
    y = well_positions(p, atom_ids(p)).astype(float)
    y[2] += 0.9  # nearly a full spacing off its well
    with pytest.warns(UserWarning, match="wells"):
        energy_direct(p, interval_partition(p, 0), "atomistic", y)


# ---------------------------------------------------------------------------
# reduced linear systems


def test_reduce_system_shapes_and_free_ids():
    p = ChainParams(m=6)
    part = interval_partition(p, 2)
    sys_a = reduce_system(p, assemble(p, flavor_partition(p, part, "atomistic")))
    assert sys_a.mat.n == p.n_free
    # free_index carries atom ids, not array offsets
    assert np.array_equal(sys_a.free_index, np.arange(-3, 5))


def test_solutions_match_dense_oracle():
    # oracle: dense finite-difference Hessian/gradient of the clamped energy
    # (exact for quadratics at h = 1) solved with numpy.linalg.solve
    rng = np.random.default_rng(13579)
    worst = 0.0
    for _ in range(40):
        p = ChainParams(m=int(rng.integers(3, 14)))
        part = random_partition(rng, p)
        flavor = ("atomistic", "ac")[rng.integers(0, 2)]
        system = reduce_system(p, assemble(p, flavor_partition(p, part, flavor)))
        u = solve_displacements(system)
        y = solve_positions(system)
        y_dense = dense_solve(p, part, flavor)
        scale = np.max(np.abs(y_dense)) + 1.0
        worst = max(worst, np.max(np.abs(y - y_dense)) / scale)
        assert np.allclose(u + system.wells_free, y)
    assert worst < 1e-9


def test_assembled_system_matches_dense_fd():
    rng = np.random.default_rng(24680)
    for _ in range(25):
        p = ChainParams(m=int(rng.integers(3, 12)))
        part = random_partition(rng, p)
        flavor = ("atomistic", "ac")[rng.integers(0, 2)]
        system = reduce_system(p, assemble(p, flavor_partition(p, part, flavor)))
        h_dense, load_dense = dense_system(p, part, flavor)
        assert np.allclose(to_dense(system.mat), h_dense, atol=1e-9)
        # the dense load is that of absolute positions y = u + b
        load_wells = load_dense - h_dense @ system.wells_free
        assert np.allclose(system.rhs_wells, load_wells, atol=1e-9)


def test_stiffness_matches_quadratic_form():
    rng = np.random.default_rng(112)
    p = ChainParams(m=9)
    for _ in range(20):
        part = random_partition(rng, p)
        flavor = ("atomistic", "ac")[rng.integers(0, 2)]
        model = assemble(p, flavor_partition(p, part, flavor))
        full = stiffness_bands(model)
        v = rng.normal(size=model.n_points)
        # 1/2 v' H v equals the energy of the shifted configuration minus
        # linear and constant parts; check against energy differences
        e0 = energy_matrix(p, model, model.b_eq)
        e1 = energy_matrix(p, model, model.b_eq + v)
        grad_term = np.dot(v, _grad_at_b(model))
        assert np.isclose(
            e1 - e0 - grad_term, 0.5 * banded.quad_form(full, v), rtol=1e-9
        )


def _grad_at_b(model):
    # gradient of the quadratic energy at y = b: D' E D (b - a) + K (b - b)
    z = d_apply(model, model.b_eq - model.a_eq)
    return dt_apply(model, banded.matvec(model.e_mat, z))


def test_displacements_antisymmetric_about_defect():
    # mirror symmetry i -> 1 - i maps the chain onto itself and flips the
    # misfit, so the displacement field is antisymmetric
    for m, k in ((10, 0), (20, 4), (35, 7)):
        p = ChainParams(m=m)
        system = reduce_system(p, assemble(p, interval_partition(p, k)))
        u = solve_displacements(system)
        assert np.max(np.abs(u + u[::-1])) < 1e-12


def test_fd_gradient_matches_assembled_residual():
    # oracle: central finite differences of the direct (loop-based) energy
    rng = np.random.default_rng(9000)
    for _ in range(25):
        p = ChainParams(m=int(rng.integers(3, 10)))
        part = random_partition(rng, p)
        flavor = ("atomistic", "ac")[rng.integers(0, 2)]
        model = assemble(p, flavor_partition(p, part, flavor))
        y = random_point(rng, model.n_points, well_positions(p, atom_ids(p)))

        def ener(vec):
            return energy_direct(p, part, flavor, vec, check_wells=False)

        g_fd = fd_gradient(ener, y)
        z = d_apply(model, y - model.a_eq)
        g_an = dt_apply(model, banded.matvec(model.e_mat, z))
        g_an += banded.matvec(model.k_mat, y - model.b_eq)
        scale = np.max(np.abs(g_an)) + 1.0
        assert np.max(np.abs(g_fd - g_an)) / scale < 1e-9
