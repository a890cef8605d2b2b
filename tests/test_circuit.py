"""Potential landscape, circulating current, and Hamiltonian assembly."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from fluxmaser import (
    CircuitParams,
    PhaseGrid,
    assemble_hamiltonian,
    lowest_eigenpairs,
    point_record,
)
from fluxmaser.circuit import _fixed_parts

from .conftest import random_operators
from .oracles import (
    circulating_current,
    dense_levels,
    full_elements,
    momentum_transform,
    position_hamiltonian,
    potential,
    ring_transform,
    sector_hamiltonian_dense,
    torus_axes,
    torus_hamiltonian,
)

finite_phase = st.floats(-8.0, 8.0, allow_nan=False)


def test_default_stiffness_coefficients():
    p = CircuitParams()
    assert p.c_p == pytest.approx(0.02, rel=1e-14)
    assert p.c_q == pytest.approx(8.0 / 300.0, rel=1e-14)


def test_params_reject_nonpositive_inputs():
    with pytest.raises(ValueError):
        CircuitParams(gamma=0.0)
    with pytest.raises(ValueError):
        CircuitParams(ej_over_ec=-1.0)
    with pytest.raises(ValueError):
        CircuitParams(ej_freq=0.0)


@pytest.mark.parametrize("name", ["gamma", "ej_over_ec", "f", "f_s", "ej_freq"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_inputs(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        CircuitParams(**{name: value})


def test_potential_landmark_values():
    p0 = CircuitParams(f=0.0, f_s=0.0)
    assert potential(p0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert potential(CircuitParams(f=0.5, f_s=0.0), 0.0, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert potential(p0, np.pi, 0.0) == pytest.approx(4.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    phi_p=finite_phase,
    phi_q=finite_phase,
    f=st.floats(-1.0, 1.0),
    f_s=st.floats(0.0, 0.5),
)
def test_potential_nonnegative(phi_p, phi_q, f, f_s):
    p = CircuitParams(f=f, f_s=f_s)
    assert potential(p, phi_p, phi_q) >= -1e-12


def test_circulating_current_landmarks():
    assert circulating_current(CircuitParams(f=0.0), 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert circulating_current(CircuitParams(f=0.5), 0.0, 0.0) == pytest.approx(-1.0, abs=1e-12)
    # vanishes on the phi_p = pi/2 line no matter the fluxes
    assert abs(circulating_current(CircuitParams(f=0.31, f_s=0.17), np.pi / 2, 1.3)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(phi_p=finite_phase, phi_q=finite_phase, f=st.floats(-1.0, 1.0))
def test_circulating_current_bounded_by_critical(phi_p, phi_q, f):
    w = circulating_current(CircuitParams(f=f), phi_p, phi_q)
    assert abs(w) <= 1.0 + 1e-12


def test_grid_rejects_underresolved_axes():
    with pytest.raises(ValueError):
        PhaseGrid(15, 161)
    with pytest.raises(ValueError):
        PhaseGrid(81, 31)
    PhaseGrid(16, 32)  # the floor itself is allowed


def test_representation_and_sector_names_validated():
    with pytest.raises(ValueError):
        assemble_hamiltonian(CircuitParams(), PhaseGrid(41, 81), sector="sideways")


@pytest.mark.parametrize("representation", ["sector", "torus"])
def test_operator_is_symmetric(representation):
    p = CircuitParams(f=0.31, f_s=0.17)
    if representation == "sector":
        matrix = assemble_hamiltonian(p, PhaseGrid(41, 81)).matrix
    else:
        matrix = torus_hamiltonian(p, PhaseGrid(16, 32))
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        u = rng.normal(size=matrix.shape[0])
        v = rng.normal(size=matrix.shape[0])
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        worst = max(worst, abs(u @ (matrix @ v) - (matrix @ u) @ v))
    assert worst < 1e-12


@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("shape", [(16, 32), (24, 48)], ids=["16x32", "24x48"])
def test_sector_operator_matches_entrywise_oracle(shape, sector):
    grid = PhaseGrid(*shape)
    for f, f_s in ((0.5, 0.0), (0.493, 0.27), (0.213, -0.31)):
        p = CircuitParams(f=f, f_s=f_s)
        got = assemble_hamiltonian(p, grid, sector=sector).matrix.toarray()
        q = momentum_transform(grid, sector)
        assert np.max(np.abs(got - q.T @ sector_hamiltonian_dense(p, grid, sector) @ q)) < 1e-12


@pytest.mark.parametrize("n", [16, 17, 24, 25])
@pytest.mark.parametrize("twisted", [False, True], ids=["untwisted", "twisted"])
def test_ring_transforms_are_orthonormal(n, twisted):
    q = ring_transform(n, twisted)
    assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-13


@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("shape", [(16, 32), (17, 34)], ids=["16x32", "17x34"])
def test_momentum_operators_are_the_transformed_position_assembly(shape, sector):
    # 16x32 has an even ring (the untwisted ring owns the self-paired row),
    # 17x34 an odd one (the twisted ring does)
    grid = PhaseGrid(*shape)
    q = momentum_transform(grid, sector)
    for f, f_s in ((0.5, 0.0), (0.493, 0.27), (0.213, -0.31), (1.3, 0.5)):
        p = CircuitParams(gamma=0.7, f=f, f_s=f_s)
        op = assemble_hamiltonian(p, grid, sector=sector)
        references = position_hamiltonian(p, grid, sector)
        operators = (op.matrix, *full_elements(op))
        for name, got, reference in zip(("matrix", "current", "dh_dfs"), operators, references):
            error = np.max(np.abs(got.toarray() - q.T @ reference.toarray() @ q))
            assert error < 1e-13, (f, f_s, name)


def _band_to_dense(band):
    """Symmetric matrix held in LAPACK's upper band storage ``(kd + 1, n)``."""
    kd, n = band.shape[0] - 1, band.shape[1]
    upper = np.zeros((n, n))
    for d in range(kd + 1):
        upper[np.arange(n - d), np.arange(d, n)] = band[kd - d, d:]
    return upper + np.triu(upper, 1).T


@pytest.mark.parametrize("cut", ["truncated", "full"])
@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("shape", [(16, 32), (17, 34)], ids=["16x32", "17x34"])
def test_block_is_a_band_in_chain_order(shape, sector, cut):
    grid = PhaseGrid(*shape)
    op = assemble_hamiltonian(CircuitParams(f=0.47, f_s=0.22), grid, sector=sector)
    harmonics, momenta = (4, 3) if cut == "truncated" else (op.harmonics, op.momenta)
    band, columns, layout = op.block(harmonics, momenta)
    rows = layout.rows[: layout.kept]
    keep = (op.parts.row_harmonic <= harmonics) & (op.parts.row_momentum <= momenta)
    assert np.array_equal(np.sort(rows), np.flatnonzero(keep))
    assert np.array_equal(np.sort(rows)[layout.rank], rows)
    # the CSR block is built here only, to check the band and the layout's
    # columns against it
    block = op.matrix[rows][:, rows]
    assert np.array_equal(_band_to_dense(band), block.toarray())
    assert np.array_equal(columns.toarray(), op.matrix[layout.rows][:, rows].toarray())
    for got, full in zip(op.elements(layout), full_elements(op)):
        assert np.array_equal(got.toarray(), full[rows][:, rows].toarray())

    # chain order: the cosine chain (mode index 0, 1, 3, ...) before the sine
    # chain (2, 4, ...), and no entry between the two
    modes = rows // grid.n_q_half
    sine = (modes > 0) & (modes % 2 == 0)
    assert np.all(np.diff(sine.astype(int)) >= 0)
    entries = block.tocoo()
    assert not np.any(sine[entries.row] != sine[entries.col])
    kd = band.shape[0] - 1
    assert kd <= np.bincount(modes).max() + 2

    shift = op.lower_bound
    shifted = band.copy(order="F")
    shifted[kd] -= shift
    factor, info = lapack.dpbtrf(shifted)
    assert info == 0
    rhs = np.random.default_rng(5).standard_normal(rows.size)
    got = lapack.dpbtrs(factor, rhs)[0]
    reference = spla.spsolve((block - shift * sp.identity(rows.size)).tocsc(), rhs)
    assert np.linalg.norm(got - reference) <= 1e-12 * np.linalg.norm(reference)


def test_one_tagged_pattern_serves_every_screening_flux():
    # neither flux enters the parts, so the points of three f_s values build them once
    grid = PhaseGrid(41, 81)
    _fixed_parts.cache_clear()
    for f_s in (0.0, 0.22, 0.27):
        point_record(CircuitParams(f=0.493, f_s=f_s), grid)
    assert _fixed_parts.cache_info().misses == 1


def test_point_after_other_screening_fluxes_matches_a_fresh_build():
    grid = PhaseGrid(41, 81)
    params = CircuitParams(f=0.493, f_s=0.27)

    def solve():
        spec = lowest_eigenpairs(assemble_hamiltonian(params, grid), 6)
        rec = point_record(params, grid)
        return [spec.levels, spec.states, rec.levels, rec.t_01, rec.t_02, rec.t_12, rec.k_01,
                rec.k_12, spec.solves, rec.solves]

    _fixed_parts.cache_clear()
    for f_s in (0.0, 0.15, 0.22):
        point_record(dataclasses.replace(params, f_s=f_s), grid)
    shared = solve()
    _fixed_parts.cache_clear()
    fresh = solve()
    assert all(np.array_equal(a, b) for a, b in zip(shared, fresh))


def test_lower_bound_below_ground_state():
    # the shift-invert point must sit under the whole spectrum, down to the
    # deep-well limit where the ground state nearly touches the potential floor
    for label, _, op in random_operators():
        ground = dense_levels(op.matrix, 1)[0]
        assert op.lower_bound <= ground, f"{label}: bound {op.lower_bound} > E0 {ground}"


def test_torus_operator_applies_potential_to_constants():
    # the finite-difference kinetic rows sum to zero exactly, so H acting on
    # the constant vector returns the potential samples
    p = CircuitParams(f=0.37, f_s=0.21)
    grid = PhaseGrid(16, 32)
    matrix = torus_hamiltonian(p, grid)
    phi_p_axis, _, phi_q_axis, _ = torus_axes(grid)
    pp, qq = np.meshgrid(phi_p_axis, phi_q_axis, indexing="ij")
    expected = potential(p, pp, qq).ravel()
    assert np.max(np.abs(matrix @ np.ones(matrix.shape[0]) - expected)) < 1e-12


def test_spectrum_invariant_under_flux_period_and_screening_sign():
    grid = PhaseGrid(41, 81)
    a = lowest_eigenpairs(assemble_hamiltonian(CircuitParams(f=0.213, f_s=0.31), grid), 3)
    b = lowest_eigenpairs(assemble_hamiltonian(CircuitParams(f=1.213, f_s=-0.31), grid), 3)
    assert np.max(np.abs(a.levels - b.levels)) < 1e-10


def test_free_particle_matches_difference_dispersion():
    # with the potential switched off every eigenvalue must be a lattice
    # plane-wave energy: 4 sin^2(k h / 2) / h^2 per axis, q modes at
    # half-integer wavenumbers because that axis is 4*pi-periodic
    p = CircuitParams(f=0.3, f_s=0.1)
    n_p, n_q = 24, 48
    got = dense_levels(torus_hamiltonian(p, PhaseGrid(n_p, n_q), zero_potential=True), 8)
    h_p, h_q = 2 * np.pi / n_p, 4 * np.pi / n_q
    disp_p = 4.0 * np.sin(np.pi * np.arange(n_p) / n_p) ** 2 / h_p**2
    disp_q = 4.0 * np.sin(np.pi * np.arange(n_q) / n_q) ** 2 / h_q**2
    expected = np.sort((p.c_p * disp_p[:, None] + p.c_q * disp_q[None, :]).ravel())[:8]
    assert np.max(np.abs(got - expected)) < 1e-10
    # the first q excitation sits at the half-integer wavenumber energy
    assert p.c_q * disp_q[1] == pytest.approx(p.c_q * 0.25, rel=5e-3)


def test_refinement_converges_at_second_order():
    # halving h should shrink the discretization error by ~4x
    p = CircuitParams(f=0.493, f_s=0.27)
    e = [
        lowest_eigenpairs(assemble_hamiltonian(p, PhaseGrid(n, 2 * n - 1)), 1).levels[0]
        for n in (41, 81, 161)
    ]
    ratio = (e[0] - e[1]) / (e[1] - e[2])
    assert 2.5 < ratio < 6.0


def test_doubled_torus_spectrum_collapses_to_sector_pairs():
    # the full torus carries each physical level twice (the two boundary
    # sectors); the sector solver returns each once
    grid = PhaseGrid(41, 81)
    p = CircuitParams(f=0.493, f_s=0.27)
    torus = dense_levels(torus_hamiltonian(p, grid), 4)
    even = lowest_eigenpairs(assemble_hamiltonian(p, grid), 2)
    assert torus[1] - torus[0] < 1e-5
    assert torus[3] - torus[2] < 1e-5
    # pair centers track the sector levels up to the FD-vs-trig discretization gap
    assert abs(torus[0] - even.levels[0]) < 5e-3
    assert abs(torus[2] - even.levels[1]) < 5e-3


def test_even_and_odd_sectors_nearly_degenerate():
    grid = PhaseGrid(41, 81)
    p = CircuitParams(f=0.493, f_s=0.27)
    even = lowest_eigenpairs(assemble_hamiltonian(p, grid, sector="even"), 3)
    odd = lowest_eigenpairs(assemble_hamiltonian(p, grid, sector="odd"), 3)
    assert np.max(np.abs(even.levels - odd.levels)) < 1e-5
