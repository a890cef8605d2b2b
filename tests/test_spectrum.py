"""Eigensolver contracts: ordering, orthonormality, determinism, sweeps."""

import dataclasses
import itertools
import pickle
import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from fluxmaser import (
    CircuitParams,
    PhaseGrid,
    adiabatic_k,
    assemble_hamiltonian,
    lowest_eigenpairs,
    point_record,
    transition_element,
)
from fluxmaser import circuit, spectrum
from fluxmaser.errors import ConvergenceError

from .conftest import PRODUCTION_GRID, arpack_no_convergence, nan_eigenvector, random_operators
from .oracles import dense_levels, full_basis_levels, position_hamiltonian

COARSE = PhaseGrid(41, 81)
PRODUCTION = PhaseGrid(*PRODUCTION_GRID)


@pytest.fixture(scope="module")
def coarse_spec():
    return lowest_eigenpairs(
        assemble_hamiltonian(CircuitParams(f=0.47, f_s=0.22), COARSE), 4
    )


def test_levels_sorted_ascending(coarse_spec):
    assert np.all(np.diff(coarse_spec.levels) >= 0)


def test_states_orthonormal(coarse_spec):
    gram = coarse_spec.states @ coarse_spec.states.T
    assert np.max(np.abs(gram - np.eye(coarse_spec.levels.size))) < 1e-12


def test_states_real_with_positive_anchor(coarse_spec):
    for state in coarse_spec.states:
        assert np.isrealobj(state)
        assert state.flat[np.argmax(np.abs(state))] > 0


def test_solver_residuals_tiny(coarse_spec):
    assert np.max(coarse_spec.residuals) < 1e-8


def test_k_range_enforced():
    op = assemble_hamiltonian(CircuitParams(), COARSE)
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, 0)
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, 9)


def test_levels_match_dense_oracle():
    operating = assemble_hamiltonian(CircuitParams(f=0.493, f_s=0.27), COARSE)
    for label, _, op in [("41x81 operating point", COARSE, operating), *random_operators()]:
        error = np.max(np.abs(lowest_eigenpairs(op, 6).levels - dense_levels(op.matrix, 6)))
        assert error < 1e-12, f"{label}: Lanczos levels off the dense oracle by {error:.3e}"


@pytest.mark.parametrize("grid", [COARSE, PhaseGrid(81, 161)], ids=["41x81", "81x161"])
def test_repeat_solves_identical(grid):
    # the seeded start vector makes the Lanczos answer reproducible on every grid
    op = assemble_hamiltonian(CircuitParams(f=0.493, f_s=0.27), grid)
    a = lowest_eigenpairs(op, 4)
    b = lowest_eigenpairs(op, 4)
    assert a.method == "lanczos"
    assert a.shift <= a.levels[0]
    assert a.solves > 0 and a.solves == b.solves
    assert a.harmonics == b.harmonics
    assert a.momenta == b.momenta
    assert np.max(np.abs(a.levels - b.levels)) < 1e-12
    assert np.max(np.abs(a.states - b.states)) < 1e-12


@pytest.mark.parametrize("dim, seed", [(1415, 0), (1497, 2**32 - 1)])
def test_cached_start_is_the_seeded_draw(dim, seed):
    # the cache must not move a bit of the start vector, or the CSVs' round-off
    # cells move with it
    fresh = np.random.RandomState(seed).standard_normal(dim)
    fresh = fresh / np.linalg.norm(fresh)
    first = spectrum._seeded_start(dim, seed)
    assert first.tobytes() == fresh.tobytes()
    assert spectrum._seeded_start(dim, seed) is first
    assert not first.flags.writeable


def test_nan_residual_fails_the_gate(monkeypatch):
    # NaN compares false with any bound, so the gate must be written to fail
    # it: the solve widens to the full basis and still may not return nan
    nan_eigenvector(monkeypatch)
    op = assemble_hamiltonian(CircuitParams(f=0.493, f_s=0.27), PhaseGrid(16, 32))
    with pytest.raises(ConvergenceError, match="residual nan exceeds bound"):
        lowest_eigenpairs(op, 4)


def test_arpack_failure_is_a_picklable_convergence_error(monkeypatch):
    # a sweep worker hands a failed point back pickled, and ARPACK's own
    # exception cannot be unpickled
    unpicklable = spla.ArpackNoConvergence("No convergence", np.zeros(0), np.zeros((0, 0)))
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(unpicklable))
    arpack_no_convergence(monkeypatch)
    op = assemble_hamiltonian(CircuitParams(f=0.493, f_s=0.27), PhaseGrid(16, 32))
    with pytest.raises(ConvergenceError, match="ARPACK error -1: No convergence") as failure:
        lowest_eigenpairs(op, 4)
    copy = pickle.loads(pickle.dumps(failure.value))
    assert type(copy) is ConvergenceError and str(copy) == str(failure.value)


def test_shift_above_the_ground_state_fails_the_factor(coarse_spec):
    # H - shift I is indefinite once the shift passes a level: the solve must
    # raise, a RuntimeError that a sweep logs as a failed point, and never
    # return a spectrum
    op = assemble_hamiltonian(coarse_spec.params, COARSE)
    broken = dataclasses.replace(op, lower_bound=float(coarse_spec.levels[1]))
    with pytest.raises(ConvergenceError, match="not positive definite") as failure:
        lowest_eigenpairs(broken, 4)
    assert isinstance(failure.value, RuntimeError)


def test_gap_at_operating_point(spec_resonant):
    gap = spec_resonant.levels[1] - spec_resonant.levels[0]
    assert 0.04 <= gap <= 0.06


def test_upper_pair_nearly_touches_at_symmetric_point(spec_crossing):
    assert spec_crossing.levels[3] - spec_crossing.levels[2] < 1e-3


def _sweep_levels(f_s, f_values):
    """Levels along ``f`` at fixed ``f_s``, one ``point_record`` per value."""
    return np.array(
        [point_record(CircuitParams(f=float(f), f_s=f_s), COARSE, k=4).levels for f in f_values]
    )


def test_sweep_levels_continuous():
    # no eigenvalue may jump by more than 10x the drive-coupling slope bound
    # (2*pi per unit f) between adjacent scan points
    levels = _sweep_levels(0.27, np.linspace(0.49, 0.50, 11))
    assert levels.shape == (11, 4)
    assert np.max(np.abs(np.diff(levels, axis=0))) < 10 * 2 * np.pi * 0.001


def test_sweep_deterministic():
    f_values = np.linspace(0.48, 0.50, 5)
    a = _sweep_levels(0.22, f_values)
    b = _sweep_levels(0.22, f_values)
    assert np.max(np.abs(a - b)) < 1e-12


# -- certified phi_p harmonic and phi_q momentum truncation -------------------


def _block_pairs(op, harmonics, momenta, k=6):
    """The block's lowest eigenpairs, their vectors padded with zeros to the
    full basis, the layout's columns of ``H`` and the layout."""
    band, columns, layout = op.block(harmonics, momenta)
    vals, vecs, _ = spectrum._solve_block(op, band, layout.rank, k, 0)
    padded = np.zeros((op.dimension, k))
    padded[layout.rows[: layout.kept]] = vecs
    return vals, vecs, padded, columns, layout


def _padded_residual(op, harmonics, momenta=None):
    """Largest full-operator residual of the zero-padded block eigenvectors."""
    momenta = op.momenta if momenta is None else momenta
    vals, _, vecs, _, _ = _block_pairs(op, harmonics, momenta)
    return max(np.linalg.norm(op.matrix @ vecs[:, i] - vals[i] * vecs[:, i]) for i in range(6))


def _gate_bound(op):
    return spectrum._residual_bound(op.scale)


@pytest.mark.parametrize("grid", [COARSE, PRODUCTION], ids=["41x81", "81x161"])
def test_gate_scale_is_the_position_basis_norm(grid, monkeypatch):
    # the infinity norm is not basis-invariant: the gate must keep the scale
    # of the position-basis operator it had before the change to momenta
    seen, bound = [], spectrum._residual_bound

    def recording_bound(scale):
        seen.append(scale)
        return bound(scale)

    monkeypatch.setattr(spectrum, "_residual_bound", recording_bound)
    for f, f_s in ((0.5, 0.0), (0.493, 0.27), (0.213, -0.31), (1.3, 0.5)):
        params = CircuitParams(f=f, f_s=f_s)
        lowest_eigenpairs(assemble_hamiltonian(params, grid), 4)
        reference = spla.norm(position_hamiltonian(params, grid, "even")[0], np.inf)
        assert seen[-1] == pytest.approx(reference, rel=1e-14, abs=0.0)


def test_coarse_grid_keeps_every_harmonic(coarse_spec):
    # 41 phi_p samples carry harmonics up to 20, all below the starting cutoff
    assert coarse_spec.harmonics == (COARSE.n_p - 1) // 2


def test_gate_sees_a_too_hard_truncation():
    # dropping harmonics the states use shows up in the full-operator
    # residual: a block of m <= 12 would fail the unchanged gate
    op = assemble_hamiltonian(CircuitParams(f=0.493, f_s=0.27), PRODUCTION)
    assert _padded_residual(op, 12) > _gate_bound(op)
    assert _padded_residual(op, 20) < spectrum.TRUNCATION_TARGET * _gate_bound(op)


def test_deep_wells_keep_more_harmonics():
    # E_J/E_c = 1e3 narrows the phi_p wells, so the states reach higher harmonics
    op = assemble_hamiltonian(CircuitParams(f=0.493, f_s=0.27, ej_over_ec=1e3), PRODUCTION)
    assert _padded_residual(op, 20) > _gate_bound(op)
    spec = lowest_eigenpairs(op, 6)
    assert 20 < spec.harmonics <= (PRODUCTION.n_p - 1) // 2
    assert np.max(np.abs(spec.levels - full_basis_levels(op, 6))) < 1e-12


def test_low_start_widens_to_a_certified_cutoff(monkeypatch):
    op = assemble_hamiltonian(CircuitParams(f=0.493, f_s=0.27), PRODUCTION)
    default = lowest_eigenpairs(op, 6)
    monkeypatch.setattr(spectrum, "_start_harmonics", lambda params: 6)
    widened = lowest_eigenpairs(op, 6)
    assert widened.harmonics == 24  # 6 and 12 miss the target, 24 meets it
    assert widened.solves > default.solves
    assert widened.residuals.max() <= spectrum.TRUNCATION_TARGET * _gate_bound(op)
    assert np.max(np.abs(widened.levels - default.levels)) < 1e-12


def test_low_momentum_start_widens_to_a_certified_cutoff(monkeypatch):
    op = assemble_hamiltonian(CircuitParams(f=0.493, f_s=0.27), PRODUCTION)
    default = lowest_eigenpairs(op, 6)
    assert _padded_residual(op, default.harmonics, 8) > spectrum.TRUNCATION_TARGET * _gate_bound(op)
    monkeypatch.setattr(spectrum, "_start_momenta", lambda params, grid: 4)
    widened = lowest_eigenpairs(op, 6)
    assert widened.momenta == 16  # 4 and 8 miss the target, 16 meets it
    assert widened.harmonics == default.harmonics  # the miss lies in the dropped momenta only
    assert widened.solves > default.solves
    assert widened.residuals.max() <= spectrum.TRUNCATION_TARGET * _gate_bound(op)
    assert np.max(np.abs(widened.levels - default.levels)) < 1e-12


def test_momentum_cutoff_does_not_grow_with_n_q():
    # the high phi_q momenta stay empty however fine the ring, so the solved
    # block keeps its size and a finer grid costs about the same
    params = CircuitParams(f=0.493, f_s=0.27)
    kept, seconds = [], []
    for grid in (PRODUCTION, PhaseGrid(81, 321)):
        op = assemble_hamiltonian(params, grid)
        runs = []
        for _ in range(3):
            start = time.process_time()
            spec = lowest_eigenpairs(op, 6)
            runs.append(time.process_time() - start)
        kept.append((spec.harmonics, spec.momenta, op.block(spec.harmonics, spec.momenta)[2].kept))
        seconds.append(min(runs))
        assert np.max(np.abs(spec.levels - full_basis_levels(op, 6))) < 1e-12
    assert kept[1][1] <= kept[0][1]
    assert kept[1][2] <= kept[0][2]
    assert seconds[1] < 10 * seconds[0]  # the same order of magnitude


@pytest.mark.parametrize("point", ["spec_resonant", "spec_offres", "spec_crossing"])
def test_truncated_solve_matches_full_basis(point, request, monkeypatch):
    spec = request.getfixturevalue(point)
    op = assemble_hamiltonian(spec.params, PRODUCTION)
    assert spec.harmonics < op.harmonics and spec.momenta < op.momenta
    assert np.max(np.abs(spec.levels - full_basis_levels(op, 6))) < 1e-12
    monkeypatch.setattr(spectrum, "_start_harmonics", lambda params: PRODUCTION.n_p)
    monkeypatch.setattr(spectrum, "_start_momenta", lambda params, grid: PRODUCTION.n_q)
    full = lowest_eigenpairs(op, 6)
    assert (full.harmonics, full.momenta) == (op.harmonics, op.momenta)
    # parity-forbidden amplitudes are round-off on both sides, hence the
    # absolute floor far below any physical amplitude
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert transition_element(spec, i, j) == pytest.approx(
            transition_element(full, i, j), rel=1e-9, abs=1e-12
        )
    for i, j in ((0, 1), (1, 2)):
        assert adiabatic_k(spec, i, j) == pytest.approx(adiabatic_k(full, i, j), rel=1e-9)


@pytest.mark.parametrize("cut", ["truncated", "below-top", "full"])
@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("shape", [(16, 32), (17, 34)], ids=["16x32", "17x34"])
def test_halo_residual_is_the_full_operator_residual(shape, sector, cut):
    # the gate reads H v - E v over the kept rows and their halo only; every
    # other row of the padded residual is exactly zero, and each row adds the
    # same non-zero products in the same order.  Below the top momentum the
    # halo reaches the ring's fold (17x34's odd ring folds there), and the
    # full basis has no halo
    grid = PhaseGrid(*shape)
    op = assemble_hamiltonian(CircuitParams(f=0.47, f_s=0.22), grid, sector=sector)
    harmonics, momenta = {
        "truncated": (4, 3), "below-top": (4, op.momenta - 1), "full": (op.harmonics, op.momenta)
    }[cut]
    vals, vecs, padded, columns, layout = _block_pairs(op, harmonics, momenta)
    reference = op.matrix @ padded - padded * vals
    misfit = spectrum._misfit(columns, layout.kept, vals, vecs)
    assert np.array_equal(misfit, reference[layout.rows])
    outside = np.ones(op.dimension, dtype=bool)
    outside[layout.rows] = False
    assert not np.any(reference[outside])
    assert np.allclose(spectrum._column_norms(misfit), spectrum._column_norms(reference),
                       rtol=1e-14, atol=0.0)
    if cut == "full":
        assert layout.rows.size == layout.kept == op.dimension
        return
    assert layout.rows.size > layout.kept
    # the split of the halo lowest_eigenpairs widens by, against the
    # full-length masks: a dropped row goes to the axis of its larger
    # normalised coordinate
    u, v = op.parts.row_harmonic / harmonics, op.parts.row_momentum / momenta
    dropped = np.hypot(u, v) > 1.0 + 1e-9
    dropped_m, dropped_k = dropped & (u >= v), dropped & (u < v)
    halo = misfit[layout.kept :]
    by_m = spectrum._harmonic_rows(op, layout.rows[layout.kept :], harmonics, momenta)
    for rows, mask in ((by_m, dropped_m), (~by_m, dropped_k)):
        assert np.any(rows)
        assert np.allclose(spectrum._column_norms(halo[rows]),
                           spectrum._column_norms(reference[mask]), rtol=1e-14, atol=0.0)


def _recorded_cuts(monkeypatch):
    """The rows kept by each block a solve asks for, in order, as a list that
    every later :meth:`HamiltonianOperator.block` call appends to."""
    kept, block = [], circuit.HamiltonianOperator.block

    def recording(op, harmonics, momenta):
        band, columns, layout = block(op, harmonics, momenta)
        kept.append(layout.kept)
        return band, columns, layout

    monkeypatch.setattr(circuit.HamiltonianOperator, "block", recording)
    return kept


def test_every_circuit_of_the_scan_solves_certified(monkeypatch):
    # E_J/E_c x gamma x f_s x f on both grids, the deep and soft wells and the
    # f_s = 0.5 points where the momentum start falls short among them.  Each
    # point ends certified or on the whole basis, and every widening keeps
    # more rows than the solve before it; a loop that widened a cut at its cap
    # never ended at E_J/E_c = 10, gamma = 0.3, f_s = 0.5, f = 0.45 on 41x81
    kept = _recorded_cuts(monkeypatch)
    for grid, ej_over_ec, gamma, f_s, f in itertools.product(
        (COARSE, PRODUCTION), (10.0, 30.0, 100.0, 1000.0), (0.3, 0.5, 1.0), (0.0, 0.27, 0.5),
        (0.45, 0.5),
    ):
        op = assemble_hamiltonian(CircuitParams(gamma, ej_over_ec, f, f_s), grid)
        kept.clear()
        spec = lowest_eigenpairs(op, 6)
        point = (grid, ej_over_ec, gamma, f_s, f)
        target = spectrum.TRUNCATION_TARGET * _gate_bound(op)
        assert spec.residuals.max() <= target or spec.rows.size == op.dimension, point
        assert np.all(np.diff(kept) > 0) and kept[-1] == spec.rows.size, point


@pytest.mark.parametrize("sector", ["even", "odd"])
def test_smallest_cut_solves_the_most_levels(sector, monkeypatch):
    # a start below the floor solves first at the floor's cut, which must keep
    # more than 2 MAX_K + 1 rows, the Lanczos basis ARPACK builds for MAX_K levels
    op = assemble_hamiltonian(CircuitParams(f=0.493, f_s=0.27), COARSE, sector=sector)
    default = lowest_eigenpairs(op, spectrum.MAX_K)
    monkeypatch.setattr(spectrum, "_start_harmonics", lambda params: 0)
    monkeypatch.setattr(spectrum, "_start_momenta", lambda params, grid: 0)
    kept = _recorded_cuts(monkeypatch)
    floor = lowest_eigenpairs(op, spectrum.MAX_K)
    assert kept[0] > 2 * spectrum.MAX_K + 1
    assert floor.residuals.max() <= spectrum.TRUNCATION_TARGET * _gate_bound(op)
    assert np.max(np.abs(floor.levels - default.levels)) < 1e-12


def test_a_point_builds_nothing_of_full_size(monkeypatch):
    # the full operators are for oracles and tests: a point reads its block
    weighted = circuit._weighted
    params = CircuitParams(f=0.493, f_s=0.27)
    op = assemble_hamiltonian(params, PRODUCTION)

    def block_only(pattern, *args):
        if pattern is op.parts.pattern:
            raise AssertionError("a full-size operator was built")
        return weighted(pattern, *args)

    monkeypatch.setattr(circuit, "_weighted", block_only)
    with pytest.raises(AssertionError, match="full-size"):
        op.matrix
    record = point_record(params, PRODUCTION)
    assert record.momenta < op.momenta
    monkeypatch.setattr(spectrum, "_start_momenta", lambda params, grid: 4)
    widened = lowest_eigenpairs(op, 6)
    assert widened.momenta == 16 and widened.solves > record.solves
    # the states are held on the solved block only
    assert widened.states.shape == (6, widened.rows.size) and widened.rows.size < op.dimension
