"""Transition amplitudes, adiabaticity coefficients, and control diagnostics."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from fluxmaser import (
    CircuitParams,
    PhaseGrid,
    adiabatic_k,
    assemble_hamiltonian,
    lowest_eigenpairs,
    point_record,
    transition_element,
)
from fluxmaser import spectrum
from fluxmaser.errors import DegenerateGapError

from .conftest import PRODUCTION_GRID, random_operators
from .oracles import circulating_current, full_states, position_element, potential, torus_axes

COARSE = PhaseGrid(41, 81)
PRODUCTION = PhaseGrid(*PRODUCTION_GRID)


def test_element_symmetric_in_indices(spec_resonant):
    assert transition_element(spec_resonant, 0, 1) == pytest.approx(
        transition_element(spec_resonant, 1, 0), abs=1e-12
    )


def test_element_gauge_independent(spec_resonant):
    flipped = dataclasses.replace(spec_resonant, states=spec_resonant.states * -1.0)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert transition_element(flipped, i, j) == pytest.approx(
            transition_element(spec_resonant, i, j), abs=1e-14
        )


def test_pump_amplitudes_at_operating_point(spec_resonant):
    t01 = transition_element(spec_resonant, 0, 1)
    assert 0.13 * 0.7 <= t01 <= 0.13 * 1.3
    # regression pins for the production grid
    assert t01 == pytest.approx(0.128634, rel=1e-4)
    assert transition_element(spec_resonant, 0, 2) == pytest.approx(0.155326, rel=1e-4)
    assert transition_element(spec_resonant, 1, 2) == pytest.approx(0.277139, rel=1e-4)


def test_leakage_collapses_at_weaker_screening(spec_resonant, spec_offres):
    weak = transition_element(spec_offres, 0, 1)
    strong = transition_element(spec_resonant, 0, 1)
    assert weak == pytest.approx(0.013300, rel=1e-4)
    assert strong / weak >= 8.0


@pytest.mark.xfail(
    reason="measured 0.01330 at the production grid; the stated 0.007..0.013 "
    "window is missed by 2.3% and refining the grid does not move it inside",
)
def test_weak_screening_amplitude_inside_stated_window(spec_offres):
    t01 = transition_element(spec_offres, 0, 1)
    assert 0.01 * 0.7 <= t01 <= 0.01 * 1.3


def test_symmetric_point_selection_rules(spec_crossing):
    # the drive is odd across the symmetric point: the 0-1 and 1-2 elements
    # vanish there
    assert transition_element(spec_crossing, 0, 1) < 0.005
    assert transition_element(spec_crossing, 1, 2) < 0.005


@pytest.mark.xfail(
    reason="the 0-2 element is an intra-well vibrational amplitude of ~0.08 "
    "(harmonic estimate 0.077) and is basis-invariant; it cannot satisfy "
    "a 0.005 ceiling at the symmetric point",
)
def test_symmetric_point_suppresses_every_element(spec_crossing):
    assert transition_element(spec_crossing, 0, 2) < 0.005


def test_ramp_coefficient_zero_without_screening(spec_crossing):
    assert adiabatic_k(spec_crossing, 0, 1) == 0.0


def test_ramp_coefficients_at_operating_point(spec_resonant):
    k01 = adiabatic_k(spec_resonant, 0, 1)
    k12 = adiabatic_k(spec_resonant, 1, 2)
    assert k01 == pytest.approx(0.299672, rel=1e-4)
    assert k12 == pytest.approx(0.438937, rel=1e-4)


def _screening_derivative(params, pp, qq):
    # U depends on f_s only through cos(pi f_s), affinely, so its slope in
    # cos(pi f_s) is half the difference between f_s = 0 and f_s = 1
    at_0, at_1 = (potential(dataclasses.replace(params, f_s=f_s), pp, qq) for f_s in (0.0, 1.0))
    return -math.pi * math.sin(math.pi * params.f_s) * (at_0 - at_1) / 2


def _spectral_cases(request):
    for name in ("spec_resonant", "spec_offres", "spec_crossing"):
        yield name, PRODUCTION, "even", request.getfixturevalue(name)
    for label, grid, op in random_operators():
        yield label, grid, op.sector, lowest_eigenpairs(op, 6)


def test_elements_match_position_quadrature(request):
    # the library reads every element in the operator's basis; the position
    # samples of the same states, quadratured against the current profile
    # and the potential's flux derivative, must give the same numbers
    rotated = 0
    for label, grid, sector, spec in _spectral_cases(request):
        pp, qq = np.meshgrid(torus_axes(grid)[0], grid.phi_q_half_axis, indexing="ij")
        current = circulating_current(spec.params, pp, qq)
        d_u = _screening_derivative(spec.params, pp, qq)
        states = full_states(spec, grid)
        for i, j in itertools.combinations(range(spec.levels.size), 2):
            a, b = states[i], states[j]
            quad = abs(position_element(grid, current, a, b, sector))
            assert abs(transition_element(spec, i, j) - quad) < 1e-12, f"{label}: t_{i}{j}"
            gap = spec.levels[j] - spec.levels[i]
            try:
                numerator = adiabatic_k(spec, i, j) * gap**2 * spec.params.ej_freq
            except DegenerateGapError:
                continue
            quad = abs(position_element(grid, d_u, a, b, sector))
            assert abs(numerator - quad) < 1e-12, f"{label}: K_{i}{j}"
        for group in spectrum._degenerate_groups(spec.levels):
            if len(group) == 1:
                continue
            rotated += 1
            block = np.array(
                [[-position_element(grid, current, states[a], states[b], sector)
                  for b in group]
                 for a in group]
            )
            assert np.max(np.abs(block - np.diag(np.diag(block)))) < 1e-12, f"{label}: {group}"
            assert np.all(np.diff(np.diag(block)) >= -1e-12), f"{label}: {group}"
    assert rotated > 0


def test_ramp_coefficient_grows_toward_crossing(spec_resonant):
    op = assemble_hamiltonian(CircuitParams(f=0.499, f_s=0.27), PhaseGrid(81, 161))
    closer = lowest_eigenpairs(op, 2)
    assert adiabatic_k(closer, 0, 1) > adiabatic_k(spec_resonant, 0, 1)


def test_degenerate_pair_rejected(spec_resonant):
    levels = spec_resonant.levels.copy()
    levels[1] = levels[0] + 1e-9
    doctored = dataclasses.replace(spec_resonant, levels=levels)
    with pytest.raises(DegenerateGapError, match="crossing"):
        adiabatic_k(doctored, 0, 1)


def test_degenerate_gap_is_numerical_error():
    # a crossing is a property of the solved spectrum, not a bad input: it
    # belongs with the numerical errors (exit 2), not the validation ones
    assert issubclass(DegenerateGapError, RuntimeError)
    assert not issubclass(DegenerateGapError, ValueError)


def test_ramp_numerator_matches_finite_difference():
    # the analytic screening-flux derivative must agree with a first-order
    # finite difference of the assembled Hamiltonian between the same two
    # eigenstates
    params = CircuitParams(f=0.47, f_s=0.22)
    op = assemble_hamiltonian(params, COARSE)
    spec = lowest_eigenpairs(op, 3)
    delta = 1e-4
    shifted = assemble_hamiltonian(dataclasses.replace(params, f_s=params.f_s + delta), COARSE)
    states = full_states(spec, COARSE)
    fd = abs(states[0] @ ((shifted.matrix - op.matrix) @ states[1])) / delta
    analytic = adiabatic_k(spec, 0, 1) * (spec.levels[1] - spec.levels[0]) ** 2 * params.ej_freq
    assert fd == pytest.approx(analytic, rel=1e-3)


def _records(f_s, f_values):
    return [point_record(CircuitParams(f=f, f_s=f_s), COARSE, k=4) for f in f_values]


def test_table_reports_zero_ramp_columns_without_screening():
    for r in _records(0.0, [0.48, 0.49]):
        assert r.k_01 == 0.0
        assert r.k_12 == 0.0
        assert not math.isnan(r.k_01)


def test_table_columns_finite_with_screening():
    for r in _records(0.22, [0.47, 0.48]):
        for value in (r.levels[1] - r.levels[0], r.t_01, r.t_02, r.t_12, r.k_01, r.k_12):
            assert np.isfinite(value)


def test_point_record_needs_three_levels():
    with pytest.raises(ValueError, match="k must be at least 3"):
        point_record(CircuitParams(f=0.48, f_s=0.22), COARSE, k=2)


def test_point_record_keeps_solver_diagnostics():
    params = CircuitParams(f=0.48, f_s=0.22)
    rec = point_record(params, COARSE, k=4)
    spec = lowest_eigenpairs(assemble_hamiltonian(params, COARSE), 4)
    assert rec.shift == spec.shift
    assert rec.solves == spec.solves > 0
    assert rec.harmonics == spec.harmonics == (COARSE.n_p - 1) // 2
    assert rec.momenta == spec.momenta
    assert rec.max_residual == spec.residuals.max()
