"""Transition amplitudes, adiabaticity coefficients, and control diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from fluxmaser import (
    CircuitParams,
    PhaseGrid,
    adiabatic_k,
    adiabatic_rate_check,
    assemble_hamiltonian,
    lowest_eigenpairs,
    point_record,
    potential,
    pumping_feasibility,
    relative_relaxation,
    transition_element,
    transition_table,
)
from fluxmaser.errors import DegenerateGapError

COARSE = PhaseGrid(41, 81)


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
    strict=True,
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
    strict=True,
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
    # finite difference of the potential between the same two eigenstates
    params = CircuitParams(f=0.47, f_s=0.22)
    spec = lowest_eigenpairs(assemble_hamiltonian(params, COARSE), 3)
    delta = 1e-4
    pp, qq = np.meshgrid(spec.phi_p_axis, spec.phi_q_axis, indexing="ij")
    du = (
        potential(params.replace(f_s=params.f_s + delta), pp, qq)
        - potential(params, pp, qq)
    ) / delta
    fd = abs(np.sum(spec.states[0] * du * spec.states[1]) * spec.weight)
    analytic = adiabatic_k(spec, 0, 1) * spec.gap(0, 1) ** 2 * params.ej_freq
    assert fd == pytest.approx(analytic, rel=1e-3)


def test_rate_check_examples():
    assert adiabatic_rate_check(0.2, 0.1).product == pytest.approx(0.02)
    assert adiabatic_rate_check(0.2, 0.1).adiabatic
    assert adiabatic_rate_check(0.01, 2.0).product == pytest.approx(0.02)
    assert adiabatic_rate_check(0.01, 2.0).adiabatic
    assert adiabatic_rate_check(0.5, 0.0).product == 0.0
    assert not adiabatic_rate_check(1.0, 0.2).adiabatic


def test_pumping_feasibility_examples():
    ok = pumping_feasibility(0.01, 0.07, 0.13)
    assert ok.ratio == pytest.approx(7.0)
    assert ok.passes
    bad = pumping_feasibility(0.1, 0.1, 0.1)
    assert bad.ratio == pytest.approx(1.0)
    assert not bad.passes
    free = pumping_feasibility(0.0, 0.2, 0.3)
    assert math.isinf(free.ratio)
    assert free.passes


def test_relative_relaxation_examples():
    assert relative_relaxation(0.13, 0.01) == pytest.approx((0.01 / 0.13) ** 2)
    assert relative_relaxation(0.13, 0.01) == pytest.approx(0.0059, abs=5e-4)
    assert relative_relaxation(0.2, 0.2) == pytest.approx(1.0)
    assert relative_relaxation(0.1, 0.2) == pytest.approx(4.0)


def test_table_reports_zero_ramp_columns_without_screening():
    table = transition_table(CircuitParams(f_s=0.0), COARSE, [0.48, 0.49], k=4)
    assert np.all(table.k_01 == 0.0)
    assert np.all(table.k_12 == 0.0)
    assert not np.isnan(table.k_01).any()


def test_table_columns_finite_with_screening():
    table = transition_table(CircuitParams(f_s=0.22), COARSE, [0.47, 0.48], k=4)
    for col in (table.gap(0, 1), table.t_01, table.t_02, table.t_12, table.k_01, table.k_12):
        assert np.all(np.isfinite(col))


def test_point_record_keeps_solver_diagnostics():
    params = CircuitParams(f=0.48, f_s=0.22)
    rec = point_record(params, COARSE, k=4)
    spec = lowest_eigenpairs(assemble_hamiltonian(params, COARSE), 4)
    assert rec.shift == spec.shift
    assert rec.solves == spec.solves > 0
    assert rec.harmonics == spec.harmonics == (COARSE.n_p - 1) // 2
    assert rec.max_residual == spec.residuals.max()
