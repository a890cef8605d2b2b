"""Physics invariants that need no oracle, on random gapped circuits.

Each follows from the Hamiltonian alone: the f -> 1 - f mirror (the map
``(phi_p, phi_q) -> (phi_p + pi, -phi_q)`` takes ``H(1 - f)`` to ``H(f)``,
keeps each sector, and flips the sign of the loop current),
Hellmann-Feynman for both element operators, which ties ``current`` and
``dh_dfs`` on the solved block to the levels of ``H`` itself, and parity
closure: no entry joins the cosine and sine chains of ``phi_p`` modes, so
every solved state lies in one.  The draws are derandomized, so the
properties run the same examples every time.  For the mirror and
Hellmann-Feynman only points whose every gap clears
``DEFAULT_DEGENERACY_TOL`` enter: there no cluster is rotated and every
state is an eigenstate.  Parity closure holds for rotated clusters too.
"""

import dataclasses
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fluxmaser import (
    CircuitParams,
    PhaseGrid,
    adiabatic_k,
    assemble_hamiltonian,
    lowest_eigenpairs,
    transition_element,
)
from fluxmaser.spectrum import DEFAULT_DEGENERACY_TOL

GRID = PhaseGrid(25, 49)
# bounds over the largest misfits these draws measure: the mirror's levels
# agree to 3.1e-15 E_J, and its same-parity t and K to 1.7e-10 relative (4.2e-9
# over 120 random draws at this grid and 41x81), so 1e-13 and 1e-8; the
# fourth-order differences match dE/df_s to 2.9e-10 and dE/df to 5.1e-8 E_J per
# flux quantum, so 3e-9 and 5e-7, a margin of 10
MIRROR_LEVEL_TOL = 1e-13
MIRROR_ELEMENT_RTOL = 1e-8
HF_FS_TOL = 3e-9
HF_F_TOL = 5e-7
# the largest weight (squared norm) of a solved state off its chain over these
# 22 draws, four of them with a rotated cluster, is 2.4e-26
PARITY_WEIGHT_TOL = 1e-12
STEP = 1e-5

circuits = st.builds(
    CircuitParams,
    gamma=st.floats(0.3, 1.0),
    ej_over_ec=st.floats(30.0, 300.0),
    f=st.floats(0.44, 0.5),
    f_s=st.floats(0.05, 0.4),
)
sectors = st.sampled_from(["even", "odd"])


def _gapped_solve(params, sector):
    spec = lowest_eigenpairs(assemble_hamiltonian(params, GRID, sector=sector), 6)
    assume(np.diff(spec.levels).min() > DEFAULT_DEGENERACY_TOL)
    return spec


def _sine_rows(rows):
    """Whether each basis row lies in the sine chain of ``phi_p`` modes (index 2, 4, ...)."""
    modes = rows // GRID.n_q_half
    return (modes > 0) & (modes % 2 == 0)


def _sine_chain(spec):
    """Whether each state lies in the sine chain of ``phi_p`` modes."""
    return np.sum(spec.states[:, _sine_rows(spec.rows)] ** 2, axis=1) > 0.5


@settings(max_examples=30, deadline=None, derandomize=True)
@given(params=circuits, sector=sectors)
def test_mirror_flux_keeps_levels_and_elements(params, sector):
    spec = _gapped_solve(params, sector)
    mirror = _gapped_solve(dataclasses.replace(params, f=1.0 - params.f), sector)
    assert np.max(np.abs(spec.levels - mirror.levels)) < MIRROR_LEVEL_TOL
    chain = _sine_chain(spec)
    assert np.array_equal(chain, _sine_chain(mirror))
    # an element between the two chains is zero by symmetry and reads as noise
    for element, pairs in ((transition_element, ((0, 1), (0, 2), (1, 2))),
                           (adiabatic_k, ((0, 1), (1, 2)))):
        for i, j in pairs:
            if chain[i] == chain[j]:
                a, b = element(spec, i, j), element(mirror, i, j)
                assert abs(a - b) <= MIRROR_ELEMENT_RTOL * max(a, b), (element.__name__, i, j)


def _diagonal(spec, operator):
    return np.einsum("ij,ij->i", spec.states, (operator @ spec.states.T).T)


def _level_derivative(params, sector, name):
    """``dE_i/d(name)`` by the fourth-order central difference of step ``STEP``."""
    x = getattr(params, name)
    e = [
        lowest_eigenpairs(
            assemble_hamiltonian(dataclasses.replace(params, **{name: x + j * STEP}), GRID,
                                 sector=sector), 6
        ).levels
        for j in (-2, -1, 1, 2)
    ]
    return (e[0] - 8.0 * e[1] + 8.0 * e[2] - e[3]) / (12.0 * STEP)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(params=circuits, sector=sectors)
def test_hellmann_feynman_ties_both_elements_to_the_levels(params, sector):
    # at gapped points the second-order difference misses by up to 2e-5 (its
    # h^2 E''' term, measured at 41x81), the fourth-order one by about 1e-8
    spec = _gapped_solve(params, sector)
    d_fs = _level_derivative(params, sector, "f_s")
    assert np.max(np.abs(d_fs - _diagonal(spec, spec.dh_dfs))) < HF_FS_TOL
    # the loop current is -dH/d(pi f)/2
    d_f = _level_derivative(params, sector, "f")
    assert np.max(np.abs(d_f + 2.0 * math.pi * _diagonal(spec, spec.current))) < HF_F_TOL


@settings(max_examples=20, deadline=None, derandomize=True)
@given(params=circuits, sector=sectors)
@example(params=CircuitParams(f=0.5, f_s=0.0), sector="even")
@example(params=CircuitParams(f=0.481, f_s=0.0), sector="even")
def test_parity_closure(params, sector):
    # the cos(phi_p) ladder links each mode to the next of its kind, so no
    # entry joins the cosine and sine chains and every state lies in one;
    # the f_s = 0 examples hold near-degenerate clusters, which are rotated
    op = assemble_hamiltonian(params, GRID, sector=sector)
    spec = lowest_eigenpairs(op, 6)
    layout = op.block(spec.harmonics, spec.momenta)[2]
    sine = _sine_rows(layout.rows)
    entries = layout.columns
    entry_rows = np.repeat(np.arange(layout.rows.size), np.diff(entries.indptr))
    assert np.array_equal(sine[entry_rows], sine[entries.cols])
    weights, sine_state = spec.states**2, _sine_rows(spec.rows)
    off_chain = np.minimum(weights[:, sine_state].sum(axis=1), weights[:, ~sine_state].sum(axis=1))
    assert off_chain.max() <= PARITY_WEIGHT_TOL
