"""Shared fixtures.

The three production-grid eigensolves below are the expensive inputs that
several test modules share (transition amplitudes, ramp sensitivities, the
headline gap checks), so they are solved once per session.
"""

import gc

import numpy as np
import pytest

from fluxmaser import CircuitParams, PhaseGrid, assemble_hamiltonian, lowest_eigenpairs, spectrum

PRODUCTION_GRID = (81, 161)


def solve_point(f, f_s, k=6, grid=PRODUCTION_GRID):
    op = assemble_hamiltonian(CircuitParams(f=f, f_s=f_s), PhaseGrid(*grid))
    return lowest_eigenpairs(op, k)


def random_operators(seed=2024, per_grid=16):
    """Seeded sector operators on the 16x32 and 24x48 grids.

    Each grid gets ``per_grid`` random (gamma, E_J/E_c, f, f_s, sector) draws,
    E_J/E_c log-uniform over 10..1e4, plus the deep-well extreme
    E_J/E_c = 1e4 at f_s = 0.5 in both sectors.  Yields ``(label, grid, op)``.
    """
    rng = np.random.default_rng(seed)
    for shape in ((16, 32), (24, 48)):
        draws = [
            (rng.uniform(0.2, 1.5), 10 ** rng.uniform(1.0, 4.0), rng.uniform(0.0, 1.0),
             rng.uniform(0.0, 0.5), rng.choice(["even", "odd"]))
            for _ in range(per_grid)
        ]
        draws += [(0.5, 1e4, 0.5, 0.5, "even"), (0.5, 1e4, 0.47, 0.5, "odd")]
        grid = PhaseGrid(*shape)
        for gamma, ratio, f, f_s, sector in draws:
            params = CircuitParams(gamma=gamma, ej_over_ec=ratio, f=f, f_s=f_s)
            label = f"{shape} {sector} {params}"
            yield label, grid, assemble_hamiltonian(params, grid, sector=sector)


@pytest.fixture(scope="session")
def spec_resonant():
    """Operating point: biased near half flux with screening on."""
    return solve_point(0.493, 0.27)


@pytest.fixture(scope="session")
def spec_offres():
    """Same bias, weaker screening — the suppressed-pump comparison point."""
    return solve_point(0.493, 0.22)


@pytest.fixture(scope="session")
def spec_crossing():
    """Symmetric point with screening off: selection rules and level crossings."""
    return solve_point(0.5, 0.0)


@pytest.fixture(autouse=True)
def _unfreeze_after_cli():
    """Return to the collector whatever a test's ``cli.main`` call froze, so
    that the rest of the session's garbage stays collectable."""
    yield
    gc.unfreeze()


def nan_eigenvector(monkeypatch, f=None):
    """Make the block eigensolver return its top eigenvector as NaN, at every
    point or only at flux ``f``."""
    solve = spectrum._solve_block

    def poisoned(op, *args):
        vals, vecs, used = solve(op, *args)
        if f is None or op.params.f == f:
            vecs[:, -1] = np.nan
        return vals, vecs, used

    monkeypatch.setattr(spectrum, "_solve_block", poisoned)


def arpack_no_convergence(monkeypatch):
    """Make every ARPACK call of the eigensolver end unconverged."""

    def unconverged(*args, **kwargs):
        raise spectrum.spla.ArpackNoConvergence("No convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(spectrum.spla, "eigsh", unconverged)
