"""Microwave transition amplitudes and adiabatic-control figures of merit.

Transition amplitudes ``|t_ij|`` are matrix elements of the loop current
between eigenstates, in units of ``I_c * Phi_w0`` (critical current times
the vacuum flux amplitude).  The adiabaticity coefficient ``K_ij`` measures
how slowly the SQUID flux must be ramped for the state to follow:
``K_ij * |d f_s/dt| << 1`` with the ramp rate in 1/ns.  Both are
``|v_i . A v_j|`` with ``A`` the spectrum's ``current`` or ``dh_dfs``, read
on the solved block's rows, outside which the states are zero.

``point_record`` solves one ``(f, f_s)`` point and reads these off it; the
flux sweeps are the CLI's spectral commands, one ``point_record`` per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams, PhaseGrid, assemble_hamiltonian
from .errors import DegenerateGapError
from .spectrum import EigenSpectrum, lowest_eigenpairs

__all__ = [
    "PointRecord",
    "point_record",
    "transition_element",
    "adiabatic_k",
]

DEGENERACY_FLOOR = 1e-6


def _element(spec: EigenSpectrum, operator, i: int, j: int) -> float:
    """``|v_i . A v_j|`` for an operator ``A`` on the spectrum's block."""
    return float(abs(spec.states[i].take(spec.rows) @ (operator @ spec.states[j].take(spec.rows))))


def transition_element(spec: EigenSpectrum, i: int, j: int) -> float:
    """``|<E_i| I(phi_p, phi_q) |E_j>|`` of the loop current."""
    return _element(spec, spec.current, i, j)


def adiabatic_k(spec: EigenSpectrum, i: int, j: int) -> float:
    """Adiabaticity coefficient for a SQUID-flux ramp, in nanoseconds.

    ``K_ij = |<i| dH/df_s |j>| / (E_i - E_j)^2`` with the energy scale
    restored through ``ej_freq`` (E_J expressed as an ordinary frequency, so
    the dimensionless ratio divides by ej_freq in GHz to land in ns).  The
    flux derivative ``dH/df_s`` vanishes identically at ``f_s = 0``, where
    the coefficient is 0 even at a crossing.

    Raises
    ------
    DegenerateGapError
        If ``|E_i - E_j|`` is below ``DEGENERACY_FLOOR`` (in E_J units): the
        pair is effectively crossing and the coefficient diverges.
    """
    params = spec.params
    if params.f_s == 0.0:
        return 0.0
    gap = spec.levels[j] - spec.levels[i]
    if abs(gap) < DEGENERACY_FLOOR:
        raise DegenerateGapError(
            f"levels {i},{j} separated by {abs(gap):.3e} E_J (< {DEGENERACY_FLOOR:.0e}): crossing"
        )
    return float(_element(spec, spec.dh_dfs, i, j) / gap**2 / params.ej_freq)


@dataclass(frozen=True)
class PointRecord:
    """Working-level figures of merit at one solved ``(f, f_s)`` point.

    ``levels`` holds the ``k`` lowest levels in E_J; ``t_ij`` are transition
    amplitudes and ``k_ij`` ramp coefficients in ns, NaN where the pair is
    closer than the degeneracy floor (a crossing).  ``shift``, ``solves``,
    ``harmonics``, ``momenta`` and ``max_residual`` are the eigensolver's
    diagnostics, as reported by :class:`EigenSpectrum`.
    """

    levels: np.ndarray
    t_01: float
    t_02: float
    t_12: float
    k_01: float
    k_12: float
    shift: float
    solves: int
    harmonics: int
    momenta: int
    max_residual: float


def point_record(
    params: CircuitParams,
    grid: PhaseGrid,
    *,
    k: int = 6,
    sector: str = "even",
    seed: int = 0,
) -> PointRecord:
    """Solve one flux point and read off its levels, amplitudes and ramps.

    This is the single per-point producer behind every spectral table.  Six
    levels are solved by default so that near-degenerate clusters around the
    half-flux crossings are fully contained and can be consistently rotated
    before amplitudes are read off.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3 to cover levels 0..2, got {k}")
    spec = lowest_eigenpairs(assemble_hamiltonian(params, grid, sector=sector), k, seed=seed)
    ramps = []
    for i, j in ((0, 1), (1, 2)):
        try:
            ramps.append(adiabatic_k(spec, i, j))
        except DegenerateGapError:
            ramps.append(math.nan)
    return PointRecord(
        levels=spec.levels,
        t_01=transition_element(spec, 0, 1),
        t_02=transition_element(spec, 0, 2),
        t_12=transition_element(spec, 1, 2),
        k_01=ramps[0],
        k_12=ramps[1],
        shift=spec.shift,
        solves=spec.solves,
        harmonics=spec.harmonics,
        momenta=spec.momenta,
        max_residual=float(spec.residuals.max()),
    )
