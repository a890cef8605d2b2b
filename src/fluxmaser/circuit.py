"""Two-dimensional phase-space model of the flux-biased circuit.

The circuit is described by two periodic phase coordinates: ``phi_p`` (the
in-phase junction combination, period ``2*pi``) and ``phi_q`` (the SQUID-loop
combination, period ``4*pi``).  In units of the Josephson energy the
Hamiltonian reads::

    H/E_J = -c_p d2/dphi_p^2 - c_q d2/dphi_q^2 + U(phi_p, phi_q)/E_J

with kinetic coefficients fixed by the charging-to-Josephson energy ratio
``x = ej_over_ec``::

    c_p = 2/x          c_q = 8/(x*(1 + 4*gamma))

The potential is invariant under the half-period translation
``(phi_p, phi_q) -> (phi_p + pi, phi_q + 2*pi)``, so the spectrum on the full
``[-pi,pi) x [-2pi,2pi)`` torus contains every physical level twice, once per
symmetry sector.  ``assemble_hamiltonian`` builds one sector as a Kronecker
sum over (``phi_p`` mode, ``phi_q`` site): real trigonometric modes in
``phi_p``, each carrying a finite-difference ring on the reduced domain
``[-pi, pi)`` whose closing link takes a per-mode sign (the sector
condition), with the ``cos(phi_p)`` part of the potential coupling
neighbouring modes.  Spectra and the elements of the loop current and of
``dH/df_s``, assembled beside it, are computed in this basis; the torus and
position-sampled states it is checked against live with the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np
import scipy.sparse as sp

__all__ = [
    "CircuitParams",
    "PhaseGrid",
    "HamiltonianOperator",
    "effective_alpha",
    "potential",
    "circulating_current",
    "assemble_hamiltonian",
]

MIN_N_P = 16
MIN_N_Q = 32


@dataclass(frozen=True)
class CircuitParams:
    """Static circuit biases and energy scales.

    Parameters
    ----------
    gamma:
        Ratio of the SQUID junction's Josephson energy to the main junctions'.
    ej_over_ec:
        Josephson-to-charging energy ratio ``x = E_J/E_c``.
    f:
        Reduced external flux through the main loop (units of the flux
        quantum), already including half the SQUID flux.
    f_s:
        Reduced flux through the SQUID loop.
    ej_freq:
        Josephson energy expressed as a frequency, ``E_J/h`` in GHz.  Sets
        the absolute time/frequency scale of derived quantities.
    """

    gamma: float = 0.5
    ej_over_ec: float = 100.0
    f: float = 0.5
    f_s: float = 0.0
    ej_freq: float = 400.0

    def __post_init__(self) -> None:
        for name in ("gamma", "ej_over_ec", "f", "f_s", "ej_freq"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not self.ej_over_ec > 0:
            raise ValueError(f"ej_over_ec must be positive, got {self.ej_over_ec}")
        if not self.ej_freq > 0:
            raise ValueError(f"ej_freq must be positive, got {self.ej_freq}")

    @property
    def c_p(self) -> float:
        return 2.0 / self.ej_over_ec

    @property
    def c_q(self) -> float:
        return 8.0 / (self.ej_over_ec * (1.0 + 4.0 * self.gamma))

    def replace(self, **kwargs) -> "CircuitParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class PhaseGrid:
    """Resolution ``(n_p, n_q)`` of the phase cell ``[-pi,pi) x [-2pi,2pi)``.

    ``n_p`` fixes the ``phi_p`` harmonics kept, up to ``(n_p - 1)//2``.
    ``n_q`` counts samples of the doubled ``phi_q`` period; the sector
    Hamiltonian uses the ``n_q_half = (n_q+1)//2`` sites of the reduced ring
    ``[-pi, pi)``, whose step matches the doubled-cell step.
    """

    n_p: int = 81
    n_q: int = 161

    def __post_init__(self) -> None:
        if self.n_p < MIN_N_P:
            raise ValueError(f"n_p must be >= {MIN_N_P}, got {self.n_p}")
        if self.n_q < MIN_N_Q:
            raise ValueError(f"n_q must be >= {MIN_N_Q}, got {self.n_q}")

    @property
    def n_q_half(self) -> int:
        return (self.n_q + 1) // 2

    @property
    def h_q_half(self) -> float:
        return 2.0 * math.pi / self.n_q_half

    @property
    def phi_q_half_axis(self) -> np.ndarray:
        return -math.pi + self.h_q_half * np.arange(self.n_q_half)


def effective_alpha(gamma: float, f_s: float) -> float:
    """Flux-tunable effective junction strength ``alpha = 2*gamma*cos(pi*f_s)``."""
    return 2.0 * gamma * math.cos(math.pi * f_s)


def potential(params: CircuitParams, phi_p, phi_q):
    """Potential energy surface in units of E_J (vectorized over the phases)."""
    phi_p = np.asarray(phi_p, dtype=float)
    phi_q = np.asarray(phi_q, dtype=float)
    term_main = 2.0 * (1.0 - np.cos(phi_p) * np.cos(math.pi * params.f + phi_q / 2.0))
    term_squid = 2.0 * params.gamma * (
        1.0 - math.cos(math.pi * params.f_s) * np.cos(phi_q)
    )
    return term_main + term_squid


def circulating_current(params: CircuitParams, phi_p, phi_q):
    """Loop current profile ``-cos(phi_p)*sin(pi*f + phi_q/2)`` in units of I_c.

    Its matrix elements between energy eigenstates set the microwave
    transition amplitudes; its expectation value is (up to ``-2*pi``) the
    flux derivative of the energy.
    """
    phi_p = np.asarray(phi_p, dtype=float)
    phi_q = np.asarray(phi_q, dtype=float)
    return -np.cos(phi_p) * np.sin(math.pi * params.f + phi_q / 2.0)


@dataclass
class HamiltonianOperator:
    """Sparse symmetric real sector Hamiltonian in units of E_J.

    ``matrix`` acts on coefficient vectors over (trigonometric ``phi_p``
    mode, ``phi_q`` ring site at ``phi_q_axis``), site fastest; an l2-unit
    vector is a unit-normalised wavefunction.  ``current`` (the loop current
    :func:`circulating_current`) and ``dh_dfs`` (``dH/df_s``) act in the
    same basis.  ``lower_bound`` is a floor on the spectrum: every
    eigenvalue of ``matrix`` is at least this value.
    """

    matrix: sp.csr_matrix
    current: sp.csr_matrix
    dh_dfs: sp.csr_matrix
    params: CircuitParams
    lower_bound: float
    phi_q_axis: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def assemble_hamiltonian(
    params: CircuitParams,
    grid: PhaseGrid,
    *,
    sector: Literal["even", "odd"] = "even",
) -> HamiltonianOperator:
    """Build the sparse Hamiltonian of one symmetry sector.

    The operator is exact in ``phi_p`` (trigonometric modes up to the grid's
    Nyquist harmonic) and second order in ``phi_q`` (3-point finite
    differences on the ``n_q_half``-point ring of step ``h``).  Over
    (mode of harmonic ``m``, ring site) it is the Kronecker sum::

        H = diag((c_p m^2 + 2 c_q/h^2)[:, None] + U(phi_q))
            + I_modes (x) chain + diag(wrap) (x) corner
            + (-2 L) (x) diag(cos(pi f + phi_q/2))

    ``chain`` holds the hops ``-c_q/h^2`` between ring neighbours and
    ``corner`` the same hop on the link closing the ring, signed per mode by
    ``wrap = sigma (-1)^m``; ``sigma`` is +1 for ``sector="even"`` and -1 for
    ``"odd"``.  ``U(phi_q)`` is the ``phi_p``-independent part of the
    potential, and ``L`` the ``cos(phi_p)`` ladder of the trig basis: 1/2
    between neighbouring harmonics of one kind, 1/sqrt(2) from the constant
    mode to ``cos(phi_p)``.

    ``lower_bound`` is ``min(U(phi_q) - 2 |cos(pi f + phi_q/2)|)`` over the
    ring sites, the grid minimum of the potential at ``cos(phi_p) = +-1``.
    ``current`` is ``-L (x) diag(sin(pi f + phi_q/2))``, and ``dh_dfs`` the
    diagonal ``2 pi gamma sin(pi f_s) cos(phi_q)`` on every mode.
    """
    if sector not in ("even", "odd"):
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    sigma = 1.0 if sector == "even" else -1.0
    # harmonic of each mode 1, cos(phi_p), sin(phi_p), cos(2 phi_p), ... up to
    # (n_p - 1)//2; an even n_p drops its unpaired Nyquist harmonic
    ms = (np.arange(2 * ((grid.n_p - 1) // 2) + 1) + 1) // 2
    n_modes, n_q, q_axis = ms.size, grid.n_q_half, grid.phi_q_half_axis
    inv_h2 = 1.0 / (grid.h_q_half * grid.h_q_half)
    hop = -params.c_q * inv_h2

    u_diag = 2.0 + 2.0 * params.gamma * (1.0 - math.cos(math.pi * params.f_s) * np.cos(q_axis))
    on_site = (params.c_p * ms * ms + 2.0 * params.c_q * inv_h2)[:, None] + u_diag
    chain = sp.diags([hop, hop], [-1, 1], shape=(n_q, n_q))
    corner = sp.coo_matrix(([hop, hop], ([0, n_q - 1], [n_q - 1, 0])), shape=(n_q, n_q))
    wrap = sigma * np.where(ms % 2 == 0, 1.0, -1.0)
    # cos(phi_p) links each mode to the next harmonic of its kind (index a to
    # a + 2), and the constant mode to cos(phi_p) at index 1
    rows, cols = np.r_[0, 1 : n_modes - 2], np.r_[1, 3:n_modes]
    weights = np.where(rows == 0, 1.0 / math.sqrt(2.0), 0.5)
    upper = sp.coo_matrix((weights, (rows, cols)), shape=(n_modes, n_modes))
    ladder = upper + upper.T
    g_profile = np.cos(math.pi * params.f + q_axis / 2.0)

    ham = (
        sp.diags(on_site.ravel())
        + sp.kron(sp.identity(n_modes), chain)
        + sp.kron(sp.diags(wrap), corner)
        + sp.kron(-2.0 * ladder, sp.diags(g_profile))
    )
    d_u = 2.0 * math.pi * params.gamma * math.sin(math.pi * params.f_s) * np.cos(q_axis)
    # H >= lower_bound: the kinetic part is positive semidefinite (c_p m^2 >= 0,
    # and the ring Laplacian with either closing sign is >= 0), and L is a
    # principal submatrix of the cos(phi_p) multiplication operator in an
    # orthonormal basis, so ||L||_2 <= 1 and each site's potential block
    # U - 2 g L is >= U - 2|g|
    return HamiltonianOperator(
        matrix=ham.tocsr(),
        current=sp.kron(-ladder, sp.diags(np.sin(math.pi * params.f + q_axis / 2.0))).tocsr(),
        dh_dfs=sp.diags(np.tile(d_u, n_modes), format="csr"),
        params=params,
        lower_bound=float(np.min(u_diag - 2.0 * np.abs(g_profile))),
        phi_q_axis=q_axis,
    )
