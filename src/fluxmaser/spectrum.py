"""Eigenpairs of the circuit Hamiltonian.

Every solve is shift-invert Lanczos (ARPACK through
``scipy.sparse.linalg.eigsh``) about the operator's provable spectral floor
``HamiltonianOperator.lower_bound``.  The shift lies below the ground state,
so the eigenvalues nearest it are exactly the lowest ones, and it lies close
enough to them that the transformed spectrum separates well (the
spectral-transformation Lanczos method of Ericsson & Ruhe, Math. Comp. 35,
1251 (1980)).  ``H - sigma I`` is factorised once with a symmetric fill
ordering.  The start vector is deterministically seeded, so repeated calls
give bit-identical results.  A residual gate rejects unconverged eigenpairs.

The low states use only the first few ``phi_p`` harmonics, so the solve
keeps harmonics ``m <= M``: with the modes ordered ``1, cos, sin, cos 2,
...`` that is the principal block of the first ``(2M+1) n_q`` rows.  By
Cauchy interlacing the block's levels lie at or above the full operator's,
so the floor stays a valid shift.  The block eigenvectors, padded with
zeros, go through the unchanged residual gate on the full operator; their
residual there is exactly their coupling to the dropped harmonics, and by
the Kato-Temple inequality (T. Kato, J. Phys. Soc. Jpn. 4, 334 (1949)) a
residual ``r`` moves a level by at most ``r**2`` over its distance to the
rest of the spectrum.  A solve whose largest residual misses
``TRUNCATION_TARGET`` times the gate bound is repeated with ``M`` doubled,
up to the full basis, which runs the plain full-operator solve.
``EigenSpectrum.harmonics`` reports the ``M`` kept.  The states are the
operator's coefficient vectors, so elements are read in the same basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .circuit import CircuitParams, HamiltonianOperator
from .errors import ConvergenceError

__all__ = ["EigenSpectrum", "lowest_eigenpairs"]

MAX_K = 8
DEFAULT_DEGENERACY_TOL = 5e-4
# a truncated solve is kept only if its full-operator residuals stay this far
# below the gate bound
TRUNCATION_TARGET = 1e-3
# the starting harmonic cutoff drops coefficients estimated below this
COEFF_FLOOR = 1e-12


@dataclass
class EigenSpectrum:
    """Lowest eigenlevels and real eigenstates in the operator's basis.

    ``levels`` are ascending, in units of E_J.  ``states[i]`` is the l2-unit
    coefficient vector of level ``i`` in the operator's basis, its largest
    component positive; ``current`` and ``dh_dfs`` are the operator's.
    ``residuals`` are the solver residual norms ``|H v - E v|`` of the full
    operator, with the coefficients of dropped harmonics zero, before any
    degenerate-cluster rotation.  ``method`` names the solver route, always
    ``"lanczos"``; ``shift`` is the shift-invert point, below ``levels[0]``,
    and ``solves`` counts the factorised solves the Lanczos iterations asked
    for.  ``harmonics`` is the highest ``phi_p`` harmonic the accepted solve
    kept (``(n_p - 1)//2`` for the full basis).
    """

    params: CircuitParams
    levels: np.ndarray
    states: np.ndarray
    current: sp.csr_matrix
    dh_dfs: sp.csr_matrix
    residuals: np.ndarray
    method: str
    shift: float
    solves: int
    harmonics: int

    @property
    def k(self) -> int:
        return self.levels.size

    def gap(self, i: int, j: int) -> float:
        return float(self.levels[j] - self.levels[i])


def _seeded_start(dim: int, seed: int) -> np.ndarray:
    rng = np.random.RandomState(seed)
    v0 = rng.standard_normal(dim)
    return v0 / np.linalg.norm(v0)


def _degenerate_groups(levels: np.ndarray) -> list[list[int]]:
    groups: list[list[int]] = [[0]]
    for i in range(1, levels.size):
        if levels[i] - levels[i - 1] < DEFAULT_DEGENERACY_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _start_harmonics(params: CircuitParams) -> int:
    """Estimated highest ``phi_p`` harmonic the low states use.

    The deepest well's ``phi_p`` profile is the ground state of
    ``-c_p d2/dphi_p^2 + phi_p^2`` (``-2 cos(phi_p)`` expanded at its
    minimum), a Gaussian whose harmonic-``m`` coefficient falls as
    ``exp(-m^2 sqrt(c_p)/2)``; this is the first ``m`` where that drops below
    ``COEFF_FLOOR``.  Only an estimate: the residual check certifies it.
    """
    return math.ceil(math.sqrt(-2.0 * math.log(COEFF_FLOOR) / math.sqrt(params.c_p)))


def _residual_bound(scale: float) -> float:
    """Largest accepted residual norm for an operator of infinity norm ``scale``."""
    return max(1e-8 * scale, 1e-10)


def _solve_block(
    op: HamiltonianOperator, k: int, seed: int, harmonics: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Lowest ``k`` eigenpairs of the block of ``phi_p`` harmonics ``m <= harmonics``.

    Returns ascending levels, the eigenvectors padded with zeros to the full
    operator's dimension, and the number of factorised solves.
    """
    n = (2 * harmonics + 1) * op.phi_q_axis.size
    matrix = op.matrix if n == op.dimension else op.matrix[:n, :n]
    shift = op.lower_bound
    lu = spla.splu((matrix - shift * sp.identity(n)).tocsc(), permc_spec="MMD_AT_PLUS_A")
    solves = 0

    def solve(rhs: np.ndarray) -> np.ndarray:
        nonlocal solves
        solves += 1
        return lu.solve(rhs)

    opinv = spla.LinearOperator((n, n), matvec=solve, dtype=np.float64)
    v0 = _seeded_start(n, seed)
    vals, vecs = spla.eigsh(matrix, k=k, sigma=shift, which="LM", v0=v0, tol=0, OPinv=opinv)
    order = np.argsort(vals)
    vecs = vecs[:, order]
    if n < op.dimension:
        vecs = np.concatenate([vecs, np.zeros((op.dimension - n, k))])
    return vals[order], vecs, solves


def lowest_eigenpairs(
    op: HamiltonianOperator,
    k: int = 4,
    *,
    seed: int = 0,
) -> EigenSpectrum:
    """Compute the ``k`` lowest eigenpairs of a circuit Hamiltonian.

    Eigenvectors inside any near-degenerate cluster (consecutive gaps below
    ``DEFAULT_DEGENERACY_TOL`` E_J) are rotated to diagonalize the
    loop-current drive ``-V^T current V`` over the cluster's vectors ``V``,
    in ascending order.  That is the limiting adiabatic basis at a
    level crossing (the flux derivative of the Hamiltonian is proportional
    to the current operator), and it makes transition amplitudes continuous
    through crossings instead of solver-arbitrary.  Inside a cluster the
    rotated states are linear combinations of true eigenvectors, accurate to
    the cluster's energy spread; ``residuals`` always reports the raw solver
    quality.
    """
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be between 1 and {MAX_K}, got {k}")
    dim = op.dimension
    if k >= dim:
        raise ValueError(f"k={k} too large for operator dimension {dim}")

    scale = spla.norm(op.matrix, np.inf)
    bound = _residual_bound(scale)
    top = (dim // op.phi_q_axis.size - 1) // 2
    harmonics = min(_start_harmonics(op.params), top)
    solves = 0
    while True:
        vals, vecs, used = _solve_block(op, k, seed, harmonics)
        solves += used
        residuals = np.array(
            [np.linalg.norm(op.matrix @ vecs[:, i] - vals[i] * vecs[:, i]) for i in range(k)]
        )
        if harmonics == top or residuals.max() <= TRUNCATION_TARGET * bound:
            break
        harmonics = min(2 * harmonics, top)
    worst = residuals.max()
    if worst > bound:
        raise ConvergenceError(
            f"eigensolver residual {worst:.3e} exceeds bound (operator scale {scale:.3e})"
        )

    states = np.ascontiguousarray(vecs.T)
    for group in _degenerate_groups(vals):
        if len(group) > 1:
            block = -states[group] @ (op.current @ states[group].T)
            _, rot = scipy.linalg.eigh(0.5 * (block + block.T))
            states[group] = rot.T @ states[group]

    for state in states:
        if state[np.argmax(np.abs(state))] < 0:
            state *= -1.0

    return EigenSpectrum(
        params=op.params,
        levels=vals.astype(float),
        states=states,
        current=op.current,
        dh_dfs=op.dh_dfs,
        residuals=residuals,
        method="lanczos",
        shift=op.lower_bound,
        solves=solves,
        harmonics=harmonics,
    )
