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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .circuit import CircuitParams, HamiltonianOperator, circulating_current
from .errors import ConvergenceError

__all__ = ["EigenSpectrum", "lowest_eigenpairs"]

MAX_K = 8
DEFAULT_DEGENERACY_TOL = 5e-4


@dataclass
class EigenSpectrum:
    """Lowest eigenlevels and real position-sampled eigenstates.

    ``levels`` are ascending, in units of E_J.  ``states[i]`` is sampled on
    ``(phi_p_axis, phi_q_axis)`` and unit-normalized under the quadrature
    weight ``weight``; the component of largest magnitude is positive.
    ``residuals`` are the solver residual norms ``|H v - E v|`` in the
    operator basis, before any degenerate-cluster rotation.  ``method`` names
    the solver route, always ``"lanczos"``; ``shift`` is the shift-invert
    point, below ``levels[0]``, and ``solves`` counts the factorised solves
    the Lanczos iteration asked for.
    """

    params: CircuitParams
    levels: np.ndarray
    states: np.ndarray
    residuals: np.ndarray
    phi_p_axis: np.ndarray
    phi_q_axis: np.ndarray
    weight: float
    method: str
    shift: float
    solves: int

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


def lowest_eigenpairs(
    op: HamiltonianOperator,
    k: int = 4,
    *,
    seed: int = 0,
) -> EigenSpectrum:
    """Compute the ``k`` lowest eigenpairs of a circuit Hamiltonian.

    Eigenvectors inside any near-degenerate cluster (consecutive gaps below
    ``DEFAULT_DEGENERACY_TOL`` E_J) are rotated to diagonalize the
    loop-current drive profile.  That is the limiting adiabatic basis at a
    level crossing (the flux derivative of the Hamiltonian is proportional
    to the current operator), and it makes transition amplitudes continuous
    through crossings instead of solver-arbitrary.  Inside a cluster the rotated states are linear
    combinations of true eigenvectors, accurate to the cluster's energy
    spread; ``residuals`` always reports the raw solver quality.
    """
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be between 1 and {MAX_K}, got {k}")
    dim = op.dimension
    if k >= dim:
        raise ValueError(f"k={k} too large for operator dimension {dim}")

    shift = op.lower_bound
    lu = spla.splu((op.matrix - shift * sp.identity(dim)).tocsc(), permc_spec="MMD_AT_PLUS_A")
    solves = 0

    def solve(rhs: np.ndarray) -> np.ndarray:
        nonlocal solves
        solves += 1
        return lu.solve(rhs)

    opinv = spla.LinearOperator((dim, dim), matvec=solve, dtype=np.float64)
    v0 = _seeded_start(dim, seed)
    vals, vecs = spla.eigsh(op.matrix, k=k, sigma=shift, which="LM", v0=v0, tol=0, OPinv=opinv)
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]

    residuals = np.array(
        [np.linalg.norm(op.matrix @ vecs[:, i] - vals[i] * vecs[:, i]) for i in range(k)]
    )
    scale = spla.norm(op.matrix, np.inf)
    worst = residuals.max()
    if worst > max(1e-8 * scale, 1e-10):
        raise ConvergenceError(
            f"eigensolver residual {worst:.3e} exceeds bound (operator scale {scale:.3e})"
        )

    states = np.stack([op.to_position(vecs[:, i]) for i in range(k)])

    groups = [g for g in _degenerate_groups(vals) if len(g) > 1]
    if groups:
        pp, qq = np.meshgrid(op.phi_p_axis, op.phi_q_axis, indexing="ij")
        drive = -circulating_current(op.params, pp, qq)
        for group in groups:
            block = np.empty((len(group), len(group)))
            for ia, a in enumerate(group):
                for ib, b in enumerate(group):
                    block[ia, ib] = np.sum(states[a] * drive * states[b]) * op.weight
            block = 0.5 * (block + block.T)
            _, rot = scipy.linalg.eigh(block)
            states[group] = np.tensordot(rot.T, states[group], axes=1)

    for i in range(k):
        flat = states[i].ravel()
        if flat[np.argmax(np.abs(flat))] < 0:
            states[i] = -states[i]

    return EigenSpectrum(
        params=op.params,
        levels=vals.astype(float),
        states=states,
        residuals=residuals,
        phi_p_axis=op.phi_p_axis,
        phi_q_axis=op.phi_q_axis,
        weight=op.weight,
        method="lanczos",
        shift=shift,
        solves=solves,
    )
