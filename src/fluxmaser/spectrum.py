"""Eigenpairs of the circuit Hamiltonian.

Every solve is shift-invert Lanczos (ARPACK through
``scipy.sparse.linalg.eigsh``) about the operator's provable spectral floor
``HamiltonianOperator.lower_bound``.  The shift lies below the ground state,
so the eigenvalues nearest it are exactly the lowest ones, and it lies close
enough to them that the transformed spectrum separates well (the
spectral-transformation Lanczos method of Ericsson & Ruhe, Math. Comp. 35,
1251 (1980)).  Below the spectrum ``H - sigma I`` is positive definite, and
in the chain order of ``HamiltonianOperator.block`` the solved block is a
band of half-width one ``phi_p`` mode's rows plus 2, so it is factorised
once by a banded Cholesky (LAPACK ``dpbtrf``, O(n kd^2) without pivoting;
Golub & Van Loan, *Matrix Computations*, section 4.3) and each Lanczos
step is one banded solve (``dpbtrs``).  A factor that fails, a shift not
below the block's spectrum, raises ``ConvergenceError``.  The start vector
is deterministically seeded, so repeated calls give bit-identical results.
A residual gate rejects unconverged eigenpairs.

The low states use only the first few ``phi_p`` harmonics and ``phi_q``
momenta.  Their coefficients are estimated as a Gaussian in ``m`` that
reaches ``COEFF_FLOOR`` at ``M`` times a Gaussian in ``kappa`` that reaches
it at ``K``, a product at the floor on the ellipse ``(m/M)^2 +
(|kappa|/K)^2 = 1``, so the solve keeps the rows inside that ellipse: the
principal block of those rows of the operator's (mode, momentum) basis,
about three quarters of the rectangle ``m <= M``, ``|kappa| <= K``.  By
Cauchy interlacing the block's levels lie at or above the full operator's,
so the floor stays a valid shift.  The residual
gate reads the full operator's residual of the block eigenvectors padded
with zeros.  That is the block's own residual plus its coupling to the
halo, the rows outside the block that its columns reach (Saad, *Numerical
Methods for Large Eigenvalue Problems*, 2nd ed., SIAM 2011), so it is
formed on the layout of ``HamiltonianOperator.block`` and nothing of full
size is built.  By the Kato-Temple inequality (T. Kato, J. Phys. Soc. Jpn.
4, 334 (1949)) a residual ``r`` moves a level by at most ``r**2`` over its
distance to the rest of the spectrum.  A solve whose largest residual
misses ``TRUNCATION_TARGET`` times the gate bound is repeated with ``M`` or
``K`` doubled, up to the full basis, which the cut at both basis caps keeps
whole.  Each halo row belongs to the axis of its larger normalised
coordinate, ``m/M`` or ``|kappa|/K``, and the axis whose rows carry the
larger miss is widened; an axis at its cap hands its turn to the other, so
every widening keeps more rows.
The gate's scale is the operator's infinity norm in the position basis,
``HamiltonianOperator.scale``, since that norm is not basis-invariant.
``EigenSpectrum.harmonics`` and ``EigenSpectrum.momenta`` report the cut
``(M, K)`` kept.  A state is held over the block's rows only, every other
coefficient being zero, so elements are read on the block with its
``current`` and ``dh_dfs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .circuit import CircuitParams, HamiltonianOperator, PhaseGrid
from .errors import ConvergenceError

__all__ = ["EigenSpectrum", "lowest_eigenpairs"]

MAX_K = 8
DEFAULT_DEGENERACY_TOL = 5e-4
# a truncated solve is kept only if its full-operator residuals stay this far
# below the gate bound
TRUNCATION_TARGET = 1e-3
# the starting harmonic and momentum cutoffs drop coefficients estimated below this
COEFF_FLOOR = 1e-12


@dataclass
class EigenSpectrum:
    """Lowest eigenlevels and real eigenstates in the operator's basis.

    ``levels`` are ascending, in units of E_J.  ``states`` is a ``(k,
    rows.size)`` array: ``states[i]`` holds the coefficients of level ``i``
    on the solved block's ``rows`` (basis indices, in the block's chain
    order), l2-unit, its largest component positive; every other coefficient
    in the operator's basis is zero.  ``current`` and ``dh_dfs`` are the
    operator's on that block, acting on ``states[i]``.  ``residuals`` are
    the solver residual norms ``|H v - E v|`` of the full operator, with
    the coefficients outside the block zero, before any degenerate-cluster
    rotation.  ``method`` names the solver route, always ``"lanczos"``;
    ``shift`` is the shift-invert point, below ``levels[0]``, and ``solves``
    counts the factorised solves the Lanczos iterations asked for.
    ``harmonics`` and ``momenta`` are the semi-axes ``M`` and ``K`` of the
    accepted solve's elliptic cut ``(m/M)^2 + (|kappa|/K)^2 <= 1`` in ``phi_p``
    harmonic and ``phi_q`` momentum; ``(n_p - 1)//2`` and ``(n_q_half +
    1)//2``, the basis caps, for the full basis.
    """

    params: CircuitParams
    levels: np.ndarray
    states: np.ndarray
    rows: np.ndarray
    current: sp.csr_matrix
    dh_dfs: sp.csr_matrix
    residuals: np.ndarray
    method: str
    shift: float
    solves: int
    harmonics: int
    momenta: int


@lru_cache(maxsize=16)
def _seeded_start(dim: int, seed: int) -> np.ndarray:
    """The normalised ``RandomState(seed)`` normal draw of length ``dim``, read-only.

    A sweep solves blocks of a few sizes at one seed, so each draw is made
    once; building the generator is most of its cost.
    """
    v0 = np.random.RandomState(seed).standard_normal(dim)
    v0 /= np.linalg.norm(v0)
    v0.flags.writeable = False
    return v0


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


def _start_momenta(params: CircuitParams, grid: PhaseGrid) -> int:
    """Estimated highest ``phi_q`` momentum ``|kappa|`` the low states use.

    The stiffest ``phi_q`` well the potential can form is ``a phi_q^2`` with
    ``a = 1/4 + gamma |cos(pi f_s)|`` (half the largest ``d2U/dphi_q^2``).
    In momentum space the well's ``a phi_q^2`` is the kinetic term and the
    finite-difference dispersion ``c_q (2 - 2 cos(kappa h))/h^2`` the
    potential, so the ground state's momentum profile falls as
    ``exp(-(8/h^2) sqrt(c_q/a) sin^2(kappa h/4))`` (WKB, exact for the
    Gaussian as ``h -> 0``); this is the first ``kappa`` where that drops
    below ``COEFF_FLOOR``, or every momentum if it never does.  Only an
    estimate: the residual check certifies it.
    """
    h = grid.h_q_half
    a = 0.25 + params.gamma * abs(math.cos(math.pi * params.f_s))
    reach = -math.log(COEFF_FLOOR) * h * h / (8.0 * math.sqrt(params.c_q / a))
    if reach >= 1.0:
        return (grid.n_q_half + 1) // 2
    return math.ceil(4.0 / h * math.asin(math.sqrt(reach)))


def _residual_bound(scale: float) -> float:
    """Largest accepted residual norm for an operator of infinity norm ``scale``."""
    return max(1e-8 * scale, 1e-10)


def _column_norms(columns: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column, scaled by a power of two so that no square overflows."""
    rows = np.ascontiguousarray(columns.T)
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(rows), axis=1, initial=0.0))[1])
    rows /= scale[:, None]
    return np.sqrt(np.einsum("ij,ij->i", rows, rows)) * scale


def _misfit(columns: sp.csr_matrix, n: int, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``H v - E v`` of the block eigenpairs ``(vals, vecs)`` over the layout's rows.

    ``columns`` is ``H`` on the kept columns over the ``n`` kept rows and
    then the halo; every other row of ``H v`` is zero, since ``v`` is.
    """
    misfit = columns @ vecs
    misfit[:n] -= vecs * vals
    return misfit


def _solve_block(
    op: HamiltonianOperator, band: np.ndarray, rank: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Lowest ``k`` eigenpairs of the block held in ``band`` (upper band storage),
    whose rows fall in basis order as ``rank`` says.

    Returns ascending levels, the eigenvectors over the block's rows, and the
    number of factorised solves.
    """
    n, kd = rank.size, band.shape[0] - 1
    shift = op.lower_bound
    shifted = band.copy(order="F")
    shifted[kd] -= shift
    factor, info = lapack.dpbtrf(shifted, overwrite_ab=1)
    if info:
        # the floor lies below the block's spectrum, so this means a broken shift
        raise ConvergenceError(
            f"H - {shift:.6g} I is not positive definite (Cholesky pivot {info} of {n})"
        )
    solves = 0

    def solve(rhs: np.ndarray) -> np.ndarray:
        nonlocal solves
        solves += 1
        return lapack.dpbtrs(factor, rhs)[0]

    opinv = spla.LinearOperator((n, n), matvec=solve, dtype=np.float64)
    # the start vector is drawn over the kept rows in basis order, so the solve
    # does not depend on the factor's row order
    v0 = _seeded_start(n, seed)[rank]
    try:
        # with OPinv given, shift-invert eigsh reads its operator argument only
        # for the shape and dtype, so the solve stands in for the block
        vals, vecs = spla.eigsh(opinv, k=k, sigma=shift, which="LM", v0=v0, tol=0, OPinv=opinv)
    except spla.ArpackNoConvergence as exc:
        # ARPACK's exception cannot be unpickled, so a sweep worker could
        # not hand it back as a failed point
        raise ConvergenceError(str(exc)) from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order], solves


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

    scale = op.scale
    bound = _residual_bound(scale)
    target = TRUNCATION_TARGET * bound
    # never below 3, so that the block keeps more than 2 MAX_K + 1 rows: the
    # ellipse of (3, 3) keeps 29 (even sector) or 26 (odd), that of (2, 2) 15 or 10
    harmonics = min(max(_start_harmonics(op.params), 3), op.harmonics)
    momenta = min(max(_start_momenta(op.params, op.grid), 3), op.momenta)
    solves = 0
    while True:
        band, columns, layout = op.block(harmonics, momenta)
        n = layout.kept
        vals, vecs, used = _solve_block(op, band, layout.rank, k, seed)
        solves += used
        misfit = _misfit(columns, n, vals, vecs)
        residuals = _column_norms(misfit)
        if residuals.max() <= target or n == op.dimension:
            break
        # widen the axis whose halo rows carry the larger miss; an axis at its
        # cap hands its turn to the other, and a widening that keeps no more
        # rows than the solve it follows is widened again
        halo = misfit[n:]
        miss_m, miss_k = (
            _column_norms(halo[rows]).max() for rows in (layout.crosses, ~layout.crosses)
        )
        while op.parts.block(harmonics, momenta).kept == n:
            if momenta == op.momenta or (miss_m >= miss_k and harmonics < op.harmonics):
                harmonics = min(2 * harmonics, op.harmonics)
            else:
                momenta = min(2 * momenta, op.momenta)
    worst = residuals.max()
    if not worst <= bound:  # written so that a NaN residual fails
        raise ConvergenceError(
            f"eigensolver residual {worst:.3e} exceeds bound (operator scale {scale:.3e})"
        )

    current, dh_dfs = op.elements(layout)
    states = np.ascontiguousarray(vecs.T)
    for group in _degenerate_groups(vals):
        if len(group) > 1:
            block = -states[group] @ (current @ states[group].T)
            try:
                _, rot = scipy.linalg.eigh(0.5 * (block + block.T))
            except np.linalg.LinAlgError as exc:
                # a ValueError, which a sweep would report as bad input
                raise ConvergenceError(f"cluster rotation failed: {exc}") from exc
            states[group] = rot.T @ states[group]
    for state in states:
        if state[np.argmax(np.abs(state))] < 0:
            state *= -1.0

    return EigenSpectrum(
        params=op.params,
        levels=vals.astype(float),
        states=states,
        rows=layout.rows[:n],
        current=current,
        dh_dfs=dh_dfs,
        residuals=residuals,
        method="lanczos",
        shift=op.lower_bound,
        solves=solves,
        harmonics=harmonics,
        momenta=momenta,
    )
