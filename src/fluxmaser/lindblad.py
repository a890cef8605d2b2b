"""Master-equation engine for the pumped cavity.

The cavity field (truncated at ``n_max`` photons) evolves under

    drho/dt = r_a (M - 1) rho - (r_a/2) (M - 1)^2 rho + L rho

where ``M`` is the one-transit gain map of an inverted emitter, ``r_a`` the
emitter arrival rate and ``L`` the thermal-bath dissipator.  The first-order
term is ordinary Poissonian gain; the second-order term is the correction
for regular (sub-Poissonian) arming of the emitter.  Everything is expressed
in cavity-lifetime units: ``kappa = 1`` and ``r_a = n_t``.

``gain_map`` is the closed form of ``M``.  The generator keeps the coherence
order ``d = n - m`` and is a four-diagonal band on each diagonal of rho,
built in closed form by ``_coherence_block``; the matrix-form generator and
dissipator it is checked against live with the test oracles.  Two
independent routes to the steady state use these blocks to validate the
closed-form recursions elsewhere: time evolution
(``evolve``, each occupied diagonal of rho advanced by a cached dense
exponential of its block) and the ``d = 0`` nullspace
(``steady_state_nullspace``, one O(n_max) sparse solve).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm

from .errors import AmbiguousSteadyStateError, InvariantViolation, TruncationWarning
from .maser import MaserConfig, PhotonDistribution, _finalize

__all__ = [
    "validate_density_matrix", "fock_state", "gain_map", "Trajectory", "evolve", "step_count",
    "diagonal_generator", "steady_state_nullspace",
]

TOP_LEVEL_TOL = 1e-10
MAX_RECORDS = 10**6  # a run recording more is a typo (the CLI default records 201)
RESIDUAL_BOUND = 1e-8  # max |G p| a trusted steady state may leave


def validate_density_matrix(
    rho: np.ndarray, *, herm_tol: float = 1e-12, trace_tol: float = 1e-12,
    diag_floor: float = -1e-10, context: str = "",
) -> None:
    """Check hermiticity, unit trace and non-negative populations.

    Raises ``InvariantViolation`` with the worst offender spelled out.
    """
    where = f" ({context})" if context else ""
    # written so that NaN fails every check
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if not herm <= herm_tol:
        raise InvariantViolation(f"hermiticity violated by {herm:.3e}{where}")
    trace = complex(np.trace(rho))
    if not abs(trace - 1.0) <= trace_tol:
        raise InvariantViolation(f"trace deviates from 1 by {abs(trace - 1.0):.3e}{where}")
    diag_min = float(np.min(np.real(np.diag(rho))))
    if not diag_min >= diag_floor:
        raise InvariantViolation(f"population {diag_min:.3e} below floor{where}")


def fock_state(n: int, n_max: int) -> np.ndarray:
    rho = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    rho[n, n] = 1.0
    return rho


def gain_map(rho: np.ndarray, g_tau: float) -> np.ndarray:
    """Cavity state after one transit of an excited emitter, traced over it.

    Closed form on the Fock grid::

        (M rho)_{nm} = cos(g_tau sqrt(n+1)) cos(g_tau sqrt(m+1)) rho_{nm}
                     + sin(g_tau sqrt(n))   sin(g_tau sqrt(m))   rho_{n-1,m-1}

    Validated against a direct joint-space matrix exponential in the test
    suite.  Population sitting on the top Fock level cannot emit into the
    (truncated) next level, so it is flagged with a ``TruncationWarning``.
    """
    size = rho.shape[0]
    if abs(rho[-1, -1]) > TOP_LEVEL_TOL:
        warnings.warn(
            f"top Fock level populated ({abs(rho[-1, -1]):.2e}); gain is truncation-limited",
            TruncationWarning,
            stacklevel=2,
        )
    n = np.arange(size, dtype=float)
    cos_vec = np.cos(g_tau * np.sqrt(n + 1.0))
    sin_vec = np.sin(g_tau * np.sqrt(n))
    out = np.outer(cos_vec, cos_vec) * rho
    out[1:, 1:] += np.outer(sin_vec[1:], sin_vec[1:]) * rho[:-1, :-1]
    return out


def _coherence_block(cfg: MaserConfig, d: int) -> sp.csr_matrix:
    """Generator on the ``d``-th diagonal of rho, as a sparse square block.

    Index ``i`` stands for ``rho_{i+d, i}`` (``d >= 0``) or ``rho_{i, i-d}``;
    every coefficient is symmetric in ``n`` and ``m``, so only ``|d|`` matters.
    ``M - 1`` puts ``C_n C_m - 1`` on the diagonal and ``S_n S_m`` below it
    (``C_k = cos(g_tau sqrt(k+1))``, ``S_k = sin(g_tau sqrt(k))``), its square
    adds offset -2, and ``L`` is tridiagonal with a reflecting top level.
    """
    d = abs(d)
    levels = np.arange(cfg.n_max + 1, dtype=float)
    size = levels.size - d
    m, n = levels[:size], levels[d:]
    cos_k = np.cos(cfg.g_tau * np.sqrt(levels + 1.0))
    sin_k = np.sin(cfg.g_tau * np.sqrt(levels))
    a0 = cos_k[d:] * cos_k[:size] - 1.0  # M - 1 on the diagonal
    a1 = sin_k[d + 1 :] * sin_k[1:size]  # M - 1 below it
    up_weight = np.append(levels[1:], 0.0)  # reflecting top level
    root = np.sqrt(n[1:] * m[1:])
    down, up, r_a = cfg.n_th + 1.0, cfg.n_th, cfg.n_t
    # DIA layout: row k holds offset (-2, -1, 0, 1)[k], entry j sits in column j
    data = np.zeros((4, size))
    data[0, :-2] = -0.5 * r_a * a1[1:] * a1[:-1]
    data[1, :-1] = up * root + r_a * a1 - 0.5 * r_a * a1 * (a0[1:] + a0[:-1])
    data[2] = r_a * a0 - 0.5 * r_a * a0 * a0
    data[2] -= 0.5 * down * (n + m) + 0.5 * up * (up_weight[d:] + up_weight[:size])
    data[3, 1:] = down * root
    return sp.dia_matrix((data, [-2, -1, 0, 1]), shape=(size, size)).tocsr()


@dataclass
class Trajectory:
    """Recorded time evolution: populations, trace and mean photon number."""

    times: np.ndarray
    traces: np.ndarray
    populations: np.ndarray
    mean_n: np.ndarray
    rho_final: np.ndarray
    dt: float
    steps: int


def step_count(t_final: float, dt: float, record_every: int) -> int:
    """Number of ``dt`` steps ``evolve`` takes to ``t_final``.

    ``ValueError`` unless ``dt`` and ``t_final`` are finite and > 0,
    ``record_every >= 1`` and the run records at most ``MAX_RECORDS`` states.
    """
    if not (0 < dt < math.inf and 0 < t_final < math.inf and record_every >= 1):
        raise ValueError(
            f"need dt, t_final finite and > 0, record_every > 0: {dt}, {t_final}, {record_every}"
        )
    ratio = t_final / dt  # inf when the quotient overflows
    if not ratio / record_every <= MAX_RECORDS - 1:
        raise ValueError(f"t_final/dt = {ratio:g} steps would record over {MAX_RECORDS} states")
    return max(1, int(round(ratio)))


def evolve(
    rho0: np.ndarray, cfg: MaserConfig, t_final: float, dt: float, *, record_every: int = 10
) -> Trajectory:
    """Exact time evolution of the master equation, sampled on a fixed grid.

    The state is recorded at steps ``0, record_every, 2 record_every, ...``
    of size ``dt`` and at the final step ``round(t_final / dt)``.  The
    generator keeps the coherence order ``d``, so a diagonal of ``rho0`` that
    is all zero stays exactly zero; each other one is advanced between
    records by the dense propagator ``expm(L_d h)`` of its block, computed
    once per ``|d|`` and record span (Moler & Van Loan 2003).  ``dt`` sets
    only the sampling; inputs :func:`step_count` rejects raise ``ValueError``
    before any work.
    Hermiticity (1e-10) and trace (1e-9) are enforced at every record, where
    a populated top Fock level also raises a ``TruncationWarning`` while
    pumped.  Populations are NOT floored: the second-order pump correction
    can push them transiently negative for coherent initial states — a
    property of the model equation, not of the propagation.
    """
    steps = step_count(t_final, dt, record_every)
    size = cfg.n_max + 1
    if rho0.shape != (size, size):
        raise ValueError(f"rho0 shape {rho0.shape} does not match n_max={cfg.n_max}")
    validate_density_matrix(rho0, context="initial state")

    n_axis = np.arange(size, dtype=float)
    x = rho0.astype(complex).ravel()
    flat = np.arange(size * size).reshape(size, size)  # where each rho_{nm} sits in x
    diagonals = [(abs(d), np.diagonal(flat, -d)) for d in range(-cfg.n_max, size)]
    occupied = [(order, where) for order, where in diagonals if np.any(x[where])]

    @functools.cache
    def propagator(order: int, span: int) -> np.ndarray:
        return expm(_coherence_block(cfg, order).toarray() * (span * dt))

    times, traces, populations, mean_n = [], [], [], []
    previous = 0
    for step in [*range(0, steps, record_every), steps]:
        for order, where in occupied:
            x[where] = propagator(order, step - previous) @ x[where]
        previous = step
        t = step * dt
        rho = x.reshape(size, size)
        if cfg.n_t > 0 and abs(rho[-1, -1]) > TOP_LEVEL_TOL:
            message = f"top Fock level populated ({abs(rho[-1, -1]):.2e}) at t={t:g}"
            warnings.warn(message, TruncationWarning, stacklevel=2)
        validate_density_matrix(
            rho, herm_tol=1e-10, trace_tol=1e-9, diag_floor=-np.inf, context=f"t={t:g}"
        )
        times.append(t)
        traces.append(float(np.real(np.trace(rho))))
        populations.append(np.real(np.diag(rho)).copy())
        mean_n.append(float(np.dot(n_axis, populations[-1])))

    arrays = (np.asarray(values) for values in (times, traces, populations, mean_n))
    return Trajectory(*arrays, rho_final=rho, dt=dt, steps=steps)


def diagonal_generator(cfg: MaserConfig) -> np.ndarray:
    """The ``d = 0`` block, dense: column ``n`` is ``d/dt diag(rho)`` at ``rho = |n><n|``."""
    return _coherence_block(cfg, 0).toarray()


def steady_state_nullspace(cfg: MaserConfig) -> PhotonDistribution:
    """Steady state as the nullspace of the diagonal-sector generator.

    The top row of the ``d = 0`` block is replaced by ``sum(p) = 1`` and the
    system solved by sparse LU in O(n_max).  What leaks through the truncation
    lands in the dropped row, so ``residual = max |G p|`` on the full block
    tells whether a clean stationary state exists; above ``RESIDUAL_BOUND``,
    or for a singular solve, ``AmbiguousSteadyStateError`` is raised.
    """
    block = _coherence_block(cfg, 0)
    size = block.shape[0]
    system = sp.vstack([block[:-1], sp.csr_matrix(np.ones((1, size)))], format="csc")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        vec = spla.spsolve(system, np.append(np.zeros(size - 1), 1.0))
    residual = float(np.max(np.abs(block @ vec)))
    if not residual <= RESIDUAL_BOUND:
        raise AmbiguousSteadyStateError(
            f"steady-state residual {residual:.3e} exceeds {RESIDUAL_BOUND:.0e}: "
            "the truncated generator has no clean stationary state"
        )
    dist = _finalize(vec, "master-equation")
    dist.residual = residual
    return dist
