"""Brute-force reference implementations the fast code is validated against.

These are intentionally slow and dumb.  They stay in the tree permanently:
whenever the production implementations change, the equivalence tests must
keep passing against these.
"""

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, expm

from fluxmaser.circuit import potential
from fluxmaser.errors import TruncationWarning


def _minus_d2(n: int, h: float) -> sp.csr_matrix:
    """Second-order 3-point stencil for ``-d2/dx2`` with periodic wrap."""
    inv = 1.0 / (h * h)
    main = np.full(n, 2.0 * inv)
    off = np.full(n - 1, -inv)
    mat = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    mat[0, n - 1] = -inv
    mat[n - 1, 0] = -inv
    return mat.tocsr()


def torus_hamiltonian(params, grid, zero_potential=False) -> sp.csr_matrix:
    """Literal 5-point finite-difference Hamiltonian on the full doubled cell.

    Rows and columns run over ``(phi_p_axis, phi_q_axis)`` of ``grid`` with
    ``phi_q`` fastest.  Its spectrum is the union of both symmetry sectors,
    so it is the reference the sector operator is checked against.  With
    ``zero_potential=True`` only the kinetic terms are kept (plane-wave
    checks); the constant vector is then a null vector.
    """
    ham = params.c_p * sp.kron(_minus_d2(grid.n_p, grid.h_p), sp.identity(grid.n_q), format="csr")
    ham = ham + params.c_q * sp.kron(sp.identity(grid.n_p), _minus_d2(grid.n_q, grid.h_q), format="csr")
    if not zero_potential:
        pp, qq = np.meshgrid(grid.phi_p_axis, grid.phi_q_axis, indexing="ij")
        ham = ham + sp.diags(potential(params, pp, qq).ravel())
    return ham.tocsr()


def sector_hamiltonian_dense(params, grid, sector: str) -> np.ndarray:
    """Sector Hamiltonian written entry by entry from its definition.

    Rows and columns run over (``phi_p`` mode, ``phi_q`` ring site) with the
    site fastest.  The modes are the orthonormal trig functions
    ``1/sqrt(2 pi)``, then ``cos(m phi)/sqrt(pi)`` and ``sin(m phi)/sqrt(pi)``
    for ``m = 1..(n_p - 1)//2``.  Potential matrix elements are ``phi_p``
    quadratures of the mode products against ``potential``; at even ``n_p``
    every product stays below the Nyquist harmonic, so they are exact.  The
    ring of ``n_q_half`` sites closes with the sign each mode picks up under
    the half-period shift ``phi_p -> phi_p + pi``, times the sector sign.
    """
    assert grid.n_p % 2 == 0, "phi_p quadrature is exact only at even n_p"
    phi_p, h_p = grid.phi_p_axis, grid.h_p
    modes, harmonics = [lambda x: np.full_like(x, 1.0 / np.sqrt(2.0 * np.pi))], [0]
    for m in range(1, (grid.n_p - 1) // 2 + 1):
        modes.append(lambda x, m=m: np.cos(m * x) / np.sqrt(np.pi))
        modes.append(lambda x, m=m: np.sin(m * x) / np.sqrt(np.pi))
        harmonics += [m, m]
    samples = [mode(phi_p) for mode in modes]
    sigma = {"even": 1.0, "odd": -1.0}[sector]
    wrap = [sigma * round(h_p * np.sum(mode(phi_p + np.pi) * s)) for mode, s in zip(modes, samples)]

    n_q, hop = grid.n_q_half, params.c_q / grid.h_q_half**2
    ham = np.zeros((len(modes) * n_q, len(modes) * n_q))
    for j, phi_q in enumerate(grid.phi_q_half_axis):
        u = potential(params, phi_p, phi_q)
        for a in range(len(modes)):
            row = a * n_q + j
            ham[row, row] += params.c_p * harmonics[a] ** 2 + 2.0 * hop
            for k in (j - 1, j + 1):
                closing = not 0 <= k < n_q  # the link across the ring's seam
                ham[row, a * n_q + k % n_q] -= hop * (wrap[a] if closing else 1.0)
            for b in range(len(modes)):
                ham[row, b * n_q + j] += h_p * np.sum(samples[a] * u * samples[b])
    return ham


def position_samples(grid, vec: np.ndarray) -> np.ndarray:
    """Wavefunction samples of a sector coefficient vector on the position grid.

    ``vec`` runs over (trig ``phi_p`` mode, ring site) like the sector
    operator, with the modes of ``sector_hamiltonian_dense``.  The result is
    sampled on ``(grid.phi_p_axis, grid.phi_q_half_axis)`` and an l2-unit
    ``vec`` comes out unit-normalised under the quadrature weight
    ``grid.h_p * grid.h_q_half``.
    """
    index = np.arange(2 * ((grid.n_p - 1) // 2) + 1)
    phase = np.outer(grid.phi_p_axis, (index + 1) // 2)
    basis = np.where(index % 2 == 0, np.sin(phase), np.cos(phase)) / np.sqrt(np.pi)
    basis[:, 0] = 1.0 / np.sqrt(2.0 * np.pi)
    return basis @ vec.reshape(index.size, grid.n_q_half) / np.sqrt(grid.h_q_half)


def position_element(grid, profile: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """``<a| profile |b>`` by grid quadrature of the position samples of ``a`` and ``b``.

    ``profile`` is sampled on the same ``(phi_p, phi_q)`` meshgrid.  For a
    profile of at most first harmonic in ``phi_p`` the ``phi_p`` quadrature
    is exact while the states use harmonics up to ``(n_p - 2)/2``: always at
    even ``n_p``, and at odd ``n_p`` for a truncated solve.
    """
    weight = grid.h_p * grid.h_q_half
    return float(np.sum(position_samples(grid, a) * profile * position_samples(grid, b)) * weight)


def dense_levels(matrix, k: int) -> np.ndarray:
    """The ``k`` lowest eigenvalues by dense LAPACK diagonalization."""
    return eigh(matrix.toarray(), subset_by_index=[0, k - 1], eigvals_only=True)


def full_basis_levels(op, k: int) -> np.ndarray:
    """Lowest ``k`` levels of the whole sector operator by plain shift-invert ``eigsh``.

    Every ``phi_p`` harmonic is kept, and the start vector is drawn from a
    seed the library does not use.
    """
    v0 = np.random.RandomState(7919).standard_normal(op.dimension)
    vals = spla.eigsh(op.matrix, k=k, sigma=op.lower_bound, which="LM", v0=v0, tol=0)[0]
    return np.sort(vals)


def joint_gain_oracle(rho: np.ndarray, g_tau: float) -> np.ndarray:
    """One emitter transit computed on the joint emitter+field space.

    The field space is padded by one Fock level so that emission from the top
    retained state lands inside the simulation instead of silently vanishing;
    without the pad the top state would be an artificial dark state and the
    comparison against the closed form would be wrong at the boundary.  The
    resonant exchange Hamiltonian is exponentiated densely, the emitter
    (injected excited) is traced out, and the result is projected back onto
    the original truncation.
    """
    size = rho.shape[0]
    pad = size + 1
    a = np.diag(np.sqrt(np.arange(1.0, pad)), 1)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e| in basis (g, e)
    h_exchange = np.kron(lower.T, a) + np.kron(lower, a.T)
    u = expm(-1j * g_tau * h_exchange)

    rho_pad = np.zeros((pad, pad), dtype=complex)
    rho_pad[:size, :size] = rho
    excited = np.array([[0.0, 0.0], [0.0, 1.0]])
    joint = np.kron(excited, rho_pad)
    evolved = u @ joint @ u.conj().T
    field = evolved[:pad, :pad] + evolved[pad:, pad:]  # trace out the emitter
    return field[:size, :size]


def probed_diagonal_generator(cfg, second_order=True, d=0) -> np.ndarray:
    """Generator on the ``d``-th diagonal of rho, probed column by column.

    Applies the matrix-form gain map and dissipator to one basis matrix per
    element of that diagonal and reads the diagonal back out.  Row and
    column ``i`` stand for ``rho_{i+d, i}`` (``d >= 0``) or ``rho_{i, i-d}``.
    With ``second_order=False`` only the Poissonian ``r_a (M - 1) + L`` is
    kept, the reference for the two-term atomic recursion.
    """
    from fluxmaser.lindblad import dissipator, gain_map, generator

    size = cfg.n_max + 1
    matrix = np.empty((size - abs(d), size - abs(d)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for i in range(size - abs(d)):
            basis = np.zeros((size, size), dtype=complex)
            basis[(i + d, i) if d >= 0 else (i, i - d)] = 1.0
            if second_order:
                out = generator(basis, cfg)
            else:
                out = cfg.n_t * (gain_map(basis, cfg.g_tau) - basis) + dissipator(basis, cfg.n_th)
            matrix[:, i] = np.real(np.diagonal(out, -d))
    return matrix


def nullspace_vector(matrix: np.ndarray) -> np.ndarray:
    """Normalised smallest right singular vector, refused unless it is clean."""
    _, svals, vt = np.linalg.svd(matrix)
    assert svals[-2] > 1e3 * svals[-1], "no clean nullspace at this truncation"
    vec = vt[-1]
    return vec / vec.sum()


def expm_reference(rho0: np.ndarray, cfg, t: float) -> np.ndarray:
    """``exp(G t) rho0`` by dense ``expm``, ``G`` probed from the matrix-form ``generator``."""
    from fluxmaser.lindblad import generator

    size = rho0.shape[0]
    superop = np.empty((size * size, size * size), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for col in range(size * size):
            basis = np.zeros(size * size, dtype=complex)
            basis[col] = 1.0
            superop[:, col] = generator(basis.reshape(size, size), cfg).ravel()
    return (expm(superop * t) @ rho0.astype(complex).ravel()).reshape(size, size)
