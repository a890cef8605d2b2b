"""Brute-force reference implementations the fast code is validated against.

These are intentionally slow and dumb.  They stay in the tree permanently:
whenever the production implementations change, the equivalence tests must
keep passing against these.
"""

import math
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh, expm

from fluxmaser.circuit import _part_weights, _weighted
from fluxmaser.errors import TruncationWarning
from fluxmaser.lindblad import TOP_LEVEL_TOL
from fluxmaser.maser import MaserConfig


def potential(params, phi_p, phi_q):
    """Potential energy surface in units of E_J (vectorized over the phases)."""
    phi_p = np.asarray(phi_p, dtype=float)
    phi_q = np.asarray(phi_q, dtype=float)
    term_main = 2.0 * (1.0 - np.cos(phi_p) * np.cos(math.pi * params.f + phi_q / 2.0))
    term_squid = 2.0 * params.gamma * (
        1.0 - math.cos(math.pi * params.f_s) * np.cos(phi_q)
    )
    return term_main + term_squid


def circulating_current(params, phi_p, phi_q):
    """Loop current profile ``-cos(phi_p)*sin(pi*f + phi_q/2)`` in units of I_c.

    Its matrix elements between energy eigenstates set the microwave
    transition amplitudes; its expectation value is (up to ``-2*pi``) the
    flux derivative of the energy.
    """
    phi_p = np.asarray(phi_p, dtype=float)
    phi_q = np.asarray(phi_q, dtype=float)
    return -np.cos(phi_p) * np.sin(math.pi * params.f + phi_q / 2.0)


def full_elements(op):
    """The loop current and ``dH/df_s`` over the operator's whole pattern.

    The library weights these parts on a solved block only; the full CSR
    forms are what its block slices and the position-basis assembly are
    compared against.
    """
    weights = _part_weights(op.params)
    return tuple(_weighted(op.parts.pattern, w, op.dimension) for w in weights[1:])


def full_states(spec, grid):
    """The spectrum's states as vectors over the whole sector basis of
    ``grid``, zero outside the solved block's ``rows``."""
    n_modes = 2 * ((grid.n_p - 1) // 2) + 1
    full = np.zeros((spec.levels.size, n_modes * grid.n_q_half))
    full[:, spec.rows] = spec.states
    return full


def torus_axes(grid):
    """Samples and steps of the doubled cell ``[-pi, pi) x [-2pi, 2pi)``.

    Returns ``(phi_p_axis, h_p, phi_q_axis, h_q)``: ``grid.n_p`` points of
    step ``2 pi/n_p`` from ``-pi`` and ``grid.n_q`` of step ``4 pi/n_q`` from
    ``-2 pi``.  The library itself uses only the reduced ``phi_q`` ring.
    """
    h_p, h_q = 2.0 * math.pi / grid.n_p, 4.0 * math.pi / grid.n_q
    phi_p_axis = -math.pi + h_p * np.arange(grid.n_p)
    phi_q_axis = -2.0 * math.pi + h_q * np.arange(grid.n_q)
    return phi_p_axis, h_p, phi_q_axis, h_q


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

    Rows and columns run over ``(phi_p_axis, phi_q_axis)`` of
    :func:`torus_axes` with ``phi_q`` fastest.  Its spectrum is the union of
    both symmetry sectors, so it is the reference the sector operator is
    checked against.  With
    ``zero_potential=True`` only the kinetic terms are kept (plane-wave
    checks); the constant vector is then a null vector.
    """
    phi_p_axis, h_p, phi_q_axis, h_q = torus_axes(grid)
    ham = params.c_p * sp.kron(_minus_d2(grid.n_p, h_p), sp.identity(grid.n_q), format="csr")
    ham = ham + params.c_q * sp.kron(sp.identity(grid.n_p), _minus_d2(grid.n_q, h_q), format="csr")
    if not zero_potential:
        pp, qq = np.meshgrid(phi_p_axis, phi_q_axis, indexing="ij")
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
    phi_p, h_p = torus_axes(grid)[:2]
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


def position_hamiltonian(params, grid, sector: str):
    """The sector operator in position form, over (trig ``phi_p`` mode, ring site).

    Rows run over the modes of :func:`sector_hamiltonian_dense` and the
    ``grid.phi_q_half_axis`` sites, site fastest: the position-form
    Kronecker sum of ``fluxmaser.circuit.assemble_hamiltonian``'s docstring,
    which the library then writes in ring momenta.  Returns
    ``(H, current, dh_dfs)``.
    """
    sigma = 1.0 if sector == "even" else -1.0
    ms = (np.arange(2 * ((grid.n_p - 1) // 2) + 1) + 1) // 2
    n_modes, n_q, q_axis = ms.size, grid.n_q_half, grid.phi_q_half_axis
    inv_h2 = 1.0 / (grid.h_q_half * grid.h_q_half)
    hop = -params.c_q * inv_h2

    u_diag = 2.0 + 2.0 * params.gamma * (1.0 - math.cos(math.pi * params.f_s) * np.cos(q_axis))
    on_site = (params.c_p * ms * ms + 2.0 * params.c_q * inv_h2)[:, None] + u_diag
    chain = sp.diags([hop, hop], [-1, 1], shape=(n_q, n_q))
    corner = sp.coo_matrix(([hop, hop], ([0, n_q - 1], [n_q - 1, 0])), shape=(n_q, n_q))
    wrap = sigma * np.where(ms % 2 == 0, 1.0, -1.0)
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
    current = sp.kron(-ladder, sp.diags(np.sin(math.pi * params.f + q_axis / 2.0)))
    return ham.tocsr(), current.tocsr(), sp.diags(np.tile(d_u, n_modes), format="csr")


def ring_transform(n: int, twisted: bool) -> np.ndarray:
    """Orthonormal real discrete Fourier transform of an ``n``-site ring.

    Column ``r`` samples, on the sites ``theta_j = 2 pi j/n``, the ``r``-th
    real wave in ascending ``|kappa|``, cosine before sine: ``1, cos(theta),
    sin(theta), cos(2 theta), ...`` untwisted (the ring closes with +1),
    ``cos(theta/2), sin(theta/2), cos(3 theta/2), ...`` twisted (it closes
    with -1).  The wave with ``2|kappa| = n`` has no sine partner.
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    q = np.empty((n, n))
    for r in range(n):
        kappa = r // 2 + 0.5 if twisted else (r + 1) // 2
        sine = r % 2 == (1 if twisted else 0) and kappa > 0
        paired = (2 * kappa) % n != 0
        wave = np.sin(kappa * theta) if sine else np.cos(kappa * theta)
        q[:, r] = wave * (np.sqrt(2.0 / n) if paired else np.sqrt(1.0 / n))
    return q


def mode_rings(grid, sector: str) -> list[np.ndarray]:
    """The :func:`ring_transform` of each trig ``phi_p`` mode's ring.

    A mode of harmonic ``m`` closes its ring with ``sigma (-1)^m`` (``sigma``
    the sector sign), so its ring is twisted where that is -1.
    """
    sigma = {"even": 1, "odd": -1}[sector]
    ms = (np.arange(2 * ((grid.n_p - 1) // 2) + 1) + 1) // 2
    rings = {t: ring_transform(grid.n_q_half, t) for t in (False, True)}
    return [rings[sigma * (-1) ** int(m) < 0] for m in ms]


def momentum_transform(grid, sector: str) -> np.ndarray:
    """Dense block-diagonal map ``Q`` from the momentum basis to the position basis.

    The library's operator is ``Q^T (position operator) Q``.  Dense, so only
    for small grids.
    """
    return scipy.linalg.block_diag(*mode_rings(grid, sector))


def position_samples(grid, vec: np.ndarray, sector: str) -> np.ndarray:
    """Wavefunction samples of a sector coefficient vector on the position grid.

    ``vec`` runs over (trig ``phi_p`` mode, ``phi_q`` momentum row) like the
    sector operator, and is first taken to ring sites by the
    :func:`mode_rings` transforms.  The modes are those of
    ``sector_hamiltonian_dense``.  The result is sampled on ``(phi_p_axis,
    grid.phi_q_half_axis)`` and an l2-unit ``vec`` comes out unit-normalised
    under the quadrature weight ``h_p * grid.h_q_half`` (``phi_p_axis`` and
    ``h_p`` of :func:`torus_axes`).
    """
    index = np.arange(2 * ((grid.n_p - 1) // 2) + 1)
    phase = np.outer(torus_axes(grid)[0], (index + 1) // 2)
    basis = np.where(index % 2 == 0, np.sin(phase), np.cos(phase)) / np.sqrt(np.pi)
    basis[:, 0] = 1.0 / np.sqrt(2.0 * np.pi)
    coeffs = vec.reshape(index.size, grid.n_q_half)
    sites = np.array([ring @ row for ring, row in zip(mode_rings(grid, sector), coeffs)])
    return basis @ sites / np.sqrt(grid.h_q_half)


def position_element(
    grid, profile: np.ndarray, a: np.ndarray, b: np.ndarray, sector: str
) -> float:
    """``<a| profile |b>`` by grid quadrature of the position samples of ``a`` and ``b``.

    ``profile`` is sampled on the same ``(phi_p, phi_q)`` meshgrid.  For a
    profile of at most first harmonic in ``phi_p`` the ``phi_p`` quadrature
    is exact while the states use harmonics up to ``(n_p - 2)/2``: always at
    even ``n_p``, and at odd ``n_p`` for a truncated solve.
    """
    weight = torus_axes(grid)[1] * grid.h_q_half
    samples_a, samples_b = (position_samples(grid, v, sector) for v in (a, b))
    return float(np.sum(samples_a * profile * samples_b) * weight)


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


def gain_map(rho: np.ndarray, g_tau: float) -> np.ndarray:
    """Cavity state after one transit of an excited emitter, traced over it.

    Closed form on the Fock grid::

        (M rho)_{nm} = cos(g_tau sqrt(n+1)) cos(g_tau sqrt(m+1)) rho_{nm}
                     + sin(g_tau sqrt(n))   sin(g_tau sqrt(m))   rho_{n-1,m-1}

    Validated against the joint-space matrix exponential of
    :func:`joint_gain_oracle`.  Population sitting on the top Fock level
    cannot emit into the (truncated) next level, so it is flagged with a
    ``TruncationWarning``.
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


def thermal_state(n_th: float, n_max: int) -> np.ndarray:
    q = n_th / (n_th + 1.0)
    diag = (1.0 - q) * q ** np.arange(n_max + 1)
    return np.diag(diag / diag.sum()).astype(complex)


def dissipator(rho: np.ndarray, n_th: float) -> np.ndarray:
    """Thermal-bath Lindblad term with downward and upward photon exchange.

    Implemented with shift-and-scale operations (exact, no matrix products),
    using the Lindblad form of the *truncated* ladder operators: the upward
    anticommutator weight is ``diag(1, .., n_max, 0)`` — the top Fock level
    is a reflecting boundary, not a leak — so the trace is annihilated
    identically for any input.  The mean-photon flow ``-(<n> - n_th)``
    is exact whenever the top level is unpopulated.
    """
    size = rho.shape[0]
    n = np.arange(size, dtype=float)
    root = np.sqrt(n[1:])  # sqrt(1..n_max)

    down = np.zeros_like(rho)
    down[:-1, :-1] = np.outer(root, root) * rho[1:, 1:]
    anti_down = 0.5 * (n[:, None] + n[None, :]) * rho

    up = np.zeros_like(rho)
    up[1:, 1:] = np.outer(root, root) * rho[:-1, :-1]
    up_weight = n + 1.0
    up_weight[-1] = 0.0
    anti_up = 0.5 * (up_weight[:, None] + up_weight[None, :]) * rho

    return (n_th + 1.0) * (down - anti_down) + n_th * (up - anti_up)


def generator(rho: np.ndarray, cfg: MaserConfig) -> np.ndarray:
    """Right-hand side ``drho/dt`` of the master equation."""
    r_a = cfg.n_t
    if r_a == 0.0:
        return dissipator(rho, cfg.n_th)
    first = gain_map(rho, cfg.g_tau) - rho
    second = gain_map(first, cfg.g_tau) - first
    return r_a * first - 0.5 * r_a * second + dissipator(rho, cfg.n_th)


def probed_diagonal_generator(cfg, second_order=True, d=0) -> np.ndarray:
    """Generator on the ``d``-th diagonal of rho, probed column by column.

    Applies the matrix-form gain map and dissipator to one basis matrix per
    element of that diagonal and reads the diagonal back out.  Row and
    column ``i`` stand for ``rho_{i+d, i}`` (``d >= 0``) or ``rho_{i, i-d}``.
    With ``second_order=False`` only the Poissonian ``r_a (M - 1) + L`` is
    kept, the reference for the two-term atomic recursion.
    """
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
    size = rho0.shape[0]
    superop = np.empty((size * size, size * size), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for col in range(size * size):
            basis = np.zeros(size * size, dtype=complex)
            basis[col] = 1.0
            superop[:, col] = generator(basis.reshape(size, size), cfg).ravel()
    return (expm(superop * t) @ rho0.astype(complex).ravel()).reshape(size, size)
