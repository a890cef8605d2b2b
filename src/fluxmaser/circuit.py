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
symmetry sector.  ``assemble_hamiltonian`` builds one sector over
(``phi_p`` mode, ``phi_q`` momentum): real trigonometric modes in ``phi_p``,
each carrying a finite-difference ring on the reduced domain ``[-pi, pi)``
whose closing link takes a per-mode sign (the sector condition).  Each ring
is written in its real discrete Fourier basis, integer momenta on an
untwisted ring and half-integer ones on a twisted ring, where the ring
Laplacian is diagonal and the potential's ``phi_q`` terms shift the momentum
by 1 or 1/2.  The ``cos(phi_p)`` part of the potential couples neighbouring
modes.  ``H``, the loop current and ``dH/df_s`` are weightings, by the two
fluxes, of one tagged pattern of parts that depends on neither, so a run
builds that pattern once, and a point weights only the part of it that one
kept block and its halo read.  Spectra and the elements of the loop current and
of ``dH/df_s`` are computed in this basis; the potential and current
profiles, the position-basis assembly, the torus and the position-sampled
states it is checked against live with the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Literal, NamedTuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "CircuitParams",
    "PhaseGrid",
    "HamiltonianOperator",
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


def _ring_momenta(n: int, twisted: bool) -> np.ndarray:
    """Doubled momentum ``2|kappa|`` of each real row of an ``n``-site ring.

    Rows run in ascending ``|kappa|``, cosine before sine: ``1, cos, sin,
    cos 2, ...`` (integer kappa) on an untwisted ring, ``cos 1/2, sin 1/2,
    cos 3/2, ...`` on a twisted one.  The row with ``2|kappa| = n``, on the
    ring whose parity matches ``n``, is the self-paired ``(-1)^j``.
    """
    rows = np.arange(n)
    return 2 * (rows // 2) + 1 if twisted else 2 * ((rows + 1) // 2)


def _ring_product(n: int, twisted: bool, shift: int, sine: bool) -> sp.csr_matrix:
    """Multiplication by ``cos(shift theta/2)`` (``sin`` if ``sine``) between ring rows.

    Maps the rows of a ring of the given twist to those of the ring
    ``shift/2`` away in momentum (the other twist for odd ``shift``).  By
    the product-to-sum rules each row lands on ``kappa +- shift/2`` with
    half weight, folded into ``(-n/2, n/2]`` (on the sites ``kappa`` and
    ``kappa + n`` are one wave) and rescaled by the norms of the two rows:
    ``1/sqrt(n)`` for a self-paired row, ``sqrt(2/n)`` otherwise.
    """
    rows, cols, vals = [], [], []
    for col, p in enumerate(_ring_momenta(n, twisted).tolist()):
        col_sine = col == p and p > 0
        out_sine = sine != col_sine  # cos cos and sin sin give cos, mixed give sin
        for sign in (1, -1):
            # sin a sin b = (cos(b - a) - cos(b + a))/2
            # sin a cos b = (sin(b + a) - sin(b - a))/2
            weight = -0.5 if sine and col_sine == (sign == 1) else 0.5
            q = (p + sign * shift) % (2 * n)
            q = q - 2 * n if q > n else q
            if q < 0:
                q, weight = -q, -weight if out_sine else weight
            if out_sine and q % n == 0:
                continue  # a sine at kappa = 0 or n/2 vanishes on every site
            if (p % n == 0) != (q % n == 0):
                weight *= math.sqrt(0.5) if p % n == 0 else math.sqrt(2.0)
            rows.append(q if out_sine else max(q - 1, 0))
            cols.append(col)
            vals.append(weight)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


class _FixedParts:
    """The flux-free parts of one sector operator, tagged on one sparsity pattern.

    ``H = sum_t w_t P_t`` with the weights ``w`` of :func:`_part_weights`:
    ``P_0`` is the diagonal ``c_p m^2 + c_q (2 - 2 cos(kappa h))/h^2 + 2 +
    2 gamma``; ``P_1 = C`` (from ``sin(theta/2)``, turning a cosine momentum
    row into a sine one) and ``P_2 = S`` (from ``cos(theta/2)``, keeping the
    kind) fill the blocks between modes; ``P_3`` holds the ``cos(theta)``
    entries of every ring.  ``pattern`` (a :class:`_Pattern`) holds every
    part's entries, each tagged with the part it belongs to;
    ``P_0`` and ``P_3`` both have an entry on the diagonal of the
    ``kappa = 1/2`` rows of a twisted ring and of an odd ring's top
    momentum, so there the pattern lists a position twice.  The loop current
    and ``dH/df_s`` are weightings of the same parts, so nothing here
    depends on ``f`` or ``f_s``, and one object serves every point of a
    circuit, grid and sector.  ``row_harmonic`` and ``row_momentum`` give
    each basis row's ``phi_p`` harmonic and ``|kappa|``, and ``harmonics``
    and ``momenta`` the basis caps: its highest harmonic, and the smallest
    integer at or above every row's ``|kappa|``.  The layouts of the kept blocks
    (:meth:`block`) are worked out once per cutoff and kept.  Every array is
    read-only, since the operators of all points share them.
    """

    def __init__(self, params: CircuitParams, grid: PhaseGrid, sector: str) -> None:
        sigma = 1 if sector == "even" else -1
        # harmonic of each mode 1, cos(phi_p), sin(phi_p), cos(2 phi_p), ... up to
        # (n_p - 1)//2; an even n_p drops its unpaired Nyquist harmonic
        ms = (np.arange(2 * ((grid.n_p - 1) // 2) + 1) + 1) // 2
        n_modes, n, h = ms.size, grid.n_q_half, grid.h_q_half
        self.dim = n_modes * n
        self.harmonics, self.momenta = int(ms[-1]), (n + 1) // 2
        # the ring of mode m closes with sigma (-1)^m: twisted where that is -1
        twisted = sigma * (1 - 2 * (ms % 2)) < 0
        flat = np.where(twisted[:, None], _ring_momenta(n, True), _ring_momenta(n, False))
        self.row_harmonic = np.repeat(ms, n)
        self.row_momentum = flat.ravel() / 2.0
        # chain order: the cosine chain (the constant mode and cos(m phi_p), index
        # 0, 1, 3, ...), then the sine chain (index 2, 4, ...), momentum fastest
        chain_modes = np.r_[0, 1:n_modes:2, 2:n_modes:2]
        self.chain = (chain_modes[:, None] * n + np.arange(n)).ravel()

        # cos(phi_p) links each mode to the next harmonic of its kind (index a to
        # a + 2), and the constant mode to cos(phi_p) at index 1
        upper = np.r_[0, 1 : n_modes - 2], np.r_[1, 3:n_modes]
        weights = np.where(upper[0] == 0, 1.0 / math.sqrt(2.0), 0.5)
        ladder = np.r_[upper[0], upper[1]], np.r_[upper[1], upper[0]], np.r_[weights, weights]

        def kron(row_modes, col_modes, weights, ring):
            # entries of sum_i weights_i E(row_modes_i, col_modes_i) (x) ring
            ring = ring.tocoo()
            return (
                (row_modes.astype(np.int32)[:, None] * n + ring.row).ravel(),
                (col_modes.astype(np.int32)[:, None] * n + ring.col).ravel(),
                (weights[:, None] * ring.data).ravel(),
            )

        def across(sine):
            # -2 L (x) (cos or sin of theta/2); L's block (a, b) maps mode b's ring
            # to mode a's, untwisted to twisted or back
            up = _ring_product(n, False, 1, sine)
            pieces = []
            for t, ring in ((False, up), (True, up.T)):
                a, b, w = (x[twisted[ladder[1]] == t] for x in ladder)
                pieces.append(kron(a, b, -2.0 * w, ring))
            return [np.concatenate(x) for x in zip(*pieces)]

        def within(t):
            # cos(theta) on the ring of every mode of twist t
            full = _ring_product(n, t, 2, False)
            modes = np.flatnonzero(twisted == t)
            return kron(modes, modes, np.ones(modes.size), sp.triu(full) + sp.triu(full, 1).T)

        # phi_q = theta - pi on the sites theta_j = h j, so cos(phi_q) = -cos(theta)
        # and cos(pi f + phi_q/2) = sin(pi f) cos(theta/2) + cos(pi f) sin(theta/2)
        laplacian = (2.0 - 2.0 * np.cos(flat * math.pi / n)) / h**2  # kappa h = flat pi/n
        kinetic = params.c_p * ms[:, None] ** 2 + params.c_q * laplacian
        diagonal = np.arange(self.dim, dtype=np.int32)
        pieces = [
            (diagonal, diagonal, kinetic.ravel() + 2.0 + 2.0 * params.gamma),
            across(True),
            across(False),
            [np.concatenate(x) for x in zip(within(False), within(True))],
        ]
        # index-sized tags: a point gathers its weights by them, 3x slower from int8
        tags = np.repeat(np.arange(4, dtype=np.intp), [v.size for *_, v in pieces])
        rows, cols, values = (np.concatenate(x) for x in zip(*pieces))
        del pieces  # release the pieces before the sort copies every entry
        # stable, so a position listed twice keeps P_0's entry before P_3's
        order = np.lexsort((cols, rows))
        self.pattern = _Pattern(*_read_only(
            cols[order], _indptr(rows[order], self.dim), values[order], tags[order]
        ))
        del rows, cols, values, tags, order
        _read_only(self.row_harmonic, self.row_momentum, self.chain)

        # position-basis pieces of the spectral floor and of the gate's scale
        self.phi_q = grid.phi_q_half_axis
        self.cos_phi_q = np.cos(self.phi_q)
        self.mode_row_base = params.c_p * ms * ms + 4.0 * params.c_q / h**2
        self.ladder_sums = np.bincount(ladder[0], weights=ladder[2], minlength=n_modes)
        self.blocks: dict[tuple[int, int], _Block] = {}

    def block(self, harmonics: int, momenta: int) -> _Block:
        """Layout of the kept block of the cut ``M = harmonics``, ``K = momenta``.

        The cut keeps the ellipse ``(m/M)^2 + (|kappa|/K)^2 <= 1``: the
        starting cutoffs put the harmonic and the momentum estimate of the
        low states' coefficients, each a Gaussian, at the coefficient floor
        at ``M`` and ``K``, so their product is at the floor on the ellipse,
        not at the corners of the rectangle ``m <= M``, ``|kappa| <= K``.
        The cut at both basis caps keeps every row.  Worked out once per
        cutoff and kept; see :class:`_Block`.
        """
        key = (harmonics, momenta)
        if key not in self.blocks:
            # m/M and |kappa|/K, both times 2 M K, in integers, so that a row on
            # the ellipse is kept exactly
            u = 2 * momenta * self.row_harmonic
            v = harmonics * (2.0 * self.row_momentum).astype(np.int64)
            keep = u * u + v * v <= (2 * harmonics * momenta) ** 2
            keep |= key == (self.harmonics, self.momenta)
            kept = self.chain[keep[self.chain]]
            pattern = self.pattern
            rows = _entry_rows(pattern.indptr)
            entries = np.flatnonzero(keep[pattern.cols])
            reached = np.zeros(self.dim, dtype=bool)
            reached[rows[entries]] = True
            halo = np.flatnonzero(reached & ~keep)
            position = np.zeros(self.dim, dtype=np.intp)
            position[kept] = np.arange(kept.size)
            position[halo] = np.arange(kept.size, kept.size + halo.size)
            # by layout row, stably, so each row keeps the pattern's column order
            entries = entries[np.argsort(position[rows[entries]], kind="stable")]
            i, j = position[rows[entries]], position[pattern.cols[entries]]

            def part(select, n_rows):
                # the selected entries, on the layout's rows and kept columns
                return _Pattern(*_read_only(
                    j[select].astype(np.int32), _indptr(i[select], n_rows),
                    pattern.values[entries[select]], pattern.tags[entries[select]],
                ))

            end = np.searchsorted(i, kept.size)  # the kept rows' entries come first
            band = np.flatnonzero(i[:end] <= j[:end])
            kd = int(np.max(j[band] - i[band]))
            rank = np.zeros(kept.size, dtype=np.intp)
            rank[np.argsort(kept)] = np.arange(kept.size)
            tags = pattern.tags[entries[:end]]
            self.blocks[key] = _Block(
                *_read_only(np.r_[kept, halo], rank, u[halo] >= v[halo], band,
                            j[band] * (kd + 1) + kd + i[band] - j[band]),
                columns=part(slice(None), kept.size + halo.size),
                current=part(np.flatnonzero((tags == 1) | (tags == 2)), kept.size),
                dh_dfs=part(np.flatnonzero(tags == 3), kept.size),
                kept=kept.size,
                kd=kd,
            )
        return self.blocks[key]


class _Pattern(NamedTuple):
    """Entries of tagged parts on a CSR pattern ``(cols, indptr)``: entry
    ``e`` holds ``values[e]`` of the part ``tags[e]``."""

    cols: np.ndarray
    indptr: np.ndarray
    values: np.ndarray
    tags: np.ndarray


class _Block(NamedTuple):
    """The entries of one kept block's columns: the block and its halo.

    ``rows`` lists the kept rows, ``(m/M)^2 + (|kappa|/K)^2 <= 1`` (every
    row at the basis caps), in chain order (the first ``kept`` of them),
    then the halo: every other row an entry of a kept column reaches, in
    basis order.  ``rank`` gives each kept row's place among the kept rows
    in basis order, and ``crosses`` marks the halo rows that lie further out
    in harmonic than in momentum, ``m/M >= |kappa|/K``, the rows a wider
    ``M`` reaches first.  The ladder links a mode only to the next
    mode of its chain and the ``phi_q`` terms shift the momentum by at most
    1 (or fold it at the ring's top), so the halo is one shell deep, no
    entry joins the two chains, and every kept entry lies within one mode's
    rows plus 2 of the diagonal.  ``columns`` holds those entries over
    ``rows``, ``current`` the kept rows' entries of ``C`` and ``S`` and
    ``dh_dfs`` those of ``cos(theta)``; each counts columns among the kept
    rows and keeps the full pattern's column order within a row.  ``band``
    picks the entries of ``columns`` on or above the kept block's diagonal,
    and ``slots`` gives each one's slot in the row-major ``(kept, kd + 1)``
    array whose transpose is LAPACK's upper band storage.
    """

    rows: np.ndarray
    rank: np.ndarray
    crosses: np.ndarray
    band: np.ndarray
    slots: np.ndarray
    columns: _Pattern
    current: _Pattern
    dh_dfs: _Pattern
    kept: int
    kd: int


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _entry_rows(indptr: np.ndarray) -> np.ndarray:
    """Row index of each entry of a CSR pattern."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int32), np.diff(indptr))


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of entries whose (sorted) row indices are ``rows``."""
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))]).astype(np.int32)


# one entry: a run solves every point on one circuit, grid and sector
@lru_cache(maxsize=1)
def _fixed_parts(gamma: float, ej_over_ec: float, grid: PhaseGrid, sector: str) -> _FixedParts:
    return _FixedParts(CircuitParams(gamma=gamma, ej_over_ec=ej_over_ec), grid, sector)


def _part_weights(params: CircuitParams) -> np.ndarray:
    """Weights of the parts tagged 0-3 (``P_0``, ``C``, ``S``, ``cos(theta)``) at
    the fluxes of ``params``: row 0 gives ``H``, row 1 the loop current
    ``(sin(pi f) C - cos(pi f) S)/2 = -dH/d(pi f)/2`` and row 2 ``dH/df_s``."""
    cos_f, sin_f = math.cos(math.pi * params.f), math.sin(math.pi * params.f)
    return np.array([
        [1.0, cos_f, sin_f, 2.0 * params.gamma * math.cos(math.pi * params.f_s)],
        [0.0, 0.5 * sin_f, -0.5 * cos_f, 0.0],
        [0.0, 0.0, 0.0, -2.0 * math.pi * params.gamma * math.sin(math.pi * params.f_s)],
    ])


def _weighted(pattern: _Pattern, weights: np.ndarray, cols: int) -> sp.csr_matrix:
    """A tagged pattern with each entry scaled by the weight of its tag, as a
    CSR matrix of ``cols`` columns.

    A position the pattern lists twice stays two entries, summed by every
    product in the pattern's order, and a part weighted 0 stays as zeros.
    """
    data = pattern.values * weights[pattern.tags]
    return sp.csr_matrix((data, pattern.cols, pattern.indptr), shape=(pattern.indptr.size - 1, cols))


@dataclass
class HamiltonianOperator:
    """Sparse symmetric real sector Hamiltonian in units of E_J.

    ``matrix`` acts on coefficient vectors over (trigonometric ``phi_p``
    mode, real ``phi_q`` momentum row), momentum fastest; an l2-unit vector
    is a unit-normalised wavefunction.  It is built on first use, as a
    weighting of the run's tagged parts; a solve reads only :meth:`block`
    and, on the kept block, :meth:`elements`: the loop current
    ``-cos(phi_p) sin(pi f + phi_q/2)`` and ``dH/df_s`` in the same basis.
    ``lower_bound`` is a floor on the spectrum: every eigenvalue of
    ``matrix`` is at least this value.  ``scale`` is the operator's infinity
    norm in the position basis (mode, ring site), the scale of the
    eigensolver's residual gate.
    Which rows carry half-integer momenta depends on ``sector``.
    """

    params: CircuitParams
    grid: PhaseGrid
    sector: str
    lower_bound: float
    scale: float
    parts: _FixedParts = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.parts.dim

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        return _weighted(self.parts.pattern, _part_weights(self.params)[0], self.dimension)

    @property
    def harmonics(self) -> int:
        """Highest ``phi_p`` harmonic of the basis."""
        return self.parts.harmonics

    @property
    def momenta(self) -> int:
        """Momentum cap of the basis: the smallest integer at or above every row's ``|kappa|``."""
        return self.parts.momenta

    def block(self, harmonics: int, momenta: int) -> tuple[np.ndarray, sp.csr_matrix, _Block]:
        """The kept block of the rows with ``(m/harmonics)^2 + (|kappa|/momenta)^2
        <= 1``, every row when both are at the basis caps.

        Returns the block in LAPACK's upper band storage, a Fortran-ordered
        ``(kd + 1, kept)`` array whose entry ``(kd + i - j, j)`` is the
        block's ``(i, j)``; ``H`` on the block's columns, over the rows of
        the layout (the kept rows, then their halo); and the layout
        (:class:`_Block`).  The kept rows run in chain order: the cosine
        chain of ``phi_p`` modes (the constant mode, then ``cos(m phi_p)``),
        then the sine chain, mode by mode with momentum fastest.
        """
        layout = self.parts.block(harmonics, momenta)
        columns = _weighted(layout.columns, _part_weights(self.params)[0], layout.kept)
        # summed, since P_0 and P_3 share a slot on some diagonal rows
        band = np.bincount(
            layout.slots, weights=columns.data[layout.band], minlength=layout.kept * (layout.kd + 1)
        )
        return band.reshape(layout.kept, layout.kd + 1).T, columns, layout

    def elements(self, layout: _Block) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """``current`` and ``dh_dfs`` on the kept block of ``layout``, in its row order."""
        weights = _part_weights(self.params)
        return (
            _weighted(layout.current, weights[1], layout.kept),
            _weighted(layout.dh_dfs, weights[2], layout.kept),
        )


def assemble_hamiltonian(
    params: CircuitParams,
    grid: PhaseGrid,
    *,
    sector: Literal["even", "odd"] = "even",
) -> HamiltonianOperator:
    """Build the sparse Hamiltonian of one symmetry sector.

    The operator is exact in ``phi_p`` (trigonometric modes up to the grid's
    Nyquist harmonic) and second order in ``phi_q`` (3-point finite
    differences on the ``n_q_half``-point ring of step ``h``).  In position
    form, over (mode of harmonic ``m``, ring site ``phi_j = -pi + h j``), it
    is the Kronecker sum::

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

    Each ring is then written in its real discrete Fourier basis over
    ``theta_j = phi_j + pi`` (an exact, orthogonal change of basis): integer
    momenta ``kappa`` where ``wrap = 1``, half-integer where it is -1.  The
    ring Laplacian becomes the diagonal ``c_q (2 - 2 cos(kappa h))/h^2``,
    ``cos(phi_q)`` a +-1 shift in ``kappa``, and ``cos(pi f + phi_q/2)`` and
    ``sin(pi f + phi_q/2)`` +-1/2 shifts between twisted and untwisted
    rings.  So ``H = P_0 + cos(pi f) C + sin(pi f) S + 2 gamma cos(pi f_s)
    cos(theta)``, a weighting of four tagged parts on one pattern that
    depends on neither flux; the parts are built once per ``(circuit, grid,
    sector)``, and the last ones built are kept, so every point of a run
    shares them.  Assembly itself builds no matrix: it computes the two
    closed forms below.  ``matrix`` weights the whole pattern on first use;
    :meth:`HamiltonianOperator.block` weights one kept block and its halo,
    and :meth:`HamiltonianOperator.elements` the loop current and
    ``dH/df_s`` on that block.

    ``lower_bound`` is ``min(U(phi_q) - 2 |cos(pi f + phi_q/2)|)`` over the
    ring sites, the grid minimum of the potential at ``cos(phi_p) = +-1``,
    and ``scale`` the position-basis infinity norm.  The loop current is
    ``-L (x) diag(sin(pi f + phi_q/2))``, the parts weighted by ``(0, sin(pi
    f)/2, -cos(pi f)/2, 0)``, and ``dH/df_s`` the diagonal ``2 pi gamma
    sin(pi f_s) cos(phi_q)`` on every mode, the ``cos(theta)`` part weighted
    by ``-2 pi gamma sin(pi f_s)``; both are in the momentum basis.
    """
    if sector not in ("even", "odd"):
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")
    parts = _fixed_parts(params.gamma, params.ej_over_ec, grid, sector)
    g_abs = np.abs(np.cos(math.pi * params.f + parts.phi_q / 2.0))
    u_sites = 2.0 + 2.0 * params.gamma * (1.0 - math.cos(math.pi * params.f_s) * parts.cos_phi_q)
    # H >= lower_bound: the kinetic part is positive semidefinite (c_p m^2 >= 0,
    # and the ring Laplacian with either closing sign is >= 0), and L is a
    # principal submatrix of the cos(phi_p) multiplication operator in an
    # orthonormal basis, so ||L||_2 <= 1 and each site's potential block
    # U - 2 g L is >= U - 2|g|.  The position-basis row of (mode a, site j)
    # sums to c_p m^2 + 4 c_q/h^2 + U_j + 2 |g_j| sum_b |L_ab|.
    return HamiltonianOperator(
        params=params,
        grid=grid,
        sector=sector,
        lower_bound=float(np.min(u_sites - 2.0 * g_abs)),
        scale=float(
            np.max(
                (parts.mode_row_base[:, None] + u_sites)
                + 2.0 * parts.ladder_sums[:, None] * g_abs
            )
        ),
        parts=parts,
    )
