"""Steady-state photon statistics of the single-emitter maser.

Two independent routes to the stationary photon-number distribution:

* ``steady_state_sqc`` — the three-term recursion for a regularly re-armed
  circuit emitter (each pump cycle injects exactly one inverted emitter);
* ``steady_state_atomic`` — the classic detailed-balance recursion for
  Poissonian (random-arrival) pumping.

Both close to the thermal (geometric) distribution when the coupling is
switched off.  ``n_th`` is the thermal occupancy of the cavity bath, ``n_t``
the number of emitter cycles per cavity photon lifetime, and
``g_tau = g * tau`` the accumulated Rabi phase of one transit, so the pump
parameter of the regular maser is ``tau_int = g_tau * sqrt(n_t)``.
``S(n) = sin^2(g_tau * sqrt(n))`` is the emission probability of one transit
with ``n`` photons already present, zero at trapping numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvariantViolation

__all__ = [
    "MaserConfig",
    "PhotonDistribution",
    "steady_state_sqc",
    "steady_state_atomic",
    "distribution_moments",
]

N_MAX_CEILING = 4096
TAIL_TOL = 1e-10
INSTABILITY_FACTOR = 1e6
CLAMPED_MASS_LIMIT = 1e-4


@dataclass(frozen=True)
class MaserConfig:
    """Operating point of the maser.

    ``n_t`` may be zero (no pumping: the bath alone fixes the steady state);
    negative or non-finite values are rejected, as for ``n_th`` and
    ``g_tau``.
    """

    n_th: float = 0.1
    n_t: float = 1.0
    g_tau: float = 1.4 * math.pi
    n_max: int = 256

    def __post_init__(self) -> None:
        for name in ("n_th", "n_t", "g_tau"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.n_max < 4:
            raise ValueError(f"n_max must be >= 4, got {self.n_max}")

    @classmethod
    def from_interaction_time(
        cls, n_t: float, tau_int: float, *, n_th: float = 0.1, n_max: int = 256
    ) -> "MaserConfig":
        """Build a config from the ``(n_t, tau_int)`` pair used in sweeps."""
        if n_t <= 0:
            raise ValueError("from_interaction_time needs n_t > 0 to fix g_tau")
        return cls(n_th=n_th, n_t=n_t, g_tau=tau_int / math.sqrt(n_t), n_max=n_max)


@dataclass
class PhotonDistribution:
    """Normalized photon-number distribution ``p[0..n_max]`` plus health flags.

    ``provenance`` records which route produced it (``recursion-sqc``,
    ``recursion-atomic`` or ``master-equation``).  ``unstable`` means the
    unnormalized three-term sqc recursion grew beyond a millionfold of its
    seed, or more than ``CLAMPED_MASS_LIMIT`` of weight had to be clamped;
    ``truncation_limited`` means weight is still visible at the top of the
    Fock window.  ``clamped_count`` and ``clamped_mass`` give the number and
    the total weight (in units of ``p``) of the negative components clamped
    to zero.  ``residual`` is the master-equation route's ``max |G p|``
    before clamping (``None`` for the recursions).
    """

    p: np.ndarray
    provenance: str
    unstable: bool = False
    truncation_limited: bool = False
    clamped_count: int = 0
    clamped_mass: float = 0.0
    residual: float | None = None

    @property
    def n_max(self) -> int:
        return self.p.size - 1

    def __post_init__(self) -> None:
        # written so that NaN fails every check
        total = float(self.p.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"distribution sums to {total!r}, not 1")
        if not self.p.min() >= -1e-12:
            raise ValueError(f"negative component {self.p.min():.3e} below tolerance")


def _finalize(raw: np.ndarray, provenance: str) -> PhotonDistribution:
    if not np.all(np.isfinite(raw)):
        raise InvariantViolation(f"{provenance}: non-finite unnormalized distribution (overflow)")
    negative = raw[raw < 0]
    raw = np.clip(raw, 0.0, None)
    total = raw.sum()
    if not 0.0 < total < math.inf:
        raise InvariantViolation(f"{provenance}: unnormalized mass {total!r} cannot be normalized")
    p = raw / total
    # re-normalize once more to push the float sum onto 1 exactly where possible
    p = p / p.sum()
    return PhotonDistribution(
        p=p,
        provenance=provenance,
        truncation_limited=bool(p[-1] >= TAIL_TOL),
        clamped_count=negative.size,
        clamped_mass=float((-negative).sum() / total),
    )


def _sqc_raw(cfg: MaserConfig) -> tuple[np.ndarray, bool]:
    q = cfg.n_th / (cfg.n_th + 1.0)
    n_max = cfg.n_max
    p = np.zeros(n_max + 1)
    p[0] = 1.0
    s_prev = 0.0  # S(0)
    for n in range(n_max):
        s_next = math.sin(cfg.g_tau * math.sqrt(n + 1.0)) ** 2
        denom = 2.0 * (cfg.n_th + 1.0) * (n + 1.0)
        gain = q + 2.0 * cfg.n_t * s_next * (1.0 + s_next / 2.0) / denom
        loss = cfg.n_t * s_next * s_prev / denom
        p[n + 1] = gain * p[n] - (loss * p[n - 1] if n >= 1 else 0.0)
        s_prev = s_next
    unstable = bool(np.max(np.abs(p)) > INSTABILITY_FACTOR * p[0])
    return p, unstable


def _atomic_raw(cfg: MaserConfig) -> tuple[np.ndarray, bool]:
    p = np.zeros(cfg.n_max + 1)
    p[0] = 1.0
    for n in range(1, cfg.n_max + 1):
        s_n = math.sin(cfg.g_tau * math.sqrt(float(n))) ** 2
        p[n] = p[n - 1] * (cfg.n_th * n + cfg.n_t * s_n) / ((cfg.n_th + 1.0) * n)
    # a product of non-negative factors neither cancels nor clamps, so growth
    # is no sign of trouble; an overflow is caught by _finalize
    return p, False


def _run(builder, cfg: MaserConfig, provenance: str, auto_extend: bool) -> PhotonDistribution:
    current = cfg
    while True:
        # an overflow is reported by _finalize's non-finite check
        with np.errstate(over="ignore", invalid="ignore"):
            raw, grew = builder(current)
        dist = _finalize(raw, provenance)
        # a recursion that had to clamp away real weight has gone unstable;
        # the count is no guide, cancellation noise in the tail clamps freely
        dist.unstable = grew or dist.clamped_mass > CLAMPED_MASS_LIMIT
        if not (auto_extend and dist.truncation_limited and current.n_max < N_MAX_CEILING):
            return dist
        current = replace(current, n_max=min(2 * current.n_max, N_MAX_CEILING))


def steady_state_sqc(cfg: MaserConfig, *, auto_extend: bool = True) -> PhotonDistribution:
    """Stationary distribution under regular (one emitter per cycle) pumping.

    Seeded at ``p_0 = 1`` and grown upward by the three-term recursion

        p_{n+1} = [ n_th/(n_th+1)
                    + 2 n_t S(n+1) (1 + S(n+1)/2) / (2 (n_th+1)(n+1)) ] p_n
                  - n_t S(n+1) S(n) / (2 (n_th+1)(n+1)) p_{n-1}

    then normalized.  ``auto_extend`` doubles ``n_max`` (up to 4096) while
    probability is still visible at the truncation edge.
    """
    return _run(_sqc_raw, cfg, "recursion-sqc", auto_extend)


def steady_state_atomic(cfg: MaserConfig, *, auto_extend: bool = True) -> PhotonDistribution:
    """Stationary distribution under random (Poissonian) pumping.

    Detailed balance between neighbouring photon numbers gives the one-term
    recursion ``p_n = p_{n-1} (n_th n + n_t S(n)) / ((n_th+1) n)``.
    """
    return _run(_atomic_raw, cfg, "recursion-atomic", auto_extend)


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float
    fano: float


def distribution_moments(dist: PhotonDistribution) -> Moments:
    """Mean, variance and Fano factor of a photon-number distribution."""
    n = np.arange(dist.p.size, dtype=float)
    mean = float(np.dot(n, dist.p))
    variance = float(np.dot(n * n, dist.p) - mean * mean)
    fano = variance / mean if mean > 0 else math.nan
    return Moments(mean=mean, variance=variance, fano=fano)
