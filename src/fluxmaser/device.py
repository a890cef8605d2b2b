"""Order-of-magnitude device estimates tying the circuit to a real cavity.

All conversions start from two circuit outputs — the working gap (in E_J)
and the transition amplitude ``t_01`` — plus the cavity geometry, and use
CODATA constants throughout.  Angular and cyclic frequencies are kept
explicit: the coupling ``g`` is returned in rad/s (displayed as angular
MHz), the photon lifetime is ``Q/(2 pi nu)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CavityParams",
    "DeviceReport",
    "cavity_frequency",
    "wavelength",
    "vacuum_flux_ratio",
    "coupling_rate",
    "interaction_time",
    "photon_lifetime",
    "inductance_check",
    "sigma_z_term_estimate",
    "device_report",
    "format_device_report",
]

# CODATA 2022 values as scipy.constants gives them, written out so that a
# CLI process need not import scipy.constants; a test pins them to scipy's
SPEED_OF_LIGHT = 299792458.0  # m/s
epsilon_0 = 8.8541878188e-12  # F/m
h = 6.62607015e-34  # J s
FLUX_QUANTUM = 2.0678338484619295e-15  # Wb


@dataclass(frozen=True)
class CavityParams:
    """Cavity and SQUID geometry.

    ``area``: cavity cross-section A in m^2; ``height``: gap h_cav between
    the conducting plates in m; ``quality``: loaded Q; ``squid_area``: SQUID
    loop area S_q in m^2 (the pickup for the microwave flux).
    """

    area: float = 2.25e-4
    height: float = 1e-6
    quality: float = 1e6
    squid_area: float = math.pi * (16e-6) ** 2

    def __post_init__(self) -> None:
        for name in ("area", "height", "quality", "squid_area"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


def cavity_frequency(gap_over_ej: float, ej_freq: float) -> float:
    """Photon frequency (GHz) resonant with a circuit gap given in E_J units."""
    if ej_freq <= 0:
        raise ValueError(f"ej_freq must be positive, got {ej_freq}")
    return gap_over_ej * ej_freq


def wavelength(nu_ghz: float) -> float:
    """Free-space wavelength in metres for a frequency in GHz."""
    return SPEED_OF_LIGHT / (nu_ghz * 1e9)


def vacuum_flux_ratio(cavity: CavityParams, nu_ghz: float) -> float:
    """Vacuum microwave flux through the SQUID loop in units of Phi_0.

    The zero-point magnetic field amplitude of a plate cavity of volume
    ``A * h_cav`` is ``sqrt(h nu / (eps_0 c^2 A h_cav))``; threading the
    SQUID area and dividing by the flux quantum gives the dimensionless
    drive amplitude.  Linear in the SQUID area, inverse-square-root in the
    cavity cross-section.
    """
    nu = nu_ghz * 1e9
    b_field = math.sqrt(h * nu / (epsilon_0 * SPEED_OF_LIGHT**2 * cavity.area * cavity.height))
    return b_field * cavity.squid_area / FLUX_QUANTUM


def coupling_rate(t_01: float, phi_ratio: float, ej_freq: float) -> float:
    """Emitter-cavity coupling g in rad/s.

    ``g = t_01 * (2 pi E_J / hbar) * (Phi_w0/Phi_0)``; with E_J = h * ej_freq
    this is ``t_01 * (2 pi)^2 * ej_freq * phi_ratio``.
    """
    return t_01 * (2.0 * math.pi) ** 2 * (ej_freq * 1e9) * phi_ratio


def interaction_time(g_rad_s: float, n_t: float = 1.0, phase: float = 1.4 * math.pi) -> float:
    """Transit time (s) that accumulates the target Rabi phase g*tau*sqrt(n_t)."""
    return phase / (g_rad_s * math.sqrt(n_t))


def photon_lifetime(nu_ghz: float, quality: float) -> float:
    """Cavity energy decay time ``Q / (2 pi nu)`` in seconds."""
    return quality / (2.0 * math.pi * nu_ghz * 1e9)


@dataclass(frozen=True)
class InductanceReport:
    i_c: float
    l_j: float
    l_loop: float


def inductance_check(ej_freq: float, beta_l: float) -> InductanceReport:
    """Critical current and loop inductance consistency numbers.

    ``I_c = 2 pi E_J / Phi_0``; ``L_J = Phi_0 / (2 pi I_c)``; the loop
    inductance is ``beta_L * L_J``.  Small ``beta_L`` justifies dropping the
    loop-inductance term from the circuit Hamiltonian.
    """
    e_j = h * ej_freq * 1e9
    i_c = 2.0 * math.pi * e_j / FLUX_QUANTUM
    l_j = FLUX_QUANTUM / (2.0 * math.pi * i_c)
    return InductanceReport(i_c=i_c, l_j=l_j, l_loop=beta_l * l_j)


def sigma_z_term_estimate(phi_ratio: float) -> float:
    """Magnitude of the drive's diagonal (dephasing-like) term, in E_J units.

    The microwave flux also shifts the working levels themselves by about
    ``pi * (Phi_w0/Phi_0) * E_J``; compare against the working gap to judge
    whether the off-diagonal coupling dominates.
    """
    return math.pi * phi_ratio


@dataclass(frozen=True)
class DeviceReport:
    nu_ghz: float
    wavelength_m: float
    phi_ratio: float
    g_rad_s: float
    g_mhz: float
    tau_interaction_ns: float
    tau_photon_s: float
    i_c: float
    l_j: float
    l_loop: float
    beta_l: float
    sigma_z_over_ej: float
    sigma_z_over_gap: float


def device_report(
    gap_over_ej: float = 0.05,
    t_01: float = 0.13,
    ej_freq: float = 400.0,
    cavity: CavityParams | None = None,
    *,
    beta_l: float = 0.1,
    n_t: float = 1.0,
    interaction_phase: float = 1.4 * math.pi,
) -> DeviceReport:
    """Assemble the full estimate chain from circuit outputs and geometry.

    A non-finite or non-positive number argument raises ``ValueError``
    naming it.
    """
    inputs = dict(
        gap_over_ej=gap_over_ej, t_01=t_01, ej_freq=ej_freq, beta_l=beta_l, n_t=n_t,
        interaction_phase=interaction_phase,
    )
    for name, value in inputs.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    cavity = cavity or CavityParams()
    nu = cavity_frequency(gap_over_ej, ej_freq)
    phi_ratio = vacuum_flux_ratio(cavity, nu)
    g = coupling_rate(t_01, phi_ratio, ej_freq)
    tau = interaction_time(g, n_t=n_t, phase=interaction_phase)
    inductance = inductance_check(ej_freq, beta_l)
    sigma_z = sigma_z_term_estimate(phi_ratio)
    return DeviceReport(
        nu_ghz=nu,
        wavelength_m=wavelength(nu),
        phi_ratio=phi_ratio,
        g_rad_s=g,
        g_mhz=g / 1e6,
        tau_interaction_ns=tau * 1e9,
        tau_photon_s=photon_lifetime(nu, cavity.quality),
        i_c=inductance.i_c,
        l_j=inductance.l_j,
        l_loop=inductance.l_loop,
        beta_l=beta_l,
        sigma_z_over_ej=sigma_z,
        sigma_z_over_gap=sigma_z / gap_over_ej,
    )


def format_device_report(report: DeviceReport) -> str:
    """Aligned, unit-annotated text rendering of a device report."""
    rows = [
        ("cavity frequency", f"{report.nu_ghz:.4g} GHz"),
        ("wavelength", f"{report.wavelength_m * 100:.4g} cm"),
        ("vacuum flux / flux quantum", f"{report.phi_ratio:.4g}"),
        ("coupling g", f"{report.g_rad_s:.4g} rad/s ({report.g_mhz:.4g} MHz angular)"),
        ("interaction time tau", f"{report.tau_interaction_ns:.4g} ns"),
        ("photon lifetime", f"{report.tau_photon_s * 1e6:.4g} us"),
        ("critical current I_c", f"{report.i_c * 1e6:.4g} uA"),
        ("Josephson inductance L_J", f"{report.l_j * 1e12:.4g} pH"),
        (f"loop inductance (beta_L={report.beta_l:g})", f"{report.l_loop * 1e12:.4g} pH"),
        ("drive sigma_z term", f"{report.sigma_z_over_ej:.4g} E_J"),
        ("  ... relative to working gap", f"{report.sigma_z_over_gap:.3%}"),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)
