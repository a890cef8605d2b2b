"""Order-of-magnitude device estimates tying the circuit to a real cavity.

All conversions start from two circuit outputs — the working gap (in E_J)
and the transition amplitude ``t_01`` — plus the cavity geometry, and use
CODATA constants throughout.  Angular and cyclic frequencies are kept
explicit: the coupling ``g`` is returned in rad/s (displayed as angular
MHz), the photon lifetime is ``Q/(2 pi nu)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "CavityParams",
    "DeviceReport",
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


@dataclass(frozen=True)
class DeviceReport:
    """``device_report.csv`` has one column per field, in this order, named
    by the field's ``csv`` metadata or else by the field."""

    nu_ghz: float
    wavelength_m: float
    phi_ratio: float = field(metadata={"csv": "phi_w0_over_phi0"})
    g_rad_s: float
    g_mhz: float
    tau_interaction_ns: float
    tau_photon_s: float
    i_c: float = field(metadata={"csv": "i_c_amp"})
    l_j: float = field(metadata={"csv": "l_j_henry"})
    l_loop: float = field(metadata={"csv": "l_loop_henry"})
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
    nu = gap_over_ej * ej_freq
    # zero-point field of a plate cavity of volume A * h_cav, threaded through
    # the SQUID loop: linear in its area, inverse-square-root in A
    b_field = math.sqrt(
        h * (nu * 1e9) / (epsilon_0 * SPEED_OF_LIGHT**2 * cavity.area * cavity.height)
    )
    phi_ratio = b_field * cavity.squid_area / FLUX_QUANTUM
    # g = t_01 (2 pi E_J / hbar) (Phi_w0/Phi_0) with E_J = h * ej_freq
    g = t_01 * (2.0 * math.pi) ** 2 * (ej_freq * 1e9) * phi_ratio
    # the transit that accumulates the Rabi phase g tau sqrt(n_t)
    tau = interaction_phase / (g * math.sqrt(n_t))
    # I_c = 2 pi E_J / Phi_0; a small beta_L justifies dropping the loop
    # inductance from the circuit Hamiltonian
    i_c = 2.0 * math.pi * (h * ej_freq * 1e9) / FLUX_QUANTUM
    l_j = FLUX_QUANTUM / (2.0 * math.pi * i_c)
    # the drive also shifts the working levels by about pi (Phi_w0/Phi_0) E_J
    sigma_z = math.pi * phi_ratio
    return DeviceReport(
        nu_ghz=nu,
        wavelength_m=SPEED_OF_LIGHT / (nu * 1e9),
        phi_ratio=phi_ratio,
        g_rad_s=g,
        g_mhz=g / 1e6,
        tau_interaction_ns=tau * 1e9,
        tau_photon_s=cavity.quality / (2.0 * math.pi * nu * 1e9),
        i_c=i_c,
        l_j=l_j,
        l_loop=beta_l * l_j,
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
