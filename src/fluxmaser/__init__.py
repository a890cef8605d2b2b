"""Flux-tunable superconducting-circuit micromaser simulation library.

Layers, bottom to top:

- :mod:`fluxmaser.circuit` — phase-space Hamiltonian of the flux-biased loop;
- :mod:`fluxmaser.spectrum` — eigenpairs;
- :mod:`fluxmaser.transitions` — per-point records of microwave amplitudes
  and adiabatic control;
- :mod:`fluxmaser.maser` — steady-state photon statistics (two recursions);
- :mod:`fluxmaser.lindblad` — master-equation engine and nullspace oracle;
- :mod:`fluxmaser.device` — physical device estimates;
- :mod:`fluxmaser.config` / :mod:`fluxmaser.cli` — reproducible batch runs.
"""

__version__ = "0.1.0"

from .circuit import (
    CircuitParams,
    HamiltonianOperator,
    PhaseGrid,
    assemble_hamiltonian,
    circulating_current,
    effective_alpha,
    potential,
)
from .device import CavityParams, DeviceReport, device_report
from .lindblad import evolve, gain_map, steady_state_nullspace
from .maser import (
    MaserConfig,
    PhotonDistribution,
    distribution_moments,
    rabi_s,
    steady_state_atomic,
    steady_state_sqc,
)
from .spectrum import EigenSpectrum, lowest_eigenpairs
from .transitions import (
    PointRecord,
    adiabatic_k,
    adiabatic_rate_check,
    point_record,
    pumping_feasibility,
    relative_relaxation,
    transition_element,
)

__all__ = [
    "__version__",
    "CircuitParams",
    "PhaseGrid",
    "HamiltonianOperator",
    "assemble_hamiltonian",
    "potential",
    "circulating_current",
    "effective_alpha",
    "EigenSpectrum",
    "lowest_eigenpairs",
    "PointRecord",
    "point_record",
    "transition_element",
    "adiabatic_k",
    "adiabatic_rate_check",
    "pumping_feasibility",
    "relative_relaxation",
    "MaserConfig",
    "PhotonDistribution",
    "rabi_s",
    "steady_state_sqc",
    "steady_state_atomic",
    "distribution_moments",
    "gain_map",
    "evolve",
    "steady_state_nullspace",
    "CavityParams",
    "DeviceReport",
    "device_report",
]
