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

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; both resolve on first access
# (PEP 562), so ``import fluxmaser`` loads no numpy and a process can fix its
# BLAS thread count before numpy loads (see :mod:`fluxmaser.cli`)
_EXPORTS = {
    "CircuitParams": "circuit",
    "PhaseGrid": "circuit",
    "HamiltonianOperator": "circuit",
    "assemble_hamiltonian": "circuit",
    "potential": "circuit",
    "circulating_current": "circuit",
    "effective_alpha": "circuit",
    "EigenSpectrum": "spectrum",
    "lowest_eigenpairs": "spectrum",
    "PointRecord": "transitions",
    "point_record": "transitions",
    "transition_element": "transitions",
    "adiabatic_k": "transitions",
    "adiabatic_rate_check": "transitions",
    "pumping_feasibility": "transitions",
    "relative_relaxation": "transitions",
    "MaserConfig": "maser",
    "PhotonDistribution": "maser",
    "rabi_s": "maser",
    "steady_state_sqc": "maser",
    "steady_state_atomic": "maser",
    "distribution_moments": "maser",
    "gain_map": "lindblad",
    "evolve": "lindblad",
    "steady_state_nullspace": "lindblad",
    "CavityParams": "device",
    "DeviceReport": "device",
    "device_report": "device",
}
_SUBMODULES = (
    "circuit", "spectrum", "transitions", "maser", "lindblad", "device", "config", "cli", "errors",
)

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
