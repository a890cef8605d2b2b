"""Run configuration: one YAML file, strict keys, full defaults.

Every field has a default, so an empty (or absent) file is a valid run.
Unknown keys anywhere are rejected outright — silent typos in sweep configs
waste cluster hours.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields

import yaml

from .circuit import CircuitParams
from .errors import ConfigError
from .lindblad import step_count
from .maser import MaserConfig
from .spectrum import MAX_K

__all__ = [
    "CircuitBlock",
    "SweepBlock",
    "MaserBlock",
    "EvolveBlock",
    "CavityBlock",
    "OutputBlock",
    "RunConfig",
    "load_config",
    "config_digest",
]


@dataclass(frozen=True)
class CircuitBlock:
    gamma: float = 0.5
    ej_over_ec: float = 100.0
    ej_freq: float = 400.0
    n_p: int = 81
    n_q: int = 161
    sector: str = "even"

    def __post_init__(self) -> None:
        if self.sector not in ("even", "odd"):
            raise ValueError(f"sector must be 'even' or 'odd', got {self.sector!r}")
        # the energy scales are checked here, before any command uses them
        CircuitParams(gamma=self.gamma, ej_over_ec=self.ej_over_ec, ej_freq=self.ej_freq)


@dataclass(frozen=True)
class SweepBlock:
    f_start: float = 0.45
    f_stop: float = 0.55
    f_points: int = 101
    f_s_values: tuple[float, ...] = (0.0, 0.22, 0.27)
    ramp_f_s_values: tuple[float, ...] = (0.15, 0.22, 0.27)
    k: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("f_start", "f_stop"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("f_s_values", "ramp_f_s_values"):
            if not all(math.isfinite(x) for x in getattr(self, name)):
                raise ValueError(f"{name} entries must be finite, got {list(getattr(self, name))}")
        if self.f_points < 1:
            raise ValueError(f"f_points must be >= 1, got {self.f_points}")
        # an empty list would make its commands exit 0 with no rows at all
        for name in ("f_s_values", "ramp_f_s_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        # fig2 writes levels E0..E3, and the eigensolver returns at most MAX_K
        if not 4 <= self.k <= MAX_K:
            raise ValueError(f"k must be between 4 and {MAX_K}, got {self.k}")


def _maser_config(n_t: float, tau_int_over_pi: float, n_th: float, n_max: int) -> MaserConfig:
    if not 0 <= tau_int_over_pi < math.inf:
        raise ValueError(f"tau_int_over_pi must be finite and >= 0, got {tau_int_over_pi}")
    return MaserConfig.from_interaction_time(n_t, tau_int_over_pi * math.pi, n_th=n_th, n_max=n_max)


@dataclass(frozen=True)
class MaserBlock:
    n_th: float = 0.1
    n_max: int = 256
    # (n_t, tau_int/pi) operating points for the distribution tables
    cases: tuple[tuple[float, float], ...] = ((1.0, 1.4), (100.0, 10.0))

    def __post_init__(self) -> None:
        if not self.cases:
            raise ValueError("cases must not be empty")
        if not all(isinstance(case, tuple) and len(case) == 2 for case in self.cases):
            raise ValueError(f"cases entries must be [n_t, tau_int_over_pi] pairs: {self.cases}")
        self.maser_configs()  # checked here, before any command uses them

    def maser_configs(self) -> list[MaserConfig]:
        """One :class:`MaserConfig` per ``(n_t, tau_int/pi)`` entry of ``cases``."""
        try:
            return [_maser_config(n_t, tau, self.n_th, self.n_max) for n_t, tau in self.cases]
        except ValueError as exc:
            raise ValueError(f"cases: {exc}") from exc


@dataclass(frozen=True)
class EvolveBlock:
    n_t: float = 1.0
    tau_int_over_pi: float = 1.4
    n_th: float = 0.1
    n_max: int = 32
    dt: float = 2e-3
    t_final: float = 20.0
    record_every: int = 50
    trajectory_levels: int = 8

    def __post_init__(self) -> None:
        for name in ("dt", "t_final"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.record_every < 1 or self.trajectory_levels < 1:
            raise ValueError(
                f"record_every and trajectory_levels must be >= 1, "
                f"got {self.record_every}, {self.trajectory_levels}"
            )
        step_count(self.t_final, self.dt, self.record_every)  # checked before any command runs
        self.maser_config()

    def maser_config(self) -> MaserConfig:
        """The operating point the trajectory is integrated at."""
        return _maser_config(self.n_t, self.tau_int_over_pi, self.n_th, self.n_max)


@dataclass(frozen=True)
class CavityBlock:
    area: float = 2.25e-4
    height: float = 1e-6
    quality: float = 1e6
    squid_area: float = math.pi * (16e-6) ** 2
    beta_l: float = 0.1
    gap_over_ej: float = 0.05
    t_01: float = 0.13
    n_t: float = 1.0
    interaction_phase_over_pi: float = 1.4

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{f.name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class OutputBlock:
    digits: int = 12
    workers: int | None = None

    def __post_init__(self) -> None:
        # 17 significant digits round-trip any double; fewer than 1 is no number
        if not 1 <= self.digits <= 17:
            raise ValueError(f"digits must be between 1 and 17, got {self.digits}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class RunConfig:
    circuit: CircuitBlock = field(default_factory=CircuitBlock)
    sweep: SweepBlock = field(default_factory=SweepBlock)
    maser: MaserBlock = field(default_factory=MaserBlock)
    evolve: EvolveBlock = field(default_factory=EvolveBlock)
    cavity: CavityBlock = field(default_factory=CavityBlock)
    output: OutputBlock = field(default_factory=OutputBlock)


_BLOCKS = {
    "circuit": CircuitBlock,
    "sweep": SweepBlock,
    "maser": MaserBlock,
    "evolve": EvolveBlock,
    "cavity": CavityBlock,
    "output": OutputBlock,
}


def _coerce(value, target_type, key):
    if value is None:
        return None
    if target_type is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if target_type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key}: expected integer, got {value!r}")
        return value
    if target_type is str and isinstance(value, str):
        return value
    if target_type is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key}: expected a list, got {value!r}")
        try:
            return tuple(
                tuple(float(x) for x in item) if isinstance(item, list) else float(item)
                for item in value
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: expected numeric entries: {exc}") from exc
    if isinstance(value, target_type) and target_type is not object:
        return value
    raise ConfigError(f"{key}: expected {target_type.__name__}, got {value!r}")


def _build_block(cls, data: dict, path: str):
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) in {path}: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        f = known[name]
        base = f.type if isinstance(f.type, type) else None
        if base is None:
            hints = {"float": float, "int": int, "str": str, "tuple": tuple}
            base = next((t for n, t in hints.items() if str(f.type).startswith(n)), object)
        kwargs[name] = _coerce(value, base, f"{path}.{name}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {path} block: {exc}") from exc


def load_config(path: str | None = None) -> RunConfig:
    """Load and validate a YAML run configuration (all-defaults when None)."""
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        return RunConfig()
    if not isinstance(raw, dict):
        raise ConfigError(f"top level of {path} must be a mapping")
    unknown = set(raw) - set(_BLOCKS)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    blocks = {}
    for name, cls in _BLOCKS.items():
        section = raw.get(name, {})
        if section is None:
            section = {}
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        blocks[name] = _build_block(cls, section, name)
    return RunConfig(**blocks)


def config_digest(cfg: RunConfig) -> str:
    """Stable content hash of a resolved configuration.

    The worker count only decides how the work is spread, not what is
    computed, so it is left out: outputs stay byte-identical whichever way
    it is set.
    """
    import hashlib
    import json

    def canon(obj):
        if dataclasses.is_dataclass(obj):
            return {f.name: canon(getattr(obj, f.name)) for f in fields(obj)}
        if isinstance(obj, tuple):
            return [canon(x) for x in obj]
        if isinstance(obj, float):
            return repr(obj)
        return obj

    content = dataclasses.replace(cfg, output=dataclasses.replace(cfg.output, workers=None))
    payload = json.dumps(canon(content), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
