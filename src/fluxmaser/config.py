"""Run configuration: one YAML file, strict keys, full defaults.

Every field has a default, so an empty (or absent) file is a valid run.
Unknown keys anywhere are rejected outright — silent typos in sweep configs
waste cluster hours — and so is a key given twice in one mapping.  Each
number field declares its rule beside its default (:func:`_rule`); every
block checks all of them when it is built, and a block's own
``__post_init__`` adds only checks that span fields.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields

import yaml

from .circuit import MIN_N_P, MIN_N_Q
from .errors import ConfigError
from .lindblad import step_count
from .maser import N_MAX_CEILING, MaserConfig
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


def _rule(default, lo=-math.inf, hi=math.inf, *, above=False, unique=False):
    """A field whose value, or each entry of its list, is finite and lies in
    ``[lo, hi]`` (strictly above ``lo`` when ``above``); a list must not be
    empty, and its entries must be distinct when ``unique``."""
    return field(default=default, metadata={"rule": (lo, hi, above, unique)})


class _Block:
    """Checks every field's :func:`_rule` whenever a block is built."""

    def __post_init__(self) -> None:
        block = type(self).__name__.removesuffix("Block").lower()
        for f in fields(self):
            if "rule" not in f.metadata:
                continue
            lo, hi, above, unique = f.metadata["rule"]
            value = getattr(self, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            if not entries:
                need = "not be empty"
            elif any(isinstance(x, float) and not math.isfinite(x) for x in entries):
                need = "be finite"
            elif any(x <= lo if above else x < lo for x in entries):
                need = f"be {'>' if above else '>='} {lo}"
            elif any(x > hi for x in entries):
                need = f"be <= {hi}"
            elif unique and len(set(entries)) < len(entries):
                need = "have distinct entries"
            else:
                continue
            shown = list(value) if isinstance(value, tuple) else value
            raise ConfigError(f"{block}.{f.name}: must {need}, got {shown}")


@dataclass(frozen=True)
class CircuitBlock(_Block):
    gamma: float = _rule(0.5, 0, above=True)
    # the kinetic energies scale as E_c/E_J, and K_ij squares a gap: below this
    # floor a level's square leaves the double range
    ej_over_ec: float = _rule(100.0, 1e-100)
    ej_freq: float = _rule(400.0, 0, above=True)
    # a run builds one tagged pattern of about 11 (n_p - 1) n_q/2 entries: at
    # 641x1281 (4.5e6 entries) that took 0.71 s and 300 MB, and the first
    # point 0.45 s and 110 MB more, one CPU; both grow with the entries, so a
    # run at both caps needs about 1.1 GB before its first point is solved
    n_p: int = _rule(81, MIN_N_P, 1025)
    n_q: int = _rule(161, MIN_N_Q, 2049)
    sector: str = "even"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sector not in ("even", "odd"):
            raise ConfigError(f"circuit.sector: must be 'even' or 'odd', got {self.sector!r}")


@dataclass(frozen=True)
class SweepBlock(_Block):
    f_start: float = _rule(0.45)
    f_stop: float = _rule(0.55)
    # a point costs about 10 ms at 81x161 on one CPU, so a run at the cap
    # takes about 17 min per f_s value
    f_points: int = _rule(101, 1, 10**5)
    f_s_values: tuple[float, ...] = _rule((0.0, 0.22, 0.27))
    # fig3 writes all ramp values into one CSV, so a repeat would repeat rows
    ramp_f_s_values: tuple[float, ...] = _rule((0.15, 0.22, 0.27), unique=True)
    # fig2 writes levels E0..E3, and the eigensolver returns at most MAX_K
    k: int = _rule(6, 4, MAX_K)
    # the eigensolver's start vector comes from a 32-bit numpy seed
    seed: int = _rule(0, 0, 2**32 - 1)

    def __post_init__(self) -> None:
        super().__post_init__()
        # the flux axis is a linspace, which steps by the span
        if not math.isfinite(self.f_stop - self.f_start):
            raise ConfigError(
                "sweep.f_start, sweep.f_stop: f_stop - f_start overflows, "
                f"got {self.f_start}, {self.f_stop}"
            )


def _fixes_g_tau(n_t: float, tau_int_over_pi: float) -> bool:
    """Whether ``(n_t, tau_int/pi)`` fixes a finite ``g_tau = tau_int / sqrt(n_t)``."""
    return 0 < n_t < math.inf and 0 <= tau_int_over_pi * math.pi / math.sqrt(n_t) < math.inf


def _maser_config(n_t: float, tau_int_over_pi: float, n_th: float, n_max: int) -> MaserConfig:
    return MaserConfig.from_interaction_time(n_t, tau_int_over_pi * math.pi, n_th=n_th, n_max=n_max)


@dataclass(frozen=True)
class MaserBlock(_Block):
    n_th: float = _rule(0.1, 0)
    # the steady-state solvers extend the cutoff up to N_MAX_CEILING, no further
    n_max: int = _rule(256, 4, N_MAX_CEILING)
    # (n_t, tau_int/pi) operating points for the distribution tables
    cases: tuple[tuple[float, float], ...] = ((1.0, 1.4), (100.0, 10.0))

    def __post_init__(self) -> None:
        super().__post_init__()
        pairs = all(isinstance(c, tuple) and len(c) == 2 and _fixes_g_tau(*c) for c in self.cases)
        if not (self.cases and pairs):
            raise ConfigError(
                "maser.cases: must be a non-empty list of [n_t > 0, tau_int_over_pi >= 0] "
                f"pairs with a finite tau_int/sqrt(n_t), got {self.cases}"
            )

    def maser_configs(self) -> list[MaserConfig]:
        """One :class:`MaserConfig` per ``(n_t, tau_int/pi)`` entry of ``cases``."""
        return [_maser_config(n_t, tau, self.n_th, self.n_max) for n_t, tau in self.cases]


@dataclass(frozen=True)
class EvolveBlock(_Block):
    n_t: float = _rule(1.0, 0, above=True)
    tau_int_over_pi: float = _rule(1.4, 0)
    n_th: float = _rule(0.1, 0)
    n_max: int = _rule(32, 4, N_MAX_CEILING)
    dt: float = _rule(2e-3, 0, above=True)
    t_final: float = _rule(20.0, 0, above=True)
    record_every: int = _rule(50, 1)
    trajectory_levels: int = _rule(8, 1)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not _fixes_g_tau(self.n_t, self.tau_int_over_pi):
            raise ConfigError(
                "evolve.tau_int_over_pi, evolve.n_t: tau_int/sqrt(n_t) overflows, "
                f"got {self.tau_int_over_pi}, {self.n_t}"
            )
        try:
            step_count(self.t_final, self.dt, self.record_every)
        except ValueError as exc:
            raise ConfigError(f"evolve.t_final, evolve.dt, evolve.record_every: {exc}") from exc

    def maser_config(self) -> MaserConfig:
        """The operating point the trajectory is integrated at."""
        return _maser_config(self.n_t, self.tau_int_over_pi, self.n_th, self.n_max)


@dataclass(frozen=True)
class CavityBlock(_Block):
    area: float = _rule(2.25e-4, 0, above=True)
    height: float = _rule(1e-6, 0, above=True)
    quality: float = _rule(1e6, 0, above=True)
    squid_area: float = _rule(math.pi * (16e-6) ** 2, 0, above=True)
    beta_l: float = _rule(0.1, 0, above=True)
    gap_over_ej: float = _rule(0.05, 0, above=True)
    t_01: float = _rule(0.13, 0, above=True)
    n_t: float = _rule(1.0, 0, above=True)
    interaction_phase_over_pi: float = _rule(1.4, 0, above=True)


@dataclass(frozen=True)
class OutputBlock(_Block):
    # 17 significant digits round-trip any double; fewer than 1 is no number
    digits: int = _rule(12, 1, 17)


@dataclass(frozen=True)
class RunConfig:
    circuit: CircuitBlock = field(default_factory=CircuitBlock)
    sweep: SweepBlock = field(default_factory=SweepBlock)
    maser: MaserBlock = field(default_factory=MaserBlock)
    evolve: EvolveBlock = field(default_factory=EvolveBlock)
    cavity: CavityBlock = field(default_factory=CavityBlock)
    output: OutputBlock = field(default_factory=OutputBlock)


_BLOCKS = {f.name: f.default_factory for f in fields(RunConfig)}


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    return float(value)


def _coerce(value, annotation: str, key: str):
    """``value`` checked against its field's annotation; every message names ``key``."""
    if annotation == "float":
        return _number(value, key)
    if annotation in ("int", "str"):
        if isinstance(value, bool) or not isinstance(value, int if annotation == "int" else str):
            raise ConfigError(f"{key}: expected {annotation}, got {value!r}")
        return value
    # tuple[float, ...], or a tuple of such tuples (maser.cases) for a nested annotation
    nested = annotation.startswith("tuple[tuple")
    if not isinstance(value, list) or any(isinstance(item, list) != nested for item in value):
        shape = "a list of lists of numbers" if nested else "a list of numbers"
        raise ConfigError(f"{key}: expected {shape}, got {value!r}")
    if nested:
        return tuple(tuple(_number(x, key) for x in item) for item in value)
    return tuple(_number(x, key) for x in value)


def _build_block(cls, data: dict, path: str):
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(f"{path}.{key}" for key in set(data) - set(known))
    if unknown:
        raise ConfigError(f"{', '.join(unknown)}: unknown key(s)")
    # annotations are strings (postponed evaluation), e.g. "int" or "tuple[float, ...]"
    return cls(**{
        name: _coerce(value, known[name].type, f"{path}.{name}") for name, value in data.items()
    })


class _UniqueKeyLoader(yaml.SafeLoader):
    """A safe loader that rejects a mapping key given twice, at any depth,
    where the plain one silently keeps the last value."""

    def construct_document(self, node):
        self._check_keys(node, "", set())
        return super().construct_document(node)

    def _check_keys(self, node, path: str, visited: set) -> None:
        # an alias may point back into its own anchor, so visit each node once
        if id(node) in visited:
            return
        visited.add(id(node))
        if isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                self._check_keys(item, f"{path}[{i}]", visited)
        elif isinstance(node, yaml.MappingNode):
            seen = set()
            for key_node, value_node in node.value:
                # a non-scalar key is unhashable; the constructor rejects it
                scalar = isinstance(key_node, yaml.ScalarNode)
                key = self.construct_object(key_node) if scalar else key_node
                where = f"{path}.{key}" if path else str(key)
                if key in seen:
                    raise ConfigError(f"{where}: duplicate key")
                seen.add(key)
                self._check_keys(value_node, where, visited)


def load_config(path: str | None = None) -> RunConfig:
    """Load and validate a YAML run configuration (all-defaults when None)."""
    if path is None:
        return RunConfig()
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    with handle:
        try:
            raw = yaml.load(handle, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            # one line, as every input error: PyYAML's problem and where it lies
            problem = (getattr(exc, "problem", None) or str(exc)).splitlines()[0]
            mark = getattr(exc, "problem_mark", None)
            where = f", line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            raise ConfigError(f"cannot parse {path}: {problem}{where}") from exc
    if raw is None:
        return RunConfig()
    if not isinstance(raw, dict):
        raise ConfigError(f"top level of {path} must be a mapping")
    unknown = set(raw) - set(_BLOCKS)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(map(str, unknown))}")
    blocks = {}
    for name, cls in _BLOCKS.items():
        section = {} if raw.get(name) is None else raw[name]
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        blocks[name] = _build_block(cls, section, name)
    return RunConfig(**blocks)


def config_digest(cfg: RunConfig) -> str:
    """Stable content hash of a resolved configuration."""
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

    payload = json.dumps(canon(cfg), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
