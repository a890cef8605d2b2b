"""The per-key rules of the run configuration, and a fuzz over all of them.

Each number field of a config block declares its rule beside its default;
these tests check that no field goes without one and that any YAML file
either fails to load with a message naming one of its keys, or yields a
configuration every command can set up without error.
"""

import math
from dataclasses import fields

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxmaser import CircuitParams, PhaseGrid, spectrum
from fluxmaser.config import _BLOCKS, SweepBlock, load_config
from fluxmaser.errors import ConfigError
from fluxmaser.lindblad import step_count

# the two fields checked by hand: a choice of names, and a list of pairs
RULELESS = {"circuit.sector": "str", "maser.cases": "tuple[tuple[float, float], ...]"}
NUMBER_TYPES = ("int", "float", "tuple[float, ...]")


def test_every_number_field_declares_a_rule():
    for block, cls in _BLOCKS.items():
        # messages name the block after its class, so the two must agree
        assert cls.__name__ == f"{block.capitalize()}Block"
        for f in fields(cls):
            key = f"{block}.{f.name}"
            if key in RULELESS:
                assert f.type == RULELESS[key] and "rule" not in f.metadata, key
            else:
                assert f.type in NUMBER_TYPES and "rule" in f.metadata, key


def test_blocks_built_without_yaml_are_checked():
    with pytest.raises(ConfigError, match=r"^sweep\.seed: must be >= 0"):
        SweepBlock(seed=-1)
    with pytest.raises(ConfigError, match=r"^sweep\.f_s_values: must be finite"):
        SweepBlock(f_s_values=(0.27, math.nan))


WILD = st.one_of(
    st.sampled_from([
        None, True, False, "x", "even", math.nan, math.inf, -math.inf, 0, -1, 0.0, -1.0,
        1e308, -1e308, 2**63, [], [[0.27]], [0.27, 0.27], [1.0, math.nan],
    ]),
    st.floats(),
    st.integers(),
)


def _valid(block: str, f) -> st.SearchStrategy:
    """Values of a field's type inside its declared bounds, edges included."""
    key = f"{block}.{f.name}"
    if key == "circuit.sector":
        return st.sampled_from(["even", "odd"])
    if key == "maser.cases":
        n_t = st.floats(min_value=0.0, exclude_min=True)
        pair = st.tuples(n_t, st.floats(min_value=0.0)).map(list)
        return st.lists(pair, min_size=1, max_size=3)
    lo, hi, above, _ = f.metadata["rule"]
    if f.type == "int":
        return st.integers(min_value=lo + above, max_value=hi if math.isfinite(hi) else None)
    number = st.floats(
        min_value=lo if math.isfinite(lo) else None,
        max_value=hi if math.isfinite(hi) else None,
        exclude_min=above and math.isfinite(lo),
        allow_nan=False,
        allow_infinity=False,
    )
    return number if f.type == "float" else st.lists(number, min_size=1, max_size=4)


@st.composite
def configs(draw):
    """A config of in-range values for some keys, with up to three keys made wild."""
    raw = draw(st.fixed_dictionaries({}, optional={
        block: st.fixed_dictionaries({}, optional={f.name: _valid(block, f) for f in fields(cls)})
        for block, cls in _BLOCKS.items()
    }))
    for _ in range(draw(st.integers(0, 3))):
        block = draw(st.sampled_from(sorted(_BLOCKS)))
        name = draw(st.sampled_from([f.name for f in fields(_BLOCKS[block])]))
        raw.setdefault(block, {})[name] = draw(WILD)
    return raw


def _set_up(cfg) -> None:
    """What every command builds from its config before it solves a point."""
    c, s, ev = cfg.circuit, cfg.sweep, cfg.evolve
    for f_s in s.f_s_values + s.ramp_f_s_values:
        for f in (s.f_start, s.f_stop):
            CircuitParams(gamma=c.gamma, ej_over_ec=c.ej_over_ec, ej_freq=c.ej_freq, f=f, f_s=f_s)
    PhaseGrid(c.n_p, c.n_q)
    cfg.maser.maser_configs()
    ev.maser_config()
    step_count(ev.t_final, ev.dt, ev.record_every)
    spectrum._seeded_start(16, s.seed)


@settings(max_examples=300, deadline=None)
@given(raw=configs())
def test_any_config_is_rejected_by_key_or_sets_up(raw, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    drawn = {f"{block}.{key}" for block, section in raw.items() for key in section}
    try:
        cfg = load_config(path)
    except ConfigError as exc:
        named = str(exc).split(": ")[0].split(", ")
        assert drawn.intersection(named), str(exc)
        return
    _set_up(cfg)
