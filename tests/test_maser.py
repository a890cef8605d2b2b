"""Steady-state photon statistics: recursions, moments, truncation handling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxmaser import (
    MaserConfig,
    PhotonDistribution,
    distribution_moments,
    rabi_s,
    steady_state_atomic,
    steady_state_sqc,
)
from fluxmaser.errors import InvariantViolation


def geometric(n_th, size):
    q = n_th / (1.0 + n_th)
    p = (1.0 - q) * q ** np.arange(size)
    return p / p.sum()


def test_config_validation():
    with pytest.raises(ValueError):
        MaserConfig(n_th=-0.1)
    with pytest.raises(ValueError):
        MaserConfig(n_t=-1.0)
    with pytest.raises(ValueError):
        MaserConfig(g_tau=-0.5)
    with pytest.raises(ValueError):
        MaserConfig(n_max=3)
    for field in ("n_th", "n_t", "g_tau"):
        with pytest.raises(ValueError):
            MaserConfig(**{field: math.nan})


def test_interaction_time_round_trip():
    cfg = MaserConfig.from_interaction_time(100.0, 10 * math.pi, n_th=0.1)
    assert cfg.g_tau == pytest.approx(math.pi)
    assert cfg.tau_int == pytest.approx(10 * math.pi)
    with pytest.raises(ValueError):
        MaserConfig.from_interaction_time(0.0, math.pi)


def test_rabi_landmarks():
    assert rabi_s(0, 12.3) == 0.0
    assert rabi_s(1, math.pi) == pytest.approx(0.0, abs=1e-30)
    assert rabi_s(1, 1.4 * math.pi) == pytest.approx(0.9045085, abs=1e-7)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 10_000), g_tau=st.floats(0.0, 100.0))
def test_rabi_bounded(n, g_tau):
    s = rabi_s(n, g_tau)
    assert 0.0 <= s <= 1.0


def test_zero_coupling_collapses_to_thermal():
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=0.0, n_max=256)
    expected = geometric(0.1, 257)
    for dist in (steady_state_sqc(cfg), steady_state_atomic(cfg)):
        assert np.max(np.abs(dist.p - expected)) < 1e-14
    assert steady_state_sqc(cfg).p[0] == pytest.approx(10.0 / 11.0, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(n_th=st.floats(0.01, 4.0))
def test_thermal_closure_any_temperature(n_th):
    cfg = MaserConfig(n_th=n_th, n_t=2.0, g_tau=0.0, n_max=64)
    assert np.max(np.abs(steady_state_sqc(cfg, auto_extend=False).p - geometric(n_th, 65))) < 1e-13
    assert np.max(np.abs(steady_state_atomic(cfg, auto_extend=False).p - geometric(n_th, 65))) < 1e-13


def test_first_step_of_recursion_matches_closed_form():
    # p1/p0 follows directly from the zeroth balance row
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.4 * math.pi, n_max=64)
    dist = steady_state_sqc(cfg, auto_extend=False)
    s1 = math.sin(1.4 * math.pi) ** 2
    expected = 1.0 / 11.0 + 2.0 * s1 * (1.0 + s1 / 2.0) / 2.2
    assert dist.p[1] / dist.p[0] == pytest.approx(expected, rel=1e-12)


def test_single_photon_dominance():
    dist = steady_state_sqc(MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.4 * math.pi))
    p = dist.p
    assert np.all(p[1] >= 10.0 * p[2:])


def test_atomic_trapping_state_empties_ladder():
    cfg = MaserConfig(n_th=0.0, n_t=5.0, g_tau=math.pi, n_max=64)
    dist = steady_state_atomic(cfg, auto_extend=False)
    assert dist.p[0] == pytest.approx(1.0)
    assert np.all(dist.p[1:] < 1e-30)


def test_atomic_without_pump_is_thermal():
    cfg = MaserConfig(n_th=0.3, n_t=0.0, g_tau=2.0, n_max=64)
    assert np.max(np.abs(steady_state_atomic(cfg, auto_extend=False).p - geometric(0.3, 65))) < 1e-14


def test_pump_statistics_visibly_differ_at_strong_pump():
    cfg = MaserConfig.from_interaction_time(100.0, 10 * math.pi, n_th=0.1)
    sqc = steady_state_sqc(cfg)
    atomic = steady_state_atomic(cfg)
    size = min(sqc.p.size, atomic.p.size)
    assert np.max(np.abs(sqc.p[:size] - atomic.p[:size])) > 0.01


@pytest.mark.xfail(
    strict=True,
    reason="at g_tau=pi both distributions are multimodal between quasi-traps; "
    "the regular pump parks 40% of the mass in the upper lobe vs 15% for the "
    "random pump, so its raw variance is LARGER (43.79 vs 38.91); only the "
    "Fano factor is smaller (1.1660 vs 1.1719)",
)
def test_regular_pump_has_smaller_variance_at_strong_pump():
    cfg = MaserConfig.from_interaction_time(100.0, 10 * math.pi, n_th=0.1)
    var_sqc = distribution_moments(steady_state_sqc(cfg)).variance
    var_atomic = distribution_moments(steady_state_atomic(cfg)).variance
    assert var_sqc < var_atomic


def test_regular_pump_has_smaller_fano_at_strong_pump():
    cfg = MaserConfig.from_interaction_time(100.0, 10 * math.pi, n_th=0.1)
    assert (
        distribution_moments(steady_state_sqc(cfg)).fano
        < distribution_moments(steady_state_atomic(cfg)).fano
    )


def test_moments_examples():
    thermal = steady_state_sqc(MaserConfig(n_th=0.1, n_t=1.0, g_tau=0.0, n_max=256))
    m = distribution_moments(thermal)
    assert m.mean == pytest.approx(0.1, abs=1e-9)
    assert m.variance == pytest.approx(0.11, abs=1e-9)

    p = np.zeros(8)
    p[1] = 1.0
    single = PhotonDistribution(p=p, provenance="recursion-sqc")
    m1 = distribution_moments(single)
    assert m1.mean == pytest.approx(1.0)
    assert m1.variance == pytest.approx(0.0, abs=1e-15)


def test_truncation_stability():
    base = steady_state_sqc(
        MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.4 * math.pi, n_max=256), auto_extend=False
    )
    wider = steady_state_sqc(
        MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.4 * math.pi, n_max=384), auto_extend=False
    )
    assert not base.truncation_limited
    assert np.max(np.abs(wider.p[:257] - base.p)) < 1e-10


def test_auto_extension_clears_tail_flag():
    cramped = MaserConfig.from_interaction_time(10.0, 1.4 * math.pi, n_th=0.1, n_max=4)
    flagged = steady_state_sqc(cramped, auto_extend=False)
    assert flagged.truncation_limited
    grown = steady_state_sqc(cramped)
    assert not grown.truncation_limited
    assert grown.n_max > 4


def test_instability_flag_on_large_prenormalization_growth():
    # far above threshold the unnormalized recursion climbs many orders of
    # magnitude before the peak: flagged, still normalized
    dist = steady_state_sqc(MaserConfig.from_interaction_time(100.0, 10 * math.pi, n_th=0.1))
    assert dist.unstable
    assert dist.p.sum() == pytest.approx(1.0, abs=1e-12)


def test_atomic_growth_not_flagged_unstable():
    # the one-term recursion multiplies non-negative factors, so climbing
    # towards a far peak neither cancels nor clamps: not an instability
    dist = steady_state_atomic(MaserConfig.from_interaction_time(100.0, 10 * math.pi, n_th=0.1))
    assert not dist.unstable
    assert dist.clamped_count == 0


@pytest.mark.parametrize("solver", [steady_state_sqc, steady_state_atomic])
def test_overflowing_recursion_raises(solver):
    # at n_t = 1e6, tau = 10 pi the unnormalized recursions overflow to inf/NaN
    cfg = MaserConfig.from_interaction_time(1e6, 10 * math.pi, n_th=0.1)
    # the overflow is reported once, by the error, not by numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="non-finite"):
            solver(cfg)


@pytest.mark.parametrize("n_max", [32, 256, 512])
def test_headline_point_not_flagged_unstable(n_max):
    # many tail components clamp (cancellation noise), but the clamped weight
    # stays 1.98e-6 at every cutoff: not an unstable recursion
    dist = steady_state_sqc(
        MaserConfig.from_interaction_time(1.0, 1.4 * math.pi, n_th=0.1, n_max=n_max),
        auto_extend=False,
    )
    assert dist.clamped_count > (n_max + 1) / 10
    assert dist.clamped_mass == pytest.approx(1.98e-6, rel=0.01)
    assert not dist.unstable


def test_distribution_type_rejects_bad_vectors():
    with pytest.raises(ValueError):
        PhotonDistribution(p=np.array([0.5, 0.4]), provenance="recursion-sqc")
    bad = np.array([1.1, -0.1])
    with pytest.raises(ValueError):
        PhotonDistribution(p=bad, provenance="recursion-sqc")
    for nan in (np.full(4, np.nan), np.array([np.nan, 1.0])):
        with pytest.raises(ValueError):
            PhotonDistribution(p=nan, provenance="recursion-sqc")
