"""Physical device estimates: cavity, coupling, timescales, inductances."""

import math

import pytest
import scipy.constants
from scipy.constants import c as c_light

from fluxmaser import device
from fluxmaser.device import (
    CavityParams,
    cavity_frequency,
    coupling_rate,
    device_report,
    format_device_report,
    inductance_check,
    interaction_time,
    photon_lifetime,
    sigma_z_term_estimate,
    vacuum_flux_ratio,
    wavelength,
)


def test_codata_literals_match_scipy():
    # written out so that no CLI process imports scipy.constants
    assert device.SPEED_OF_LIGHT == scipy.constants.c
    assert device.epsilon_0 == scipy.constants.epsilon_0
    assert device.h == scipy.constants.h
    assert device.FLUX_QUANTUM == scipy.constants.physical_constants["mag. flux quantum"][0]


def test_cavity_frequency_example():
    assert cavity_frequency(0.05, 400.0) == pytest.approx(20.0, rel=1e-12)
    with pytest.raises(ValueError):
        cavity_frequency(0.05, 0.0)


def test_wavelength_is_c_over_nu():
    lam = wavelength(20.0)
    assert lam == pytest.approx(c_light / 20e9, rel=1e-12)
    assert lam == pytest.approx(1.5e-2, rel=0.01)


def test_vacuum_flux_ratio_magnitude_and_scaling():
    cavity = CavityParams()
    ratio = vacuum_flux_ratio(cavity, 20.0)
    assert ratio == pytest.approx(1.1e-4, rel=0.10)
    # linear in pickup area, inverse square root in mode volume footprint
    bigger_squid = CavityParams(squid_area=2 * cavity.squid_area)
    assert vacuum_flux_ratio(bigger_squid, 20.0) == pytest.approx(2 * ratio, rel=1e-12)
    wider = CavityParams(area=4 * cavity.area)
    assert vacuum_flux_ratio(wider, 20.0) == pytest.approx(ratio / 2, rel=1e-12)


def test_cavity_params_validated():
    with pytest.raises(ValueError):
        CavityParams(area=0.0)
    with pytest.raises(ValueError):
        CavityParams(quality=-1.0)
    for name in ("area", "height", "quality", "squid_area"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                CavityParams(**{name: value})


def test_coupling_rate_example():
    g = coupling_rate(0.13, 1.1e-4, 400.0)
    assert g == pytest.approx(2.2e8, rel=0.05)
    assert g == pytest.approx(2.18e8, rel=0.05)


def test_interaction_time_example():
    g = coupling_rate(0.13, 1.1e-4, 400.0)
    tau_s = interaction_time(g)
    assert tau_s * 1e9 == pytest.approx(20.0, rel=0.10)


def test_photon_lifetime_example():
    assert photon_lifetime(20.0, 1e6) == pytest.approx(7.96e-6, rel=1e-3)


def test_inductance_check_example():
    report = inductance_check(400.0, 0.1)
    assert report.i_c == pytest.approx(0.8e-6, rel=0.02)
    assert report.l_j == pytest.approx(409e-12, rel=0.01)
    assert report.l_loop == pytest.approx(40e-12, rel=0.10)


def test_sigma_z_term_is_small_fraction_of_gap():
    estimate = sigma_z_term_estimate(1.1e-4)
    assert estimate == pytest.approx(math.pi * 1.1e-4, rel=1e-12)
    assert estimate == pytest.approx(3.5e-4, rel=0.02)
    assert estimate / 0.05 < 0.01


def test_device_report_consistency():
    report = device_report()
    assert report.nu_ghz == pytest.approx(20.0)
    assert report.g_mhz == pytest.approx(report.g_rad_s / 1e6)
    assert report.tau_interaction_ns == pytest.approx(
        interaction_time(report.g_rad_s) * 1e9, rel=1e-12
    )
    assert report.l_loop == pytest.approx(report.beta_l * report.l_j, rel=1e-12)
    assert report.sigma_z_over_gap == pytest.approx(
        report.sigma_z_over_ej / 0.05, rel=1e-12
    )


def test_device_report_renders_key_lines():
    text = format_device_report(device_report())
    for fragment in ("cavity frequency", "coupling g", "photon lifetime", "loop inductance"):
        assert fragment in text


@pytest.mark.parametrize(
    "name", ["gap_over_ej", "t_01", "ej_freq", "beta_l", "n_t", "interaction_phase"]
)
@pytest.mark.parametrize("value", [0.0, -0.1, math.inf, math.nan])
def test_device_report_rejects_non_finite_or_nonpositive_inputs(name, value):
    with pytest.raises(ValueError, match=name):
        device_report(**{name: value})
