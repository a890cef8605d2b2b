"""Physical device estimates: cavity, coupling, timescales, inductances."""

import math

import pytest
import scipy.constants
from scipy.constants import c as c_light

from fluxmaser import device
from fluxmaser.device import CavityParams, device_report, format_device_report


def _report_at_flux_ratio(ratio, **kwargs):
    """The report with the SQUID area scaled so that Phi_w0/Phi_0 is ``ratio``
    (the flux ratio is linear in that area)."""
    area = CavityParams().squid_area * ratio / device_report(**kwargs).phi_ratio
    return device_report(cavity=CavityParams(squid_area=area), **kwargs)


def test_codata_literals_match_scipy():
    # written out so that no CLI process imports scipy.constants
    assert device.SPEED_OF_LIGHT == scipy.constants.c
    assert device.epsilon_0 == scipy.constants.epsilon_0
    assert device.h == scipy.constants.h
    assert device.FLUX_QUANTUM == scipy.constants.physical_constants["mag. flux quantum"][0]


def test_cavity_frequency_example():
    assert device_report(0.05, ej_freq=400.0).nu_ghz == pytest.approx(20.0, rel=1e-12)
    with pytest.raises(ValueError):
        device_report(0.05, ej_freq=0.0)


def test_wavelength_is_c_over_nu():
    lam = device_report(0.05, ej_freq=400.0).wavelength_m
    assert lam == pytest.approx(c_light / 20e9, rel=1e-12)
    assert lam == pytest.approx(1.5e-2, rel=0.01)


def test_vacuum_flux_ratio_magnitude_and_scaling():
    cavity = CavityParams()
    ratio = device_report(0.05, ej_freq=400.0, cavity=cavity).phi_ratio
    assert ratio == pytest.approx(1.1e-4, rel=0.10)
    # linear in pickup area, inverse square root in mode volume footprint
    bigger_squid = CavityParams(squid_area=2 * cavity.squid_area)
    assert device_report(cavity=bigger_squid).phi_ratio == pytest.approx(2 * ratio, rel=1e-12)
    wider = CavityParams(area=4 * cavity.area)
    assert device_report(cavity=wider).phi_ratio == pytest.approx(ratio / 2, rel=1e-12)


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
    report = _report_at_flux_ratio(1.1e-4, t_01=0.13, ej_freq=400.0)
    assert report.phi_ratio == pytest.approx(1.1e-4, rel=1e-12)
    assert report.g_rad_s == pytest.approx(2.2e8, rel=0.05)
    assert report.g_rad_s == pytest.approx(2.18e8, rel=0.05)


def test_interaction_time_example():
    report = _report_at_flux_ratio(1.1e-4, t_01=0.13, ej_freq=400.0)
    assert report.tau_interaction_ns == pytest.approx(20.0, rel=0.10)


def test_photon_lifetime_example():
    report = device_report(0.05, ej_freq=400.0, cavity=CavityParams(quality=1e6))
    assert report.tau_photon_s == pytest.approx(7.96e-6, rel=1e-3)


def test_inductance_check_example():
    report = device_report(ej_freq=400.0, beta_l=0.1)
    assert report.i_c == pytest.approx(0.8e-6, rel=0.02)
    assert report.l_j == pytest.approx(409e-12, rel=0.01)
    assert report.l_loop == pytest.approx(40e-12, rel=0.10)


def test_sigma_z_term_is_small_fraction_of_gap():
    report = _report_at_flux_ratio(1.1e-4, gap_over_ej=0.05)
    estimate = report.sigma_z_over_ej
    assert estimate == pytest.approx(math.pi * 1.1e-4, rel=1e-12)
    assert estimate == pytest.approx(3.5e-4, rel=0.02)
    assert report.sigma_z_over_gap < 0.01


def test_device_report_consistency():
    report = device_report()
    assert report.nu_ghz == pytest.approx(20.0)
    assert report.g_mhz == pytest.approx(report.g_rad_s / 1e6)
    # the default phase 1.4 pi at n_t = 1
    assert report.tau_interaction_ns == pytest.approx(
        1.4 * math.pi / report.g_rad_s * 1e9, rel=1e-12
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
