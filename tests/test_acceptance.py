"""End-to-end physics checks, one test per headline claim.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
claim.  Three of the eleven currently FAIL, deliberately: the measured
behavior of the implemented equations genuinely contradicts the stated
expectation, and the assertion messages carry the full diagnostics.  Weakening
the tolerances to force green would hide exactly the information they exist
to surface.
"""

import filecmp
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import fluxmaser
from fluxmaser import (
    CircuitParams,
    MaserConfig,
    PhaseGrid,
    adiabatic_k,
    assemble_hamiltonian,
    device_report,
    distribution_moments,
    lowest_eigenpairs,
    steady_state_atomic,
    steady_state_sqc,
    transition_element,
)
from fluxmaser.cli import main
from fluxmaser.errors import TruncationWarning
from fluxmaser.lindblad import evolve, fock_state, steady_state_nullspace

from .conftest import solve_point
from .oracles import gain_map, joint_gain_oracle

GRID = PhaseGrid(81, 161)


def test_01_working_gap_at_operating_point():
    start = time.perf_counter()
    spec = solve_point(0.493, 0.27, k=2)
    per_point = time.perf_counter() - start
    gap = spec.gap(0, 1)
    assert gap == pytest.approx(0.05, rel=0.20), f"gap {gap:.6f} outside 0.05 +/- 20%"

    fine = solve_point(0.493, 0.27, k=2, grid=(161, 321))
    shift = abs(fine.gap(0, 1) - gap) / gap
    assert shift < 0.02, f"refinement moved the gap by {shift:.2%}"
    assert per_point < 30.0, f"single point took {per_point:.1f}s"


def _pair_gap(f, f_s):
    op = assemble_hamiltonian(CircuitParams(f=float(f), f_s=f_s), GRID)
    spec = lowest_eigenpairs(op, 4)
    return spec.levels[3] - spec.levels[2]


def _min_pair_gap(f_s):
    f_scan = np.arange(0.45, 0.55 + 1e-12, 0.001)
    gaps = np.array([_pair_gap(f, f_s) for f in f_scan])
    i = int(np.argmin(gaps))
    lo = f_scan[max(i - 1, 0)]
    hi = f_scan[min(i + 1, f_scan.size - 1)]
    refined = minimize_scalar(
        lambda f: _pair_gap(f, f_s), bounds=(lo, hi), method="bounded", options={"xatol": 1e-6}
    )
    if refined.fun < gaps[i]:
        return float(refined.fun), float(refined.x)
    return float(gaps[i]), float(f_scan[i])


def _mirror_pair(f):
    # the spectrum is symmetric under f -> 1 - f; which mirror minimum the scan
    # picks is decided by round-off, so name both
    return f"{min(f, 1.0 - f):.4f}/{max(f, 1.0 - f):.4f}"


def test_02_screening_opens_the_upper_crossing():
    min_bare, at_bare = _min_pair_gap(0.0)
    min_screened, at_screened = _min_pair_gap(0.27)
    assert min_bare < 1e-3, f"bare upper-pair gap {min_bare:.3e} at f={_mirror_pair(at_bare)}"
    assert min_screened >= 10.0 * min_bare, (
        f"screened minimum {min_screened:.4e} at f={_mirror_pair(at_screened)} is NOT >= 10x "
        f"the bare minimum {min_bare:.4e} at f={_mirror_pair(at_bare)}: at the mirror points "
        f"f~0.4625/0.5375 the screened levels 2 and 3 cross exactly, being of opposite phi_p "
        f"parity, even though the gap at f=0.5 itself opens ~130x"
    )


def test_03_pump_amplitude_hierarchy(spec_resonant, spec_offres, spec_crossing):
    t01_strong = transition_element(spec_resonant, 0, 1)
    t01_weak = transition_element(spec_offres, 0, 1)
    symmetric = [
        transition_element(spec_crossing, i, j) for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    problems = []
    if not 0.01 * 0.7 <= t01_weak <= 0.01 * 1.3:
        problems.append(f"|t_01| at weak screening is {t01_weak:.6f}, outside 0.01 +/- 30%")
    if not 0.13 * 0.7 <= t01_strong <= 0.13 * 1.3:
        problems.append(f"|t_01| at the operating point is {t01_strong:.6f}, outside 0.13 +/- 30%")
    if not t01_strong / t01_weak >= 8.0:
        problems.append(f"on/off ratio {t01_strong / t01_weak:.2f} < 8")
    if not all(t < 0.005 for t in symmetric):
        problems.append(
            "symmetric-point amplitudes "
            + ", ".join(f"{t:.4f}" for t in symmetric)
            + " not all < 0.005 (the 0-2 intra-well element is ~0.08 and basis-invariant)"
        )
    assert not problems, "; ".join(problems)


def test_04_ramp_coefficients(spec_resonant, spec_crossing):
    k01 = adiabatic_k(spec_resonant, 0, 1)
    k12 = adiabatic_k(spec_resonant, 1, 2)
    assert k01 == pytest.approx(0.2, rel=0.50), f"K_01 = {k01:.4f} ns outside 0.2 +/- 50%"
    assert k12 == pytest.approx(0.4, rel=0.50), f"K_12 = {k12:.4f} ns outside 0.4 +/- 50%"
    assert adiabatic_k(spec_crossing, 0, 1) == 0.0
    assert adiabatic_k(spec_crossing, 1, 2) == 0.0


def test_05_zero_coupling_thermal_closure():
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=0.0, n_max=256)
    q = 0.1 / 1.1
    expected = (1.0 - q) * q ** np.arange(257)
    expected /= expected.sum()
    for dist in (steady_state_sqc(cfg, auto_extend=False), steady_state_atomic(cfg, auto_extend=False)):
        assert np.max(np.abs(dist.p - expected)) < 1e-14


def test_06_single_photon_dominance_and_speed():
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.4 * math.pi)
    dist = steady_state_sqc(cfg)  # warm-up
    # the median of repeated calls, so one call stalled by a busy host does not fail it
    timings = []
    for _ in range(21):
        start = time.perf_counter()
        steady_state_sqc(cfg)
        timings.append(time.perf_counter() - start)
    elapsed = float(np.median(timings))
    assert np.all(dist.p[1] >= 10.0 * dist.p[2:]), "some p_n exceeds p_1/10"
    assert elapsed < 1e-3, f"median evaluation took {elapsed * 1e3:.2f} ms"


def test_07_dual_route_steady_state_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n_t in (1.0, 10.0, 100.0):
        for tau_over_pi in (0.5, 1.4, 10.0):
            recursion = steady_state_sqc(
                MaserConfig.from_interaction_time(n_t, tau_over_pi * math.pi, n_th=0.1)
            )
            nullspace = steady_state_nullspace(
                MaserConfig.from_interaction_time(
                    n_t, tau_over_pi * math.pi, n_th=0.1, n_max=recursion.n_max
                )
            )
            worst = max(worst, float(np.max(np.abs(recursion.p - nullspace.p))))
    assert worst < 1e-8, f"recursion vs nullspace disagree by {worst:.3e}"

    rng = np.random.default_rng(42)
    a = rng.normal(size=(33, 33)) + 1j * rng.normal(size=(33, 33))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    # a full-rank state populates the top level, which the map reports
    with pytest.warns(TruncationWarning, match="top Fock level"):
        closed = gain_map(rho, 0.7)
    brute = joint_gain_oracle(rho, 0.7)
    assert np.max(np.abs(closed - brute)) < 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle comparisons took {elapsed:.1f}s"


def test_08_regular_pump_narrows_the_distribution():
    cfg = MaserConfig.from_interaction_time(100.0, 10 * math.pi, n_th=0.1)
    sqc = distribution_moments(steady_state_sqc(cfg))
    atomic = distribution_moments(steady_state_atomic(cfg))
    assert sqc.variance < atomic.variance, (
        f"var(regular)={sqc.variance:.4f} is NOT below var(random)={atomic.variance:.4f} "
        f"(means {sqc.mean:.4f} vs {atomic.mean:.4f}, fano {sqc.fano:.4f} vs "
        f"{atomic.fano:.4f}): at g_tau=pi the distributions are multimodal between "
        f"quasi-traps and the regular pump parks more mass in the upper lobe, raising "
        f"its raw variance; only the Fano factor comes out smaller"
    )


def test_09_hardware_estimates_from_circuit_outputs():
    report = device_report()
    assert report.nu_ghz == pytest.approx(20.0, rel=0.01)
    assert report.wavelength_m == pytest.approx(1.5e-2, rel=0.01)
    assert report.phi_ratio == pytest.approx(1.1e-4, rel=0.10)
    assert report.g_rad_s == pytest.approx(2.18e8, rel=0.05)
    assert report.tau_interaction_ns == pytest.approx(20.0, rel=0.10)
    assert report.tau_photon_s == pytest.approx(8e-6, rel=0.05)
    assert report.l_loop == pytest.approx(40e-12, rel=0.10)


def test_10_integrator_fidelity():
    decay_cfg = MaserConfig(n_th=0.0, n_t=0.0, g_tau=0.0, n_max=8)
    decay = evolve(fock_state(1, 8), decay_cfg, t_final=3.0, dt=5e-3, record_every=100)
    assert np.real(decay.rho_final[1, 1]) == pytest.approx(math.exp(-3.0), abs=1e-6)

    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.4 * math.pi, n_max=32)
    traj = evolve(fock_state(0, 32), cfg, t_final=20.0, dt=2e-3, record_every=500)
    assert np.max(np.abs(traj.traces - 1.0)) < 1e-9, "trace drifted over 20 lifetimes"
    target = steady_state_sqc(cfg, auto_extend=False).p
    gap = np.max(np.abs(np.real(np.diag(traj.rho_final)) - target))
    assert gap < 1e-5, f"evolved diagonal vs recursion steady state: {gap:.3e}"


BYTE_IDENTITY_CONFIG = (
    "circuit: {n_p: 41, n_q: 81}\n"
    "sweep: {f_start: 0.48, f_stop: 0.50, f_points: 3,"
    " f_s_values: [0.22, 0.27], ramp_f_s_values: [0.22, 0.27], k: 4}\n"
)


def test_11_byte_identical_outputs_across_runs_and_workers(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(BYTE_IDENTITY_CONFIG)
    outputs = []
    for label, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / label
        for command in ("fig2", "fig3", "sweep"):
            code = main(
                [command, "--config", str(cfg), "--out", str(out), "--workers", workers]
            )
            assert code == 0
        outputs.append(sorted(Path(out).iterdir()))
    names = [[p.name for p in run] for run in outputs]
    assert names[0] == names[1] == names[2]
    for first, second, third in zip(*outputs):
        assert filecmp.cmp(first, second, shallow=False), f"{first.name} differs across runs"
        assert filecmp.cmp(first, third, shallow=False), f"{first.name} differs across workers"


def test_outputs_independent_of_blas_thread_count(tmp_path):
    # the thread count is fixed when BLAS loads, so each run is its own process
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(BYTE_IDENTITY_CONFIG)
    src = str(Path(fluxmaser.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        for workers in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src)
            env.update(
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads
            )
            out = tmp_path / f"threads_{threads}_workers_{workers}"
            for command in ("fig2", "fig3", "sweep"):
                subprocess.run(
                    [sys.executable, "-m", "fluxmaser.cli", command, "--config", str(cfg),
                     "--out", str(out), "--workers", workers],
                    env=env, check=True, capture_output=True, timeout=600,
                )
            outputs.append((out.name, sorted(out.glob("*.csv"))))
    (_, first), *rest = outputs
    assert len(first) == 5
    for label, files in rest:
        assert [p.name for p in files] == [p.name for p in first]
        for one, other in zip(first, files):
            assert filecmp.cmp(one, other, shallow=False), f"{one.name} differs at {label}"
