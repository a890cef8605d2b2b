"""Master-equation engine: gain map, dissipator, integrator, nullspace oracle."""

import math
import warnings

import numpy as np
import pytest

from fluxmaser import MaserConfig
from fluxmaser.errors import (
    AmbiguousSteadyStateError,
    InvariantViolation,
    TruncationWarning,
)
from fluxmaser.lindblad import (
    MAX_RECORDS,
    RESIDUAL_BOUND,
    _coherence_block,
    diagonal_generator,
    evolve,
    fock_state,
    gain_map,
    steady_state_nullspace,
    step_count,
    validate_density_matrix,
)
from fluxmaser.maser import steady_state_atomic, steady_state_sqc

from .oracles import (
    dissipator,
    expm_reference,
    generator,
    joint_gain_oracle,
    nullspace_vector,
    probed_diagonal_generator,
    thermal_state,
)


def random_density(size, seed, support=None):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    if support is not None:
        a[support:, :] = 0.0
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_validate_density_matrix_accepts_thermal():
    validate_density_matrix(thermal_state(0.4, 16))


def test_validate_density_matrix_rejects_defects():
    rho = thermal_state(0.4, 8)
    lopsided = rho.copy()
    lopsided[0, 1] += 1e-6
    with pytest.raises(InvariantViolation):
        validate_density_matrix(lopsided)
    with pytest.raises(InvariantViolation):
        validate_density_matrix(rho * 1.001)
    negative = rho.copy()
    negative[8, 8] = -1e-6
    negative[0, 0] += 1e-6
    with pytest.raises(InvariantViolation):
        validate_density_matrix(negative)


@pytest.mark.parametrize("where", [(0, 0), (3, 3), (0, 1)])
def test_validate_density_matrix_rejects_nan(where):
    rho = thermal_state(0.4, 8)
    rho[where] = np.nan
    with pytest.raises(InvariantViolation):
        validate_density_matrix(rho)


def test_evolve_refuses_nan_initial_state():
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.0, n_max=8)
    rho0 = fock_state(0, 8)
    rho0[3, 3] = np.nan
    with pytest.raises(InvariantViolation, match="initial state"):
        evolve(rho0, cfg, t_final=0.01, dt=1e-3)


def test_state_factories():
    f = fock_state(3, 8)
    assert f[3, 3] == 1.0 and np.trace(f) == 1.0
    t = thermal_state(0.1, 64)
    assert np.trace(t).real == pytest.approx(1.0, abs=1e-14)
    assert t[0, 0].real == pytest.approx(10.0 / 11.0, rel=1e-12)


def test_gain_map_identity_without_coupling():
    rho = random_density(24, seed=3, support=20)
    assert np.max(np.abs(gain_map(rho, 0.0) - rho)) < 1e-15


def test_gain_map_leaves_vacuum_at_trapping_phase():
    rho = fock_state(0, 16)
    assert np.max(np.abs(gain_map(rho, math.pi) - rho)) < 1e-15


def test_gain_map_matches_joint_space_oracle():
    rho = random_density(17, seed=7)
    # a full-rank state populates the top level, which the map reports
    with pytest.warns(TruncationWarning, match="top Fock level"):
        fast = gain_map(rho, 0.7)
    slow = joint_gain_oracle(rho, 0.7)
    assert np.max(np.abs(fast - slow)) < 1e-10


def test_gain_map_preserves_trace_below_truncation():
    rho = random_density(24, seed=5, support=20)
    assert abs(np.trace(gain_map(rho, 1.3)) - np.trace(rho)) < 1e-13


def test_gain_map_warns_when_top_level_occupied():
    rho = fock_state(15, 15)
    with pytest.warns(TruncationWarning):
        gain_map(rho, 0.5)


def test_dissipator_traceless_and_vacuum_dark():
    rho = random_density(20, seed=11)
    assert abs(np.trace(dissipator(rho, 0.3))) < 1e-12
    assert np.max(np.abs(dissipator(fock_state(0, 12), 0.0))) == 0.0


def test_dissipator_moment_flow():
    # d<n>/dt = -kappa (<n> - n_th) on any diagonal state whose top level is
    # empty (the reflecting truncation boundary only perturbs the identity
    # through the top-level population itself).
    rng = np.random.default_rng(2)
    n_axis = np.arange(25.0)
    for _ in range(20):
        p = rng.random(25)
        p[-1] = 0.0
        p /= p.sum()
        rho = np.diag(p).astype(complex)
        flow = float(np.real(np.sum(n_axis * np.diag(dissipator(rho, 0.37)))))
        assert flow == pytest.approx(-(p @ n_axis - 0.37), abs=1e-12)


def test_generator_traceless_below_truncation():
    cfg = MaserConfig(n_th=0.1, n_t=2.0, g_tau=1.1, n_max=23)
    rho = random_density(24, seed=13, support=20)
    assert abs(np.trace(generator(rho, cfg))) < 1e-10


def test_generator_keeps_diagonal_sector_closed():
    cfg = MaserConfig(n_th=0.1, n_t=3.0, g_tau=0.9, n_max=23)
    p = np.zeros(24)
    p[:20] = np.linspace(1.0, 0.1, 20)
    p /= p.sum()
    out = generator(np.diag(p).astype(complex), cfg)
    off = out - np.diag(np.diag(out))
    assert np.max(np.abs(off)) < 1e-14


def test_second_order_correction_is_a_true_square():
    # applying the one-transit deficit twice must equal one application of the
    # explicitly squared superoperator matrix
    g_tau = 0.7
    size = 9

    def deficit(rho):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            return gain_map(rho, g_tau) - rho

    superop = np.zeros((size * size, size * size), dtype=complex)
    for col in range(size * size):
        basis = np.zeros(size * size, dtype=complex)
        basis[col] = 1.0
        superop[:, col] = deficit(basis.reshape(size, size)).ravel()
    rho = random_density(size, seed=17)
    twice = deficit(deficit(rho))
    assert np.max(np.abs((superop @ superop @ rho.ravel()) - twice.ravel())) < 1e-12


@pytest.mark.parametrize(
    "cfg",
    [
        MaserConfig(n_th=0.1, n_t=2.0, g_tau=1.1, n_max=8),
        MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.4 * math.pi, n_max=23),
        MaserConfig(n_th=0.3, n_t=0.0, g_tau=0.9, n_max=23),
        MaserConfig(n_th=0.0, n_t=3.0, g_tau=0.9, n_max=23),
    ],
    ids=["nmax8", "nmax23", "no-pump", "cold-bath"],
)
def test_coherence_blocks_match_probed_generator(cfg):
    for d in range(-cfg.n_max, cfg.n_max + 1):
        probed = probed_diagonal_generator(cfg, d=d)
        assert np.max(np.abs(_coherence_block(cfg, d).toarray() - probed)) < 1e-12, f"d={d}"
    assert np.max(np.abs(diagonal_generator(cfg) - probed_diagonal_generator(cfg))) < 1e-12


def test_coherence_blocks_reproduce_generator_on_coherent_state():
    cfg = MaserConfig(n_th=0.2, n_t=2.0, g_tau=1.1, n_max=23)
    rho = random_density(24, seed=19)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        full = generator(rho, cfg)
    for d in range(-23, 24):
        blockwise = _coherence_block(cfg, d) @ np.diagonal(rho, -d)
        assert np.max(np.abs(blockwise - np.diagonal(full, -d))) < 1e-12, f"d={d}"


def test_first_order_generator_nullspace_is_the_atomic_recursion():
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=0.7, n_max=32)
    vec = nullspace_vector(probed_diagonal_generator(cfg, second_order=False))
    assert np.max(np.abs(vec - steady_state_atomic(cfg, auto_extend=False).p)) < 1e-10


@pytest.mark.parametrize(
    "t_final, dt, record_every",
    [
        (1.0, 0.0, 10), (1.0, -1e-3, 10), (-1.0, 1e-3, 10), (0.0, 1e-3, 10), (1.0, 1e-3, 0),
        (math.inf, 1e-3, 10), (math.nan, 1e-3, 10), (1.0, math.inf, 10), (1.0, math.nan, 10),
    ],
)
def test_evolve_rejects_nonpositive_inputs(t_final, dt, record_every):
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.0, n_max=8)
    with pytest.raises(ValueError, match="need dt"):
        evolve(fock_state(0, 8), cfg, t_final, dt, record_every=record_every)


@pytest.mark.parametrize(
    "t_final, dt, record_every", [(1e300, 1e-300, 10), (1e12, 1e-3, 1), (1e12, 1e-3, 10**6)]
)
def test_evolve_rejects_unbounded_step_count(t_final, dt, record_every):
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.0, n_max=8)
    with pytest.raises(ValueError, match="t_final/dt"):
        evolve(fock_state(0, 8), cfg, t_final, dt, record_every=record_every)


def test_step_count_allows_exactly_max_records():
    # steps 0, 1, ..., n - 1 and the final step n: n + 1 records
    assert step_count(MAX_RECORDS - 1.0, 1.0, 1) == MAX_RECORDS - 1
    with pytest.raises(ValueError, match=f"over {MAX_RECORDS}"):
        step_count(float(MAX_RECORDS), 1.0, 1)
    # the bound is on records, not steps
    assert step_count(1e15, 1.0, 10**10) == 10**15


def test_evolve_warns_when_top_level_populated():
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.0, n_max=8)
    rho0 = fock_state(0, 8)
    rho0[0, 0], rho0[8, 8] = 1.0 - 1e-8, 1e-8
    with pytest.warns(TruncationWarning, match="top Fock level"):
        evolve(rho0, cfg, t_final=0.01, dt=1e-3)


def test_evolve_rejects_shape_mismatch():
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.0, n_max=32)
    with pytest.raises(ValueError):
        evolve(fock_state(0, 16), cfg, t_final=1.0, dt=1e-3)


def test_pure_decay_is_exponential():
    cfg = MaserConfig(n_th=0.0, n_t=0.0, g_tau=0.0, n_max=8)
    traj = evolve(fock_state(1, 8), cfg, t_final=3.0, dt=5e-3, record_every=100)
    assert np.real(traj.rho_final[1, 1]) == pytest.approx(math.exp(-3.0), abs=1e-6)
    assert np.max(np.abs(traj.traces - 1.0)) < 1e-9


def test_steady_state_populations_nonnegative_for_pure_relaxation():
    cfg = MaserConfig(n_th=0.2, n_t=0.0, g_tau=0.0, n_max=12)
    traj = evolve(fock_state(4, 12), cfg, t_final=20.0, dt=5e-3, record_every=500)
    assert np.real(np.diag(traj.rho_final)).min() >= -1e-9


def _superposition(levels, size):
    psi = np.zeros(size)
    psi[list(levels)] = 1.0 / math.sqrt(len(levels))
    return np.outer(psi, psi).astype(complex)


@pytest.fixture(scope="module")
def pumped_long_run():
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.4 * math.pi, n_max=32)
    rho0 = _superposition((0, 1), 33)
    traj = evolve(rho0, cfg, t_final=20.0, dt=2e-3, record_every=500)
    return cfg, traj


def _check_against_exact_reference(cfg, levels, record_every, orders):
    rho0 = _superposition(levels, 33)
    traj = evolve(rho0, cfg, t_final=0.4, dt=2e-3, record_every=record_every)
    assert traj.steps == 200
    assert np.max(np.abs(traj.rho_final - expm_reference(rho0, cfg, 0.4))) < 1e-12
    # the generator keeps the coherence order: empty diagonals stay exactly zero
    for d in range(-32, 33):
        if abs(d) not in orders:
            assert not np.any(np.diagonal(traj.rho_final, d)), f"d={d}"


def test_evolve_matches_exact_reference_from_coherent_state(pumped_long_run):
    _check_against_exact_reference(pumped_long_run[0], (0, 1), 50, {0, 1})


@pytest.mark.parametrize(
    "levels, record_every, orders",
    [((0, 1), 60, {0, 1}), ((1, 3), 50, {0, 2})],
    ids=["short-last-span", "only-d2"],
)
def test_evolve_matches_exact_reference_in_other_cases(
    pumped_long_run, levels, record_every, orders
):
    _check_against_exact_reference(pumped_long_run[0], levels, record_every, orders)


def test_evolve_final_state_independent_of_sampling_step():
    # dt sets only the sampled times, not an integrator step
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.0, n_max=32)
    coarse = evolve(fock_state(0, 32), cfg, t_final=1.0, dt=0.01)
    fine = evolve(fock_state(0, 32), cfg, t_final=1.0, dt=2e-3)
    assert coarse.steps == 100 and fine.steps == 500
    assert np.max(np.abs(coarse.rho_final - fine.rho_final)) <= 1e-12


@pytest.mark.parametrize(
    "n_t, tau_over_pi, n_max, t_final",
    [(1.0, 1.4, 32, 20.0), (100.0, 10.0, 64, 1.0)],
    ids=["headline", "strong-pump"],
)
def test_evolve_ignores_global_random_state(n_t, tau_over_pi, n_max, t_final):
    # one record interval of large norm * t: the propagator must be computed
    # from exact norms, never from estimates drawn from np.random
    cfg = MaserConfig.from_interaction_time(n_t, tau_over_pi * math.pi, n_th=0.1, n_max=n_max)
    dt = 1e-3
    steps = int(round(t_final / dt))
    finals = []
    for seed in (0, 12345):
        np.random.seed(seed)
        state = np.random.get_state()
        traj = evolve(fock_state(0, n_max), cfg, t_final, dt, record_every=steps)
        assert all(np.array_equal(a, b) for a, b in zip(state, np.random.get_state()))
        finals.append(traj.rho_final)
    assert np.array_equal(finals[0], finals[1])


def test_long_run_trace_conserved(pumped_long_run):
    _, traj = pumped_long_run
    assert np.max(np.abs(traj.traces - 1.0)) < 1e-9


def test_long_run_coherences_die(pumped_long_run):
    _, traj = pumped_long_run
    off = traj.rho_final - np.diag(np.diag(traj.rho_final))
    assert np.max(np.abs(off)) < 1e-8


def test_long_run_diagonal_near_recursion(pumped_long_run):
    cfg, traj = pumped_long_run
    target = steady_state_sqc(cfg, auto_extend=False).p
    assert np.max(np.abs(np.real(np.diag(traj.rho_final)) - target)) < 1e-5


@pytest.mark.xfail(
    strict=True,
    reason="the true steady state carries a genuine -1.77e-6 population at "
    "n=7 (quasi-trapping residue of the second-order pump correction); the "
    "distribution type clamps it to zero, so agreement bottoms out at 1.77e-6",
)
def test_long_run_diagonal_matches_recursion_tightly(pumped_long_run):
    cfg, traj = pumped_long_run
    target = steady_state_sqc(cfg, auto_extend=False).p
    assert np.max(np.abs(np.real(np.diag(traj.rho_final)) - target)) < 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="same quasi-trapping residue: the pumped steady state dips to "
    "-1.77e-6 at n=7, below the -1e-9 positivity line; a property of the "
    "model equation, not of the integrator",
)
def test_long_run_populations_nonnegative(pumped_long_run):
    _, traj = pumped_long_run
    assert np.real(np.diag(traj.rho_final)).min() >= -1e-9


def test_nullspace_reproduces_thermal_state():
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=0.0, n_max=64)
    dist = steady_state_nullspace(cfg)
    expected = np.real(np.diag(thermal_state(0.1, 64)))
    assert np.max(np.abs(dist.p - expected)) < 1e-12
    assert dist.provenance == "master-equation"


def test_nullspace_matches_recursion():
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.4 * math.pi, n_max=32)
    a = steady_state_nullspace(cfg)
    b = steady_state_sqc(cfg, auto_extend=False)
    assert np.max(np.abs(a.p - b.p)) < 1e-8


def test_nullspace_matches_recursion_at_benchmark_cutoff():
    cfg = MaserConfig.from_interaction_time(1.0, 1.4 * math.pi, n_th=0.1, n_max=512)
    a = steady_state_nullspace(cfg)
    b = steady_state_sqc(cfg, auto_extend=False)
    assert np.max(np.abs(a.p - b.p)) < 1e-8
    assert a.residual <= RESIDUAL_BOUND


def test_nullspace_reports_quasi_trap_residue():
    # the -1.77e-6 population at n=7 is clamped; count and mass say so
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.4 * math.pi, n_max=32)
    dist = steady_state_nullspace(cfg)
    assert dist.clamped_count >= 1
    assert dist.clamped_mass >= 1.7e-6
    assert dist.residual <= RESIDUAL_BOUND


def test_nullspace_refuses_underresolved_truncation():
    # at this pump the distribution lives around n~100; a 64-level box leaks
    # so badly there is no clean stationary vector to report
    cfg = MaserConfig.from_interaction_time(100.0, 0.5 * math.pi, n_th=0.1, n_max=64)
    with pytest.raises(AmbiguousSteadyStateError, match="residual"):
        steady_state_nullspace(cfg)


def test_diagonal_generator_columns_sum_to_leak():
    # probability flowing out of every interior column balances exactly
    cfg = MaserConfig(n_th=0.1, n_t=1.0, g_tau=1.0, n_max=32)
    matrix = diagonal_generator(cfg)
    interior = matrix[:, :-2].sum(axis=0)
    assert np.max(np.abs(interior)) < 1e-12
