"""Seeded inputs for the four benchmark workloads.

Each workload is one closed-loop job: a single client runs it back to back,
the next run starting only after the previous one has exited.  Seed 0 gives
the reference inputs documented in ``README.md``; other seeds move the
inputs the behaviour depends on without changing the amount of work:

- spectral workloads: the flux window is shifted by less than one point
  spacing and the eigensolver start-vector seed changes;
- ``evolve_default``: ``tau_int_over_pi`` moves near 1.4 (``n_t`` stays 1,
  because it enters the RK4 stability bound);
- ``steady_nullspace``: ``(n_t, tau/pi)`` is drawn from
  ``{1, 10, 100} x {0.5, 1.4, 10}``.

The program only ever receives the generated YAML file (plus the Fock
cutoffs for the library workload).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("sweep_prod", "fig2_coarse", "evolve_default", "steady_nullspace")

K = 6  # levels solved per point, as in the default config
NULLSPACE_N_T = (1.0, 10.0, 100.0)
NULLSPACE_TAU_OVER_PI = (0.5, 1.4, 10.0)


@dataclass(frozen=True)
class Inputs:
    """Everything one workload run needs, derived from (workload, seed, smoke)."""

    workload: str
    seed: int
    command: str  # CLI subcommand, or "nullspace" for the library job
    workers: int
    yaml_text: str
    # spectral workloads
    grid: tuple[int, int] = (0, 0)
    f_start: float = 0.0
    f_stop: float = 0.0
    f_points: int = 0
    f_s_values: tuple[float, ...] = ()
    solver_seed: int = 0
    # evolve_default
    tau_int_over_pi: float = 1.4
    steps: int = 0
    record_every: int = 50
    steady_tol: float | None = None
    # steady_nullspace
    n_t: float = 1.0
    n_max_values: tuple[int, ...] = ()
    n_th: float = 0.1

    @property
    def ops_per_rep(self) -> int:
        """Operations one run of the workload attempts."""
        if self.command in ("sweep", "fig2"):
            return self.f_points * len(self.f_s_values)
        if self.command == "evolve":
            return self.steps
        return len(self.n_max_values)

    @property
    def spectral(self) -> bool:
        return self.command in ("sweep", "fig2")


def _fmt(x: float) -> str:
    return repr(float(x))


def _spectral(workload, seed, smoke, *, command, grid, points, f_s_values, workers):
    rng = random.Random(f"{workload}:{seed}")
    width = 0.1
    spacing = width / (points - 1)
    if seed == 0:
        offset, solver_seed = 0.0, 0
    else:
        offset = rng.uniform(-0.9, 0.9) * spacing
        solver_seed = rng.randrange(1, 2**31 - 1)
    if smoke:
        grid, points, f_s_values = (16, 32), 3, f_s_values[-1:]
    f_start = round(0.45 + offset, 12)
    f_stop = round(f_start + width, 12)
    yaml_text = (
        f"circuit: {{n_p: {grid[0]}, n_q: {grid[1]}}}\n"
        f"sweep: {{f_start: {_fmt(f_start)}, f_stop: {_fmt(f_stop)}, f_points: {points}, "
        f"f_s_values: [{', '.join(_fmt(v) for v in f_s_values)}], k: {K}, seed: {solver_seed}}}\n"
    )
    return Inputs(
        workload=workload,
        seed=seed,
        command=command,
        workers=workers,
        yaml_text=yaml_text,
        grid=grid,
        f_start=f_start,
        f_stop=f_stop,
        f_points=points,
        f_s_values=tuple(f_s_values),
        solver_seed=solver_seed,
    )


def _evolve(seed, smoke):
    rng = random.Random(f"evolve_default:{seed}")
    tau = 1.4 if seed == 0 else round(1.4 + rng.uniform(-0.05, 0.05), 6)
    dt, t_final, record_every = 2e-3, 20.0, 50
    if smoke:
        t_final = 0.6
    steps = int(round(t_final / dt))
    yaml_text = (
        f"evolve: {{n_t: 1.0, tau_int_over_pi: {_fmt(tau)}, n_th: 0.1, n_max: 32, "
        f"dt: {_fmt(dt)}, t_final: {_fmt(t_final)}, record_every: {record_every}}}\n"
    )
    return Inputs(
        workload="evolve_default",
        seed=seed,
        command="evolve",
        workers=1,
        yaml_text=yaml_text,
        tau_int_over_pi=tau,
        steps=steps,
        record_every=record_every,
        # the steady-state header is only meaningful once the run has relaxed
        steady_tol=None if smoke else 1e-5,
    )


def _nullspace(seed, smoke):
    rng = random.Random(f"steady_nullspace:{seed}")
    if seed == 0:
        n_t, tau = 1.0, 1.4
    else:
        n_t, tau = rng.choice(NULLSPACE_N_T), rng.choice(NULLSPACE_TAU_OVER_PI)
    n_max_values = (64,) if smoke else (256, 512)
    yaml_text = (
        f"maser: {{n_th: 0.1, n_max: {max(n_max_values)}, "
        f"cases: [[{_fmt(n_t)}, {_fmt(tau)}]]}}\n"
    )
    return Inputs(
        workload="steady_nullspace",
        seed=seed,
        command="nullspace",
        workers=1,
        yaml_text=yaml_text,
        n_t=n_t,
        tau_int_over_pi=tau,
        n_max_values=n_max_values,
    )


def make_inputs(workload: str, seed: int, smoke: bool = False) -> Inputs:
    """Generate the inputs of ``workload`` for ``seed`` (reduced size when ``smoke``)."""
    if workload == "sweep_prod":
        return _spectral(
            workload, seed, smoke, command="sweep", grid=(81, 161), points=21,
            f_s_values=(0.0, 0.27), workers=2,
        )
    if workload == "fig2_coarse":
        return _spectral(
            workload, seed, smoke, command="fig2", grid=(41, 81), points=7,
            f_s_values=(0.0, 0.22, 0.27), workers=1,
        )
    if workload == "evolve_default":
        return _evolve(seed, smoke)
    if workload == "steady_nullspace":
        return _nullspace(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
