"""Batch command-line runner producing reproducible CSV tables.

Subcommands map one-to-one onto the standard result sets: level/amplitude
sweeps (``fig2``), adiabaticity sweeps (``fig3``), steady-state photon
distributions (``fig4``), direct time integration (``evolve``), device-scale
estimates (``estimate-device``) and a generic combined sweep (``sweep``).

Every CSV starts with comment lines carrying the tool version and a content
hash of the resolved configuration; floats are rendered with a fixed number
of significant digits and rows are emitted in a fixed order, so identical
configs produce byte-identical files regardless of worker count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from functools import partial
from itertools import islice
from multiprocessing import get_context

import numpy as np

from . import __version__
from .circuit import CircuitParams, PhaseGrid
from .config import RunConfig, config_digest, load_config
from .device import CavityParams, device_report, format_device_report
from .errors import ConfigError
from .lindblad import evolve as lindblad_evolve
from .lindblad import fock_state
from .maser import steady_state_atomic, steady_state_sqc
from .transitions import PointRecord, point_record

WORKERS_ENV = "FLUXMASER_WORKERS"
MAX_FAILURE_FRACTION = 0.01
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fmt(value: float, digits: int) -> str:
    return format(float(value), f".{digits}g")


def _write_csv(path: str, comments: list[str], header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in comments:
            handle.write(f"# {line}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def _resolve_workers(flag: int | None, cfg: RunConfig) -> int:
    env = os.environ.get(WORKERS_ENV)
    if flag is None and env:
        try:
            flag = int(env)
        except ValueError as exc:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
    if flag is None:
        return cfg.output.workers or os.cpu_count() or 1
    if flag < 1:
        raise ConfigError(f"--workers and {WORKERS_ENV} must be >= 1, got {flag}")
    return flag


def _parallel_map(func, tasks, workers: int):
    """``map`` over a pool of spawned workers, each with one BLAS thread.

    BLAS reads its thread count when it loads, so the variables are set in
    this process while the pool spawns (the workers inherit them) and then
    put back exactly as they were.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [func(task) for task in tasks]
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_ENV}
    os.environ.update(dict.fromkeys(BLAS_THREAD_ENV, "1"))
    try:
        with get_context("spawn").Pool(processes=min(workers, len(tasks))) as pool:
            return pool.map(func, tasks, chunksize=1)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


# spectral command -> (SweepBlock field listing its f_s values, one CSV per
# f_s value?, CSV header, units comment); every column is a projection of the
# point_record at (f, f_s)
SPECTRAL = {
    "fig2": (
        "f_s_values",
        True,
        ["f", "E0", "E1", "E2", "E3", "t_01", "t_02", "t_12"],
        "levels in E_J; amplitudes in I_c*Phi_w0",
    ),
    "fig3": (
        "ramp_f_s_values",
        False,
        ["f", "f_s", "K_01", "K_12"],
        "K in ns; 'crossing' marks gaps below the degeneracy floor",
    ),
    "sweep": (
        "f_s_values",
        True,
        ["f", "f_s", "gap_01", "gap_02", "gap_12", "t_01", "t_02", "t_12", "K_01", "K_12"],
        "gaps in E_J; amplitudes in I_c*Phi_w0; K in ns",
    ),
}


def _columns(f: float, f_s: float, rec: PointRecord) -> dict[str, float]:
    lv = rec.levels
    return {
        "f": f,
        "f_s": f_s,
        **{f"E{i}": lv[i] for i in range(4)},
        "gap_01": lv[1] - lv[0],
        "gap_02": lv[2] - lv[0],
        "gap_12": lv[2] - lv[1],
        "t_01": rec.t_01,
        "t_02": rec.t_02,
        "t_12": rec.t_12,
        "K_01": rec.k_01,
        "K_12": rec.k_12,
    }


def _solve_point(params: CircuitParams, **solver):
    try:
        return point_record(params, **solver), None
    except Exception as exc:  # worker boundary: report, do not kill the sweep
        return None, f"f={params.f:.6g} f_s={params.f_s:.6g}: {type(exc).__name__}: {exc}"


def _base_comments(cfg: RunConfig, units: str) -> list[str]:
    return [
        f"tool_version: {__version__}",
        f"config_sha256: {config_digest(cfg)}",
        f"units: {units}",
    ]


def cmd_spectral(command: str, cfg: RunConfig, out_dir: str, workers: int) -> int:
    """Solve every (f_s, f) point in one pool and split the rows into CSVs."""
    f_s_field, per_f_s, header, units = SPECTRAL[command]
    c, s = cfg.circuit, cfg.sweep
    f_s_values = getattr(s, f_s_field)
    f_axis = np.linspace(s.f_start, s.f_stop, s.f_points)
    if per_f_s:
        files = [(f"{command}_fs_{f_s:g}", [f"f_s: {f_s:g}"], [f_s]) for f_s in f_s_values]
    else:
        files = [(command, [], f_s_values)]
    base = CircuitParams(gamma=c.gamma, ej_over_ec=c.ej_over_ec, ej_freq=c.ej_freq)
    tasks = [
        base.replace(f=float(f), f_s=float(f_s))
        for *_, group in files
        for f_s in group
        for f in f_axis
    ]
    solve = partial(
        _solve_point, grid=PhaseGrid(c.n_p, c.n_q), k=s.k, sector=c.sector, seed=s.seed
    )
    results = iter(zip(tasks, _parallel_map(solve, tasks, workers)))

    failed = 0
    for stem, extra_comments, group in files:
        rows, failures = [], []
        for params, (rec, error) in islice(results, len(group) * len(f_axis)):
            if rec is None:
                failures.append(error)
                continue
            values = _columns(params.f, params.f_s, rec)
            rows.append([
                "crossing" if name.startswith("K_") and math.isnan(values[name])
                else _fmt(values[name], cfg.output.digits)
                for name in header
            ])
        comments = _base_comments(cfg, units) + extra_comments
        _write_csv(os.path.join(out_dir, f"{stem}.csv"), comments, header, rows)
        if failures:
            log_path = os.path.join(out_dir, f"{stem}_failures.log")
            with open(log_path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write("\n".join(failures) + "\n")
            print(f"warning: {len(failures)} point(s) failed; see {log_path}", file=sys.stderr)
        failed += len(failures)
    if failed > MAX_FAILURE_FRACTION * len(tasks):
        print(
            f"error: {failed}/{len(tasks)} sweep points failed (> {MAX_FAILURE_FRACTION:.0%})",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_fig4(cfg: RunConfig, out_dir: str) -> int:
    digits = cfg.output.digits
    for (n_t, tau_over_pi), mcfg in zip(cfg.maser.cases, cfg.maser.maser_configs()):
        sqc = steady_state_sqc(mcfg)
        atomic = steady_state_atomic(mcfg)
        size = max(sqc.p.size, atomic.p.size)
        p_sqc = np.pad(sqc.p, (0, size - sqc.p.size))
        p_atomic = np.pad(atomic.p, (0, size - atomic.p.size))
        comments = _base_comments(cfg, "probabilities") + [
            f"n_t: {n_t:g}",
            f"tau_int_over_pi: {tau_over_pi:g}",
            f"n_th: {cfg.maser.n_th:g}",
            f"flags: sqc(unstable={sqc.unstable}, truncation_limited={sqc.truncation_limited}) "
            f"atomic(unstable={atomic.unstable}, truncation_limited={atomic.truncation_limited})",
        ]
        rows = [
            [str(n), _fmt(p_sqc[n], digits), _fmt(p_atomic[n], digits)] for n in range(size)
        ]
        stem = f"fig4_Nt_{n_t:g}_tau_{tau_over_pi:g}pi"
        _write_csv(os.path.join(out_dir, f"{stem}.csv"), comments, ["n", "p_sqc", "p_atomic"], rows)
    return 0


def cmd_evolve(cfg: RunConfig, out_dir: str) -> int:
    ev = cfg.evolve
    mcfg = ev.maser_config()
    rho0 = fock_state(0, mcfg.n_max)
    trajectory = lindblad_evolve(rho0, mcfg, ev.t_final, ev.dt, record_every=ev.record_every)
    reference = steady_state_sqc(mcfg, auto_extend=False)
    final_diag = np.real(np.diag(trajectory.rho_final))
    deviation = float(np.max(np.abs(final_diag - reference.p)))

    digits = cfg.output.digits
    n_levels = min(ev.trajectory_levels, mcfg.n_max + 1)
    header = ["t", "trace"] + [f"p_{n}" for n in range(n_levels)] + ["mean_n"]
    comments = _base_comments(cfg, "time in photon lifetimes") + [
        f"n_t: {ev.n_t:g}",
        f"tau_int_over_pi: {ev.tau_int_over_pi:g}",
        f"steady_state_max_abs_diff: {deviation:.3e}",
    ]
    rows = []
    for i, t in enumerate(trajectory.times):
        row = [_fmt(t, digits), _fmt(trajectory.traces[i], digits)]
        row += [_fmt(trajectory.populations[i][n], digits) for n in range(n_levels)]
        row.append(_fmt(trajectory.mean_n[i], digits))
        rows.append(row)
    _write_csv(os.path.join(out_dir, "evolve.csv"), comments, header, rows)
    return 0


def cmd_estimate_device(cfg: RunConfig, out_dir: str | None) -> int:
    cav = cfg.cavity
    report = device_report(
        gap_over_ej=cav.gap_over_ej,
        t_01=cav.t_01,
        ej_freq=cfg.circuit.ej_freq,
        cavity=CavityParams(
            area=cav.area, height=cav.height, quality=cav.quality, squid_area=cav.squid_area
        ),
        beta_l=cav.beta_l,
        n_t=cav.n_t,
        interaction_phase=cav.interaction_phase_over_pi * math.pi,
    )
    print(format_device_report(report))
    if out_dir is not None:
        digits = cfg.output.digits
        fields = [
            ("nu_ghz", report.nu_ghz),
            ("wavelength_m", report.wavelength_m),
            ("phi_w0_over_phi0", report.phi_ratio),
            ("g_rad_s", report.g_rad_s),
            ("g_mhz", report.g_mhz),
            ("tau_interaction_ns", report.tau_interaction_ns),
            ("tau_photon_s", report.tau_photon_s),
            ("i_c_amp", report.i_c),
            ("l_j_henry", report.l_j),
            ("l_loop_henry", report.l_loop),
            ("beta_l", report.beta_l),
            ("sigma_z_over_ej", report.sigma_z_over_ej),
            ("sigma_z_over_gap", report.sigma_z_over_gap),
        ]
        _write_csv(
            os.path.join(out_dir, "device_report.csv"),
            _base_comments(cfg, "SI units unless suffixed"),
            [name for name, _ in fields],
            [[_fmt(value, digits) for _, value in fields]],
        )
    return 0


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.grid:
        try:
            n_p, n_q = (int(part) for part in args.grid.lower().split("x"))
        except ValueError as exc:
            raise ConfigError(f"--grid expects NPxNQ, got {args.grid!r}") from exc
        cfg = replace(cfg, circuit=replace(cfg.circuit, n_p=n_p, n_q=n_q))
    if args.seed is not None:
        cfg = replace(cfg, sweep=replace(cfg.sweep, seed=args.seed))
    # a grid the solver would reject is a configuration error, not a numerical
    # one: surface it before any sweep points are dispatched
    try:
        PhaseGrid(cfg.circuit.n_p, cfg.circuit.n_q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxmaser",
        description="Flux-tunable circuit maser: spectra, transition tables and photon statistics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="YAML run configuration")
    common.add_argument("--out", metavar="DIR", default=".", help="output directory")
    common.add_argument("--workers", type=int, metavar="N", help="worker processes for sweeps")
    common.add_argument("--grid", metavar="NPxNQ", help="override grid, e.g. 81x161")
    common.add_argument("--seed", type=int, metavar="S", help="eigensolver start-vector seed")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("fig2", "levels and transition amplitudes vs f, one CSV per f_s"),
        ("fig3", "adiabaticity coefficients K vs f for the ramp f_s values"),
        ("fig4", "steady-state photon distributions for the configured operating points"),
        ("evolve", "direct master-equation time integration"),
        ("estimate-device", "physical device estimates from circuit outputs"),
        ("sweep", "combined gaps/amplitudes/K sweep, one CSV per f_s"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        workers = _resolve_workers(args.workers, cfg)
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        if args.command in SPECTRAL:
            return cmd_spectral(args.command, cfg, out_dir, workers)
        if args.command == "fig4":
            return cmd_fig4(cfg, out_dir)
        if args.command == "evolve":
            return cmd_evolve(cfg, out_dir)
        if args.command == "estimate-device":
            return cmd_estimate_device(cfg, out_dir)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
