"""Batch command-line runner producing reproducible CSV tables.

Subcommands map one-to-one onto the standard result sets: level/amplitude
sweeps (``fig2``), adiabaticity sweeps (``fig3``), steady-state photon
distributions (``fig4``), direct time integration (``evolve``), device-scale
estimates (``estimate-device``) and a generic combined sweep (``sweep``).

Everything that shapes the CSVs is set in the YAML configuration, and so
in its content hash; the command line says only where to read (``--config``)
and write (``--out``) and how many processes to use (``--workers``).

Every CSV starts with comment lines carrying the tool version and a content
hash of the resolved configuration; floats are rendered with a fixed number
of significant digits and rows are emitted in a fixed order, so identical
configs produce byte-identical files regardless of worker count.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import fields, replace
from functools import partial
from itertools import islice
from multiprocessing import get_context

BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

COMMANDS = {
    "fig2": "levels and transition amplitudes vs f, one CSV per f_s",
    "fig3": "adiabaticity coefficients K vs f for the ramp f_s values",
    "fig4": "steady-state photon distributions for the configured operating points",
    "evolve": "direct master-equation time integration",
    "estimate-device": "physical device estimates from circuit outputs",
    "sweep": "combined gaps/amplitudes/K sweep, one CSV per f_s",
}

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

# BLAS fixes its thread count when numpy loads it, before main() parses the
# command, so the command is read here from the process's own command line.
# A spectral command solves many small eigenproblems, where a second BLAS
# thread doubled the CPU time without shortening the wall time (2 CPUs), so
# such a process runs one thread unless the caller set a count.  Every other
# command keeps the library's default: evolve's dense expm at a large n_max
# does run faster on more threads.
if (
    next((word for word in sys.argv[1:] if word in COMMANDS), None) in SPECTRAL
    and "numpy" not in sys.modules
    and not any(name in os.environ for name in BLAS_THREAD_ENV)
):
    os.environ.update(dict.fromkeys(BLAS_THREAD_ENV, "1"))

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402
from .circuit import CircuitParams, PhaseGrid  # noqa: E402
from .config import RunConfig, config_digest, load_config  # noqa: E402
from .device import CavityParams, device_report, format_device_report  # noqa: E402
from .errors import ConfigError  # noqa: E402
from .lindblad import evolve as lindblad_evolve  # noqa: E402
from .lindblad import fock_state  # noqa: E402
from .maser import steady_state_atomic, steady_state_sqc  # noqa: E402
from .transitions import PointRecord, point_record  # noqa: E402

MAX_FAILURE_FRACTION = 0.01


def _fmt(value: float, digits: int) -> str:
    return format(float(value), f".{digits}g")


def _write_csv(path: str, comments: list[str], header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in comments:
            handle.write(f"# {line}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def _resolve_workers(flag: int | None) -> int:
    """``flag``, or by default the number of CPUs this process may run on."""
    if flag is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if flag < 1:
        raise ConfigError(f"--workers must be >= 1, got {flag}")
    return flag


def _check_stems(stems: list[str], entries: list, key: str) -> None:
    """Reject entries of ``key`` whose CSVs would share a name and overwrite each other."""
    seen = {}
    for stem, entry in zip(stems, entries):
        if stem in seen:
            raise ConfigError(
                f"{key}: entries {seen[stem]} and {entry} would both write {stem}.csv"
            )
        seen[stem] = entry


def _outcome(call):
    """``call()``, or the numerical failure (the ``RuntimeError`` family) it raised.

    Any other exception, and a broken pool, propagate.
    """
    try:
        return call()
    except BrokenExecutor:
        raise
    except RuntimeError as exc:
        return exc


@contextmanager
def _one_blas_thread():
    """Set the BLAS thread variables to one thread, then put them back exactly."""
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_ENV}
    os.environ.update(dict.fromkeys(BLAS_THREAD_ENV, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _start_method() -> str:
    """``"fork"`` if this process runs exactly one OS thread, else ``"spawn"``.

    The threads are counted in ``/proc/self/task``; where that cannot be
    read, the answer is ``"spawn"``.
    """
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return "spawn"
    return "fork" if threads == 1 else "spawn"


def _parallel_map(func, tasks, workers: int) -> list:
    """The :func:`_outcome` of ``func`` on each task, in task order.

    ``workers - 1`` worker processes take tasks from the front while this
    process solves, from the back, every task no worker has started.  If an
    exception propagates, no pending task is started.

    The workers are forked when this process runs one OS thread, and spawned
    otherwise.  A forked worker inherits every loaded module, so it solves at
    once and exits without interpreter teardown.  The hazard of ``fork`` is a
    lock held by another thread, and a one-thread process has none: BLAS at
    one thread (the spectral commands' default) starts no helper thread,
    and the pool forks all its workers before it starts its manager thread.
    A process with more threads (BLAS helpers at a caller's higher setting,
    pytest) spawns its workers, with the BLAS thread variables set to 1,
    since BLAS reads its thread count when it loads.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [_outcome(partial(func, task)) for task in tasks]
    context = get_context(_start_method())
    pool = ProcessPoolExecutor(min(workers, len(tasks)) - 1, mp_context=context)
    try:
        with _one_blas_thread():  # the pool starts its workers as tasks are submitted
            futures = [pool.submit(func, task) for task in tasks]
        results = [None] * len(tasks)
        for i in reversed(range(len(tasks))):
            if futures[i].cancel():
                results[i] = _outcome(partial(func, tasks[i]))
        for i, future in enumerate(futures):
            if not future.cancelled():
                results[i] = _outcome(future.result)
        return results
    finally:
        pool.shutdown(cancel_futures=True)


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
        _check_stems([stem for stem, *_ in files], list(f_s_values), f"sweep.{f_s_field}")
    else:
        files = [(command, [], f_s_values)]
    base = CircuitParams(gamma=c.gamma, ej_over_ec=c.ej_over_ec, ej_freq=c.ej_freq)
    tasks = [
        replace(base, f=float(f), f_s=float(f_s))
        for *_, group in files
        for f_s in group
        for f in f_axis
    ]
    solve = partial(
        point_record, grid=PhaseGrid(c.n_p, c.n_q), k=s.k, sector=c.sector, seed=s.seed
    )
    results = iter(zip(tasks, _parallel_map(solve, tasks, workers)))

    failed = 0
    for stem, extra_comments, group in files:
        rows, failures = [], []
        for params, rec in islice(results, len(group) * len(f_axis)):
            if isinstance(rec, RuntimeError):
                failures.append(
                    f"f={params.f:.6g} f_s={params.f_s:.6g}: {type(rec).__name__}: {rec}"
                )
                continue
            values = _columns(params.f, params.f_s, rec)
            rows.append([
                "crossing" if name.startswith("K_") and math.isnan(values[name])
                else _fmt(values[name], cfg.output.digits)
                for name in header
            ])
        comments = _base_comments(cfg, units) + extra_comments
        _write_csv(os.path.join(out_dir, f"{stem}.csv"), comments, header, rows)
        log_path = os.path.join(out_dir, f"{stem}_failures.log")
        if failures:
            with open(log_path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write("\n".join(failures) + "\n")
            print(f"warning: {len(failures)} point(s) failed; see {log_path}", file=sys.stderr)
        else:
            with suppress(FileNotFoundError):  # a log of an earlier run is stale
                os.remove(log_path)
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
    cases = cfg.maser.cases
    stems = [f"fig4_Nt_{n_t:g}_tau_{tau_over_pi:g}pi" for n_t, tau_over_pi in cases]
    _check_stems(stems, [list(case) for case in cases], "maser.cases")
    for stem, (n_t, tau_over_pi), mcfg in zip(stems, cases, cfg.maser.maser_configs()):
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


def cmd_estimate_device(cfg: RunConfig, out_dir: str) -> int:
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
    columns = fields(report)
    _write_csv(
        os.path.join(out_dir, "device_report.csv"),
        _base_comments(cfg, "SI units unless suffixed"),
        [column.metadata.get("csv", column.name) for column in columns],
        [[_fmt(getattr(report, column.name), cfg.output.digits) for column in columns]],
    )
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Exit 1, as any bad input does; exit code 2 means numerical failure."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fluxmaser",
        description="Flux-tunable circuit maser: spectra, transition tables and photon statistics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="YAML run configuration")
    common.add_argument("--out", metavar="DIR", default=".", help="output directory")
    common.add_argument("--workers", type=int, metavar="N", help="worker processes for sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; 0 on success, 1 on bad input, 2 on numerical failure.

    The first statement moves every object alive so far into the collector's
    permanent generation (``gc.freeze``).  This module imports every
    command's modules, so that is the whole import heap of numpy, scipy and
    fluxmaser, about 44k objects.  No later collection walks it: not during
    the run, not in a forked sweep worker, whose collections then leave the
    pages it shares with the parent untouched, and not at interpreter exit.
    On 2 x86-64 CPUs the exit of a process that ran ``estimate-device``
    took a median of 105-116 ms with that heap collectable and 19-20 ms
    frozen.  The freeze is made here and not at import, so that a library
    caller's heap is left alone.
    """
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        workers = _resolve_workers(args.workers)
        out_dir = args.out
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out_dir}: cannot create directory: {exc.strerror}") from exc
        if args.command in SPECTRAL:
            return cmd_spectral(args.command, cfg, out_dir, workers)
        if args.command == "fig4":
            return cmd_fig4(cfg, out_dir)
        if args.command == "evolve":
            return cmd_evolve(cfg, out_dir)
        return cmd_estimate_device(cfg, out_dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenExecutor:
        raise
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
