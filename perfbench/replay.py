"""Traced replay: one workload's inputs, serially, through the public functions.

    python3 perfbench/replay.py ROOT INPUTS_JSON SPANS_JSON SECONDS

Replays the generated inputs (as written by ``run.py``) through the layer
functions the command line would call, one process and one point at a time,
and records a span around every call: name, start, end, parent span and
replay id.  Replays repeat until SECONDS have passed (at least one).  Spans
stay in memory and are written to ``SPANS_JSON`` when the process ends.

Nothing under ``src/`` is instrumented: the spans sit in this file, around
the calls into each layer.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = 0

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def replay_spectral(tr: Tracer, fm, cfg, inputs: dict) -> None:
    import numpy as np

    c, s = cfg.circuit, cfg.sweep
    grid = fm.circuit.PhaseGrid(c.n_p, c.n_q)
    for f_s in s.f_s_values:
        for f in np.linspace(s.f_start, s.f_stop, s.f_points):
            with tr.span("point"):
                params = fm.circuit.CircuitParams(
                    gamma=c.gamma, ej_over_ec=c.ej_over_ec, f=float(f), f_s=float(f_s),
                    ej_freq=c.ej_freq,
                )
                with tr.span("circuit.assemble_hamiltonian") as attrs:
                    op = fm.circuit.assemble_hamiltonian(params, grid, sector=c.sector)
                    attrs.update(dim=op.dimension, nnz=int(op.matrix.nnz))
                with tr.span("spectrum.lowest_eigenpairs") as attrs:
                    spec = fm.spectrum.lowest_eigenpairs(op, s.k, seed=s.seed)
                    attrs.update(method=spec.method, max_residual=float(spec.residuals.max()))
                for i, j in ((0, 1), (0, 2), (1, 2)):
                    with tr.span("transitions.transition_element"):
                        fm.transitions.transition_element(spec, i, j)
                for i, j in ((0, 1), (1, 2)):
                    with tr.span("transitions.adiabatic_k") as attrs:
                        try:
                            fm.transitions.adiabatic_k(spec, i, j)
                            attrs["crossing"] = 0
                        except fm.errors.DegenerateGapError:
                            attrs["crossing"] = 1


def _distribution_attrs(attrs: dict, dist) -> None:
    attrs.update(n_max_final=dist.n_max, clamped=dist.clamped_count)


def replay_evolve(tr: Tracer, fm, cfg, inputs: dict) -> None:
    ev = cfg.evolve
    mcfg = fm.maser.MaserConfig.from_interaction_time(
        ev.n_t, ev.tau_int_over_pi * math.pi, n_th=ev.n_th, n_max=ev.n_max
    )
    rho0 = fm.lindblad.fock_state(0, mcfg.n_max)
    with tr.span("lindblad.evolve") as attrs:
        trajectory = fm.lindblad.evolve(rho0, mcfg, ev.t_final, ev.dt, record_every=ev.record_every)
        attrs["steps"] = trajectory.steps
    with tr.span("maser.steady_state_sqc") as attrs:
        _distribution_attrs(attrs, fm.maser.steady_state_sqc(mcfg, auto_extend=False))


def replay_nullspace(tr: Tracer, fm, cfg, inputs: dict) -> None:
    import numpy as np

    ((n_t, tau_over_pi),) = cfg.maser.cases
    for n_max in inputs["n_max_values"]:
        mcfg = fm.maser.MaserConfig.from_interaction_time(
            n_t, tau_over_pi * math.pi, n_th=cfg.maser.n_th, n_max=n_max
        )
        with tr.span("lindblad.steady_state_nullspace") as null_attrs:
            null = fm.lindblad.steady_state_nullspace(mcfg)
        # called again on its own to attribute the nullspace route's time;
        # ``extra`` keeps it out of the work compared with the untraced run
        with tr.span("lindblad.diagonal_generator", extra=1):
            fm.lindblad.diagonal_generator(mcfg)
        with tr.span("maser.steady_state_sqc") as attrs:
            sqc = fm.maser.steady_state_sqc(mcfg, auto_extend=False)
            _distribution_attrs(attrs, sqc)
        with tr.span("maser.steady_state_atomic") as attrs:
            _distribution_attrs(attrs, fm.maser.steady_state_atomic(mcfg, auto_extend=False))
        null_attrs["maxdiff_vs_sqc"] = float(np.max(np.abs(null.p - sqc.p)))


REPLAYS = {
    "sweep": replay_spectral,
    "fig2": replay_spectral,
    "evolve": replay_evolve,
    "nullspace": replay_nullspace,
}


def replay_once(tr: Tracer, fm, inputs: dict) -> None:
    with tr.span("config.load_config"):
        cfg = fm.config.load_config(inputs["config_path"])
    cav = cfg.cavity
    with tr.span("device.device_report"):
        fm.device.device_report(
            gap_over_ej=cav.gap_over_ej,
            t_01=cav.t_01,
            ej_freq=cfg.circuit.ej_freq,
            cavity=fm.device.CavityParams(
                area=cav.area, height=cav.height, quality=cav.quality, squid_area=cav.squid_area
            ),
            beta_l=cav.beta_l,
            n_t=cav.n_t,
            interaction_phase=cav.interaction_phase_over_pi * math.pi,
        )
    with tr.span("work"):
        REPLAYS[inputs["command"]](tr, fm, cfg, inputs)


def main(argv: list[str]) -> int:
    root, inputs_path, spans_path, seconds = argv
    sys.path.insert(0, os.path.join(root, "src"))
    import fluxmaser as fm
    import fluxmaser.config  # noqa: F401  (not imported by the package itself)

    with open(inputs_path, encoding="utf-8") as handle:
        inputs = json.load(handle)
    tr = Tracer()
    deadline = time.perf_counter() + float(seconds)
    while tr.run_id == 0 or time.perf_counter() < deadline:
        replay_once(tr, fm, inputs)
        tr.run_id += 1
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"replays": tr.run_id, "spans": tr.spans}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
