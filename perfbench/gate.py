"""Correctness gate for one workload run, applied outside the timed region.

A failed op is an exit code other than 0, a ``*_failures.log`` entry, a
missing row or a row that fails a check:

- spectral rows: levels ascending, amplitudes finite and >= 0, K finite or
  ``crossing``; two seed-chosen points agree with an independent solve
  within 1e-9 E_J (full dense ``eigvalsh`` up to dimension 4096,
  shift-invert Lanczos at another shift and start vector above it);
- ``evolve``: trace within 1e-9 of 1 on every row and the
  ``steady_state_max_abs_diff`` header below 1e-5;
- ``nullspace``: the master-equation steady state agrees with
  ``steady_state_sqc(auto_extend=False)``, recomputed here, within 1e-8.
"""

from __future__ import annotations

import glob
import hashlib
import math
import os
import random
from dataclasses import dataclass, field

from workloads import K, Inputs

LEVEL_TOL = 1e-9
TRACE_TOL = 1e-9
NULLSPACE_TOL = 1e-8
DENSE_CHECK_LIMIT = 4096
CHECK_SHIFT = -0.25  # the CLI shifts at 0; all low levels lie above both


@dataclass
class GateResult:
    failed_ops: int = 0
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)

    def fail(self, ops: int, message: str) -> None:
        self.failed_ops += ops
        self.problems.append(message)


def read_csv(path: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Comment fields, header and rows of a CSV written by the program."""
    comments, header, rows = {}, [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                comments[key.strip()] = value.strip()
            elif not header:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return comments, header, rows


def csv_hashes(out_dir: str) -> dict[str, str]:
    hashes = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
        with open(path, "rb") as handle:
            hashes[os.path.basename(path)] = hashlib.sha256(handle.read()).hexdigest()
    return hashes


def f_axis(inputs: Inputs) -> list[float]:
    import numpy as np

    return [float(x) for x in np.linspace(inputs.f_start, inputs.f_stop, inputs.f_points)]


def check_points(inputs: Inputs) -> list[tuple[float, int]]:
    """The two (f_s, f index) points this seed checks against an independent solve."""
    rng = random.Random(f"gate:{inputs.workload}:{inputs.seed}")
    cells = [(f_s, i) for f_s in inputs.f_s_values for i in range(inputs.f_points)]
    return rng.sample(cells, min(2, len(cells)))


def independent_levels(inputs: Inputs, f_s: float, f: float):
    """Lowest four levels at one point, from a solver route the CLI does not take."""
    import numpy as np
    import scipy.sparse.linalg as spla
    from fluxmaser.circuit import CircuitParams, PhaseGrid, assemble_hamiltonian

    op = assemble_hamiltonian(CircuitParams(f=f, f_s=f_s), PhaseGrid(*inputs.grid))
    if op.dimension <= DENSE_CHECK_LIMIT:
        vals = np.linalg.eigvalsh(op.matrix.toarray())
    else:
        v0 = np.random.RandomState(inputs.solver_seed + 7919).standard_normal(op.dimension)
        vals = spla.eigsh(op.matrix, k=K, sigma=CHECK_SHIFT, which="LM", v0=v0, tol=0)[0]
    return np.sort(vals)[:4]


def spectral_references(inputs: Inputs) -> dict[tuple[float, int], list[float]]:
    axis = f_axis(inputs)
    return {
        (f_s, i): [float(x) for x in independent_levels(inputs, f_s, axis[i])]
        for f_s, i in check_points(inputs)
    }


def _finite(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _spectral_row_problem(command: str, row: dict[str, str], f: float, reference) -> str | None:
    amplitudes = [_finite(row[name]) for name in ("t_01", "t_02", "t_12")]
    if any(a is None or a < 0 for a in amplitudes):
        return f"amplitude not finite and >= 0 at f={f:.6g}"
    if command == "fig2":
        levels = [_finite(row[f"E{i}"]) for i in range(4)]
        if any(e is None for e in levels) or any(b < a for a, b in zip(levels, levels[1:])):
            return f"levels not finite and ascending at f={f:.6g}"
        if reference is not None:
            worst = max(abs(a - b) for a, b in zip(levels, reference))
            if worst > LEVEL_TOL:
                return f"levels differ from independent solve by {worst:.3e} at f={f:.6g}"
        return None
    gaps = [_finite(row[name]) for name in ("gap_01", "gap_02", "gap_12")]
    if any(g is None for g in gaps) or gaps[0] < 0 or gaps[2] < 0:
        return f"levels not ascending at f={f:.6g}"
    if abs(gaps[0] + gaps[2] - gaps[1]) > LEVEL_TOL:
        return f"gaps inconsistent at f={f:.6g}"
    for name in ("K_01", "K_12"):
        if row[name] != "crossing" and _finite(row[name]) is None:
            return f"{name}={row[name]} at f={f:.6g}"
    if reference is not None:
        want = [reference[1] - reference[0], reference[2] - reference[0], reference[2] - reference[1]]
        worst = max(abs(a - b) for a, b in zip(gaps, want))
        if worst > LEVEL_TOL:
            return f"gaps differ from independent solve by {worst:.3e} at f={f:.6g}"
    return None


def _check_spectral(inputs: Inputs, out_dir: str, references, result: GateResult) -> None:
    axis = f_axis(inputs)
    for f_s in inputs.f_s_values:
        stem = f"{inputs.command}_fs_{f_s:g}"
        path = os.path.join(out_dir, f"{stem}.csv")
        log = os.path.join(out_dir, f"{stem}_failures.log")
        logged = 0
        if os.path.exists(log):
            with open(log, encoding="utf-8") as handle:
                logged = sum(1 for line in handle if line.strip())
            result.problems.append(f"{stem}_failures.log lists {logged} point(s)")
        if not os.path.exists(path):
            result.fail(inputs.f_points, f"{stem}.csv missing")
            continue
        _, header, rows = read_csv(path)
        matched: dict[int, dict[str, str]] = {}
        for row in rows:
            f = _finite(row[0]) if len(row) == len(header) else None
            if f is None:
                continue
            i = min(range(len(axis)), key=lambda j: abs(axis[j] - f))
            if abs(axis[i] - f) <= LEVEL_TOL and i not in matched:
                matched[i] = dict(zip(header, row))
        good = 0
        for i, f in enumerate(axis):
            if i not in matched:
                result.problems.append(f"{stem}.csv: no row for f={f:.6g}")
                continue
            problem = _spectral_row_problem(inputs.command, matched[i], f, references.get((f_s, i)))
            if problem:
                result.problems.append(f"{stem}.csv: {problem}")
            else:
                good += 1
        extra = len(rows) - len(matched)
        if extra:
            result.problems.append(f"{stem}.csv has {extra} unexpected row(s)")
        result.failed_ops += max(inputs.f_points - good, logged) + extra


def _check_evolve(inputs: Inputs, out_dir: str, result: GateResult) -> None:
    path = os.path.join(out_dir, "evolve.csv")
    if not os.path.exists(path):
        result.fail(inputs.steps, "evolve.csv missing")
        return
    comments, header, rows = read_csv(path)
    expected = inputs.steps // inputs.record_every + 1 + (inputs.steps % inputs.record_every != 0)
    problems = []
    if len(rows) != expected:
        problems.append(f"evolve.csv has {len(rows)} rows, expected {expected}")
    for i, row in enumerate(rows):
        values = [_finite(x) for x in row]
        if len(row) != len(header) or any(v is None for v in values):
            problems.append(f"evolve.csv row {i} malformed or not finite")
        elif abs(values[header.index("trace")] - 1.0) > TRACE_TOL:
            problems.append(f"evolve.csv row {i}: trace {row[header.index('trace')]}")
    if inputs.steady_tol is not None:
        diff = _finite(comments.get("steady_state_max_abs_diff", "nan"))
        if diff is None or diff >= inputs.steady_tol:
            problems.append(f"steady_state_max_abs_diff {diff} not below {inputs.steady_tol:g}")
    if problems:
        # rows are samples of one trajectory: any bad row spoils every step
        result.fail(inputs.steps, "; ".join(problems[:5]))


def _check_nullspace(inputs: Inputs, out_dir: str, result: GateResult) -> None:
    import numpy as np
    from fluxmaser.maser import MaserConfig, steady_state_sqc

    for n_max in inputs.n_max_values:
        path = os.path.join(out_dir, f"nullspace_nmax_{n_max}.csv")
        if not os.path.exists(path):
            result.fail(1, f"{os.path.basename(path)} missing")
            continue
        _, header, rows = read_csv(path)
        try:
            p = np.array([float(row[header.index("p_nullspace")]) for row in rows])
        except (ValueError, IndexError):
            result.fail(1, f"{os.path.basename(path)} malformed")
            continue
        cfg = MaserConfig.from_interaction_time(
            inputs.n_t, inputs.tau_int_over_pi * math.pi, n_th=inputs.n_th, n_max=n_max
        )
        reference = steady_state_sqc(cfg, auto_extend=False).p
        if p.shape != reference.shape:
            result.fail(1, f"{os.path.basename(path)} has {p.size} rows, expected {reference.size}")
            continue
        diff = float(np.max(np.abs(p - reference)))
        if not (diff <= NULLSPACE_TOL and p.min() >= 0 and abs(p.sum() - 1.0) <= 1e-9):
            result.fail(1, f"n_max={n_max}: nullspace vs recursion {diff:.3e}, min {p.min():.3e}")


def check_rep(inputs: Inputs, out_dir: str, exit_code: int, references) -> GateResult:
    """Gate one run's outputs; ``references`` come from :func:`spectral_references`."""
    result = GateResult(hashes=csv_hashes(out_dir))
    if exit_code != 0:
        result.fail(inputs.ops_per_rep, f"exit code {exit_code}")
        return result
    if inputs.spectral:
        _check_spectral(inputs, out_dir, references, result)
    elif inputs.command == "evolve":
        _check_evolve(inputs, out_dir, result)
    else:
        _check_nullspace(inputs, out_dir, result)
    result.failed_ops = min(result.failed_ops, inputs.ops_per_rep)
    return result
