"""Benchmark of fluxmaser: seeded closed-loop workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload back to back as a child process (one
client; the next run starts only after the previous one exited) for at
least ``S`` seconds and two runs, gates every run's outputs, and reports
the end-to-end metrics.  ``--trace 1`` runs the workload once untraced,
then replays the same inputs serially through the layer functions with a
span around each call, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every correctness gate passed, 1 when one failed, 2 when the
benchmark could not run at all.  See ``README.md`` for the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import gate
from workloads import WORKLOADS, Inputs, make_inputs

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # every run must exit within 180 s
MIN_REPS = 2
SETUP_PROBES = 4  # dedicated set-up probes before the runs, and again after them

# metric names and units are declared once, in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    exit_code: int
    spawned: float  # CLOCK_MONOTONIC
    exited: float
    cpu_s: float
    peak_rss_mb: float

    @property
    def wall_s(self) -> float:
        return self.exited - self.spawned


@dataclass
class Rep:
    child: Child
    setup_s: float
    ok_ops: int
    gate: gate.GateResult

    @property
    def post_setup_s(self) -> float:
        return self.child.wall_s - self.setup_s


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], deadline: float, log_path: Path) -> Child:
    """Run ``argv`` in its own process group; wall, CPU and peak RSS of its whole tree."""
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(max(0.0, deadline - spawned), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # nothing the child started may outlive it
    return Child(
        exit_code=proc.returncode,
        spawned=spawned,
        exited=exited,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def child_argv(stamp: Path, config: Path, mode: str, *rest: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), str(ROOT), str(stamp), str(config), mode, *rest]


def read_stamp(stamp: Path, child: Child) -> dict:
    try:
        with open(stamp, encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        return {"setup_s": child.wall_s}
    record["setup_s"] = record["setup_done"] - child.spawned
    return record


def setup_probe(run_dir: Path, config: Path, index: int, deadline: float) -> tuple[float, dict]:
    stamp = run_dir / f"probe{index}.json"
    child = spawn(child_argv(stamp, config, "setup"), deadline, run_dir / f"probe{index}.log")
    if child.exit_code != 0:
        log = (run_dir / f"probe{index}.log").read_text(errors="replace")
        raise BenchError(f"set-up probe exited with {child.exit_code}:\n{log}")
    record = read_stamp(stamp, child)
    return record["setup_s"], record.get("blas", {})


def job_args(inputs: Inputs, out_dir: Path, config: Path) -> tuple[str, ...]:
    if inputs.command == "nullspace":
        return ("nullspace", str(out_dir), ",".join(str(n) for n in inputs.n_max_values))
    argv = ("cli", inputs.command, "--config", str(config), "--out", str(out_dir))
    if inputs.spectral:
        argv += ("--workers", str(inputs.workers))
    return argv


def run_rep(inputs, run_dir: Path, config: Path, index: int, references, deadline: float) -> Rep:
    out_dir = run_dir / f"rep{index}"
    stamp = run_dir / f"rep{index}.json"
    child = spawn(
        child_argv(stamp, config, *job_args(inputs, out_dir, config)),
        deadline,
        run_dir / f"rep{index}.log",
    )
    os.makedirs(out_dir, exist_ok=True)
    result = gate.check_rep(inputs, str(out_dir), child.exit_code, references)
    if child.exit_code != 0:
        tail = (run_dir / f"rep{index}.log").read_text(errors="replace")[-2000:]
        result.problems.append(f"child output:\n{tail}")
    return Rep(
        child=child,
        setup_s=read_stamp(stamp, child)["setup_s"],
        ok_ops=inputs.ops_per_rep - result.failed_ops,
        gate=result,
    )


def run_reps(inputs, run_dir, config, seconds, references, deadline, min_reps) -> list[Rep]:
    """Closed loop: start the next run only after the previous one exited."""
    reps: list[Rep] = []
    start = time.monotonic()
    while len(reps) < min_reps or time.monotonic() - start < seconds:
        longest = max((r.child.wall_s for r in reps), default=0.0)
        if reps and time.monotonic() + 1.5 * longest > deadline:
            break
        reps.append(run_rep(inputs, run_dir, config, len(reps), references, deadline))
    return reps


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return pct, sorted(samples)[rank - 1]


def code_digest() -> str:
    """Digest of the program's sources and of the benchmark's own, which makes the inputs."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(blas: dict) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{deps.get('name')} {deps.get('version')}",
        "blas_threads_seen_by_child": blas.get("threads"),
        "thread_env_seen_by_child": blas.get("env"),
        "nproc": os.cpu_count(),
    }


def check_fingerprint(key: str, hashes: dict[str, str]) -> str | None:
    """Compare with earlier runs of this source, seed and environment; record on first sight."""
    store = WORK / "fingerprints.json"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    if key in known:
        if known[key] != hashes:
            return f"CSV sha256 differ from an earlier run with the same seed ({key})"
        return None
    known[key] = hashes
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return None


def fingerprint_problems(inputs, reps: list[Rep], env: dict) -> list[str]:
    hashes = reps[0].gate.hashes
    problems = []
    if any(r.gate.hashes != hashes for r in reps):
        problems.append("CSV sha256 differ between runs of one seed within this run")
    env_key = hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:12]
    inputs_key = hashlib.sha256(repr(inputs).encode()).hexdigest()[:12]
    key = f"{inputs.workload}|seed={inputs.seed}|inputs={inputs_key}|code={code_digest()}|env={env_key}"
    passed = all(r.gate.failed_ops == 0 and not r.gate.problems for r in reps)
    if passed and (problem := check_fingerprint(key, hashes)) is not None:
        problems.append(problem)
    return problems


def end_to_end(reps: list[Rep], setup_samples: list[float]) -> dict[str, tuple[float, str]]:
    """Each metric with how it was reduced over the samples."""
    med = statistics.median
    n = len(reps)
    return {
        "wall_s": (med(r.child.wall_s for r in reps), f"median of {n}"),
        # the fastest set-up: the machine's load only ever adds to it
        "setup_s": (min(setup_samples), f"min of {len(setup_samples)}"),
        "ops_per_s": (med(r.ok_ops / r.post_setup_s for r in reps), f"median of {n}"),
        "cpu_s": (med(r.child.cpu_s for r in reps), f"median of {n}"),
        "peak_rss_mb": (med(r.child.peak_rss_mb for r in reps), f"median of {n}"),
    }


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_layer(trace: dict, inputs: Inputs, untraced_post_s: float) -> tuple[dict, dict]:
    """Per-layer metrics (per replay) from the replay spans, plus notes for the report."""
    spans, replays = trace["spans"], trace["replays"]
    own = _self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)

    def dur(i):
        return spans[i]["end"] - spans[i]["start"]

    def busy(name):
        return sum(dur(i) for i in by_name[name]) / replays

    def calls(name):
        return len(by_name[name]) / replays

    def attr_values(name, key):
        return [spans[i]["attrs"][key] for i in by_name[name]]

    def last_attr(name, key):
        values = attr_values(name, key)
        return values[-1] if values else 0

    eig = "spectrum.lowest_eigenpairs"
    eig_ms = [dur(i) * 1e3 for i in by_name[eig]]
    tail = tail_percentile(eig_ms)
    methods = attr_values(eig, "method")
    point_s = sum(dur(i) for i in by_name["point"])
    work_s = busy("work") - sum(dur(i) for i, s in enumerate(spans) if s["attrs"].get("extra")) / replays
    nullspace_diffs = attr_values("lindblad.steady_state_nullspace", "maxdiff_vs_sqc")
    steps = sum(attr_values("lindblad.evolve", "steps")) / replays
    metrics = {
        f"{eig}.calls": calls(eig),
        f"{eig}.busy_s": busy(eig),
        f"{eig}.p50_ms": statistics.median(eig_ms) if eig_ms else 0.0,
        f"{eig}.ptail_ms": tail[1] if tail else 0.0,
        f"{eig}.dense_calls": methods.count("dense") / replays,
        f"{eig}.lanczos_calls": methods.count("lanczos") / replays,
        f"{eig}.max_residual": max(attr_values(eig, "max_residual"), default=0.0),
        f"{eig}.share_of_point": sum(own[i] for i in by_name[eig]) / point_s if point_s else 0.0,
        "circuit.assemble_hamiltonian.calls": calls("circuit.assemble_hamiltonian"),
        "circuit.assemble_hamiltonian.busy_s": busy("circuit.assemble_hamiltonian"),
        "circuit.dim": last_attr("circuit.assemble_hamiltonian", "dim"),
        "circuit.nnz": last_attr("circuit.assemble_hamiltonian", "nnz"),
        "transitions.transition_element.busy_s": busy("transitions.transition_element"),
        "transitions.adiabatic_k.busy_s": busy("transitions.adiabatic_k"),
        "transitions.adiabatic_k.crossings": sum(attr_values("transitions.adiabatic_k", "crossing"))
        / replays,
        "cli.parallel_efficiency": work_s / (inputs.workers * untraced_post_s),
        "lindblad.evolve.busy_s": busy("lindblad.evolve"),
        "lindblad.evolve.steps": steps,
        "lindblad.generator_calls": 4 * steps,
        "lindblad.steady_state_nullspace.busy_s": busy("lindblad.steady_state_nullspace"),
        "lindblad.diagonal_generator.busy_s": busy("lindblad.diagonal_generator"),
        "lindblad.nullspace_vs_recursion_maxdiff": max(nullspace_diffs, default=0.0),
        "config.load_config.busy_s": busy("config.load_config"),
        "device.device_report.busy_s": busy("device.device_report"),
        # against the serial untraced run; not defined for a parallel one
        "trace.overhead_frac": work_s / untraced_post_s - 1.0 if inputs.workers == 1 else 0.0,
    }
    for route in ("sqc", "atomic"):
        name = f"maser.steady_state_{route}"
        metrics[f"{name}.busy_s"] = busy(name)
        metrics[f"{name}.n_max_final"] = last_attr(name, "n_max_final")
        metrics[f"{name}.clamped"] = last_attr(name, "clamped")
    notes = {
        "replays": replays,
        "eigensolves": len(eig_ms),
        "ptail": f"p{tail[0]}" if tail else "none (fewer than 11 samples)",
        "replay_work_s": work_s,
        "untraced_post_setup_s": untraced_post_s,
    }
    return metrics, notes


def report(lines: list[str], correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for line in lines:
        print(line)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced sizes, for checking the benchmark itself"
    )
    return parser.parse_args(argv)


def bench(args) -> int:
    if not (ROOT / "src" / "fluxmaser" / "cli.py").is_file():
        raise BenchError(f"no fluxmaser sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    deadline = time.monotonic() + RUN_LIMIT_S
    inputs = make_inputs(args.workload, args.seed, smoke=args.smoke)
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir()
    try:
        config = run_dir / "config.yaml"
        config.write_text(inputs.yaml_text)
        references = gate.spectral_references(inputs) if inputs.spectral else {}
        if args.trace:
            return traced(args, inputs, run_dir, config, references, deadline)
        return untraced(args, inputs, run_dir, config, references, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _gate_lines(reps: list[Rep], extra: list[str]) -> tuple[list[str], int, int]:
    attempted = sum(r.ok_ops + r.gate.failed_ops for r in reps)
    failed = sum(r.gate.failed_ops for r in reps)
    lines = []
    for i, r in enumerate(reps):
        lines += [f"  gate run {i}: {p}" for p in r.gate.problems]
    lines += [f"  gate: {p}" for p in extra]
    return lines, attempted, failed


def untraced(args, inputs, run_dir, config, references, deadline) -> int:
    probe_deadline = min(deadline, time.monotonic() + 60.0)
    probes = [setup_probe(run_dir, config, i, probe_deadline) for i in range(SETUP_PROBES)]
    env = environment(probes[-1][1])
    reps = run_reps(inputs, run_dir, config, args.seconds, references, deadline, MIN_REPS)
    probe_deadline = min(deadline, time.monotonic() + 60.0)
    probes += [setup_probe(run_dir, config, SETUP_PROBES + i, probe_deadline) for i in range(SETUP_PROBES)]
    setup_samples = [s for s, _ in probes] + [r.setup_s for r in reps]
    fp_problems = fingerprint_problems(inputs, reps, env)
    gate_lines, attempted, failed = _gate_lines(reps, fp_problems)
    correct = failed == 0 and not fp_problems and not any(r.gate.problems for r in reps)
    e2e = end_to_end(reps, setup_samples)
    units = dict(END_TO_END)
    lines = [
        f"workload {inputs.workload}  seed {inputs.seed}  closed loop, 1 client, "
        f"{len(reps)} run(s), {inputs.ops_per_rep} op(s) per run, workers {inputs.workers}",
    ]
    lines += [
        f"  {name:<12} {value:>12.6g} {units[name]:<5} {how}" for name, (value, how) in e2e.items()
    ]
    lines.append(f"  {'failed_frac':<12} {failed / attempted:>12.6g} {'1':<5} {failed}/{attempted} ops")
    lines.append("  wall_s of each run: " + " ".join(f"{r.child.wall_s:.4f}" for r in reps))
    lines += gate_lines
    lines.append("env " + json.dumps(env, sort_keys=True))
    lines.append("csv_sha256 " + json.dumps(reps[0].gate.hashes, sort_keys=True))
    metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}
    report(lines, correct, attempted, failed, metrics)
    return 0 if correct else 1


def traced(args, inputs, run_dir, config, references, deadline) -> int:
    (rep,) = run_reps(inputs, run_dir, config, 0.0, references, deadline, 1)
    inputs_path = run_dir / "inputs.json"
    inputs_path.write_text(
        json.dumps({"config_path": str(config), "command": inputs.command,
                    "n_max_values": list(inputs.n_max_values)})
    )
    spans_path = run_dir / "spans.json"
    child = spawn(
        [sys.executable, str(HERE / "replay.py"), str(ROOT), str(inputs_path), str(spans_path),
         str(args.seconds)],
        deadline,
        run_dir / "replay.log",
    )
    if child.exit_code != 0:
        tail = (run_dir / "replay.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"traced replay exited with {child.exit_code}:\n{tail}")
    trace = json.loads(spans_path.read_text())
    metrics, notes = per_layer(trace, inputs, rep.post_setup_s)
    gate_lines, attempted, failed = _gate_lines([rep], [])
    correct = failed == 0 and not rep.gate.problems
    units = dict(PER_LAYER)
    lines = [
        f"workload {inputs.workload}  seed {inputs.seed}  traced: {notes['replays']} replay(s), "
        f"{notes['replay_work_s']:.4f} s work per replay; untraced run "
        f"{notes['untraced_post_setup_s']:.4f} s after set-up, workers {inputs.workers}",
        f"  eigensolve samples {notes['eigensolves']}, tail percentile {notes['ptail']}",
    ]
    lines += [f"  {name:<45} {metrics[name]:>12.6g} {units[name]}" for name, _ in PER_LAYER]
    lines += gate_lines
    out = {name: {"value": float(metrics[name]), "unit": unit} for name, unit in PER_LAYER}
    report(lines, correct, attempted, failed, out)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
