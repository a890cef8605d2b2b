"""Run configuration parsing and the batch CLI."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import fluxmaser
from fluxmaser import CircuitParams, PhaseGrid, cli, point_record, spectrum
from fluxmaser.cli import BLAS_THREAD_ENV, _fmt, _parallel_map, main
from fluxmaser.config import config_digest, load_config
from fluxmaser.device import device_report
from fluxmaser.errors import ConfigError, ConvergenceError

from .conftest import arpack_no_convergence, nan_eigenvector

TINY_CONFIG = """\
circuit:
  n_p: 41
  n_q: 81
sweep:
  f_start: 0.48
  f_stop: 0.50
  f_points: 3
  f_s_values: [0.27]
  ramp_f_s_values: [0.27]
  k: 4
maser:
  n_max: 64
  cases: [[1.0, 1.4]]
evolve:
  n_max: 16
  dt: 0.004
  t_final: 2.0
  record_every: 100
  trajectory_levels: 4
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(TINY_CONFIG)
    return path


def read_rows(path):
    with open(path, newline="") as handle:
        comments = []
        rows = []
        for line in handle:
            if line.startswith("# "):
                comments.append(line[2:].strip())
            else:
                rows.append(line.rstrip("\n"))
    header = rows[0].split(",")
    body = list(csv.reader(rows[1:]))
    return comments, header, body


# -- configuration ----------------------------------------------------------


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.circuit.n_p == 81
    assert cfg.circuit.n_q == 161
    assert cfg.sweep.f_s_values == (0.0, 0.22, 0.27)
    assert cfg.output.digits == 12


def test_empty_file_means_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config(path) == load_config(None)


def test_partial_override(tiny_config):
    cfg = load_config(tiny_config)
    assert cfg.circuit.n_p == 41
    assert cfg.circuit.gamma == 0.5  # untouched default
    assert cfg.maser.cases == ((1.0, 1.4),)


def test_unknown_keys_rejected(tmp_path):
    bad_top = tmp_path / "a.yaml"
    bad_top.write_text("circuitt: {}\n")
    with pytest.raises(ConfigError):
        load_config(bad_top)
    bad_nested = tmp_path / "b.yaml"
    bad_nested.write_text("circuit: {n_pp: 81}\n")
    with pytest.raises(ConfigError, match=r"^circuit\.n_pp: unknown"):
        load_config(bad_nested)
    # keys of mixed types cannot be sorted as they are
    mixed = tmp_path / "c.yaml"
    mixed.write_text("1: 2\nfoo: 3\n")
    with pytest.raises(ConfigError, match="foo"):
        load_config(mixed)


@pytest.mark.parametrize(
    "text, message",
    [
        ("circuit: {n_p: 41, n_p: 81}\n", r"^circuit\.n_p: duplicate key"),
        ("sweep: {k: 5}\nsweep: {f_points: 3}\n", r"^sweep: duplicate key"),
        # an alias into its own anchor ends the key walk rather than recursing
        ("sweep: &a [*a]\n", r"^section 'sweep' must be a mapping"),
        ("circuit: [1,\n", r"^cannot parse \S*cfg\.yaml: expected the node content, but found "
                            r"'<stream end>', line 2, column 1$"),
        ("- circuit\n- sweep\n", r"^top level of \S*cfg\.yaml must be a mapping"),
    ],
    ids=["nested-key", "top-level-block", "self-alias", "unparsable", "not-a-mapping"],
)
def test_duplicate_keys_exit_one(text, message, tmp_path, capsys):
    # YAML's plain loader keeps the last value, and the digest hashes only that
    # one; a file that is no YAML mapping at all fails the same way
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(cfg)
    assert main(["fig2", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert re.search(message.lstrip("^"), err, re.M)
    assert err.startswith("error: ") and err.count("error:") == 1 and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.rglob("*.csv"))


def test_type_errors_rejected(tmp_path):
    for snippet in (
        "circuit: {gamma: wide}\n",
        "circuit: {n_p: 41.5}\n",
        "circuit: {n_p: true}\n",
        "sweep: {f_s_values: 0.27}\n",
        "circuit: {sector: torus}\n",
        "sweep: {f_points: 0}\n",
        "sweep: {k: 2}\n",
        "sweep: {k: 3}\n",
        "sweep: {k: 9}\n",
        "sweep: {f_s_values: []}\n",
        "sweep: {ramp_f_s_values: []}\n",
        "maser: {cases: []}\n",
        "maser: {cases: [1.0, 2.0]}\n",
        "maser: {cases: [[1.0]]}\n",
        "output: {digits: -1}\n",
        "output: {digits: 0}\n",
        "output: {digits: 18}\n",
        "output: {workers: 0}\n",
        "sweep: {k: null}\n",
        "circuit: {n_p: null}\n",
        "output: {digits: null}\n",
        "sweep: {f_s_values: [[0.1]]}\n",
        "sweep: {f_s_values: [0.1, null]}\n",
        "maser: {cases: [[1.0, 1.4], 2.0]}\n",
        "sweep: {seed: -1}\n",
        "sweep: {seed: 4294967296}\n",
        "maser: {n_max: 3}\n",
        "maser: {n_max: 4097}\n",
        "maser: {n_th: -1.0}\n",
        "evolve: {n_max: 4097}\n",
        "sweep: {ramp_f_s_values: [0.27, 0.27]}\n",
    ):
        path = tmp_path / "bad.yaml"
        path.write_text(snippet)
        block, key = re.match(r"(\w+): \{(\w+):", snippet).groups()
        # the message starts with the offending key, named with its block
        with pytest.raises(ConfigError, match=rf"^{block}\.{key}\b"):
            load_config(path)


def test_integer_promoted_to_float(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("circuit: {gamma: 1}\n")
    cfg = load_config(path)
    assert cfg.circuit.gamma == 1.0
    assert isinstance(cfg.circuit.gamma, float)


def test_digest_tracks_content(tiny_config):
    base = config_digest(load_config(None))
    assert base == config_digest(load_config(None))
    assert base != config_digest(load_config(tiny_config))


def test_readme_run_yaml_loads(tmp_path):
    # the documented example names only keys the loader accepts, at their defaults
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```yaml\n(# run\.yaml\n.*?)```", readme, re.S).group(1)
    path = tmp_path / "run.yaml"
    path.write_text(block)
    assert load_config(path) == load_config(None)


# -- worker resolution ------------------------------------------------------


# set in this process after import: a forked worker sees it, a spawned one
# imports this module afresh and does not
_PARENT_MARK = None


def _thread_env(index):
    time.sleep(0.05)  # long enough for the pool to hand some tasks to its worker
    return index, os.getpid(), [os.environ.get(name) for name in BLAS_THREAD_ENV], _PARENT_MARK


@pytest.mark.parametrize("preset", ["3", None], ids=["preset", "absent"])
def test_pool_workers_see_one_blas_thread(monkeypatch, preset):
    for name in BLAS_THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    monkeypatch.setattr(sys.modules[__name__], "_PARENT_MARK", "parent")
    before = dict(os.environ)
    tasks = list(range(8))
    # a second thread makes this a multi-threaded parent whatever BLAS runs
    stop = threading.Event()
    holder = threading.Thread(target=stop.wait)
    holder.start()
    try:
        results = _parallel_map(_thread_env, tasks, workers=2)
    finally:
        stop.set()
        holder.join()
    # results come back in task order, whichever process solved each task
    assert [index for index, *_ in results] == tasks
    # the parent solves tasks too; every task a worker solved ran in a spawned
    # process that saw one thread
    workers = [(env, mark) for _, pid, env, mark in results if pid != os.getpid()]
    assert workers
    assert all(env == ["1"] * 3 and mark is None for env, mark in workers)
    # the parent's environment comes back exactly, absent variables included
    assert dict(os.environ) == before
    assert os.environ.get("OPENBLAS_NUM_THREADS") == preset


POOL_PROBE = """\
import os
import time

MARK = None


def task(index):
    time.sleep(0.05)  # long enough for the pool to hand some tasks to its worker
    return index, os.getpid(), MARK
"""

POOL_RUN = """\
import json, os, sys
import fluxmaser.cli as cli
import pool_probe

pool_probe.MARK = "parent"
results = cli._parallel_map(pool_probe.task, list(range(8)), 2)
code = cli.main(["sweep", "--config", sys.argv[1], "--out", sys.argv[2], "--workers", "2"])
print(json.dumps({"pid": os.getpid(), "results": results, "code": code}))
"""


@pytest.mark.parametrize(
    "env, forked",
    [(dict.fromkeys(BLAS_THREAD_ENV, "1"), True), ({"OPENBLAS_NUM_THREADS": "2"}, False)],
    ids=["one-thread-forks", "callers-two-threads-spawn"],
)
def test_pool_start_method_follows_the_thread_count(tiny_config, tmp_path, env, forked):
    # one BLAS thread leaves the process one OS thread, so its workers are
    # forked and see what the parent set after import; at two BLAS threads the
    # helper thread makes fork unsafe, so they are spawned, with no warning
    (tmp_path / "pool_probe.py").write_text(POOL_PROBE)
    src = str(Path(fluxmaser.__file__).resolve().parents[1])
    clean = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_ENV}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", POOL_RUN, str(tiny_config), str(tmp_path / "out")],
        env={**clean, **env, "PYTHONPATH": os.pathsep.join([src, str(tmp_path)])},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    run = json.loads(proc.stdout)
    assert run["code"] == 0
    assert [index for index, *_ in run["results"]] == list(range(8))
    marks = [mark for _, pid, mark in run["results"] if pid != run["pid"]]
    assert marks
    assert marks == ["parent" if forked else None] * len(marks)


def test_unreadable_thread_count_spawns(monkeypatch):
    def unreadable(path):
        raise OSError(f"cannot list {path}")

    monkeypatch.setattr(os, "listdir", unreadable)
    assert cli._start_method() == "spawn"


def test_default_workers_are_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert cli._resolve_workers(None) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._resolve_workers(None) == 64
    assert cli._resolve_workers(2) == 2


def test_nonpositive_workers_flag_exits_one(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fig2", "--config", str(tiny_config), "--workers", "0", "--out", str(out)]) == 1
    assert ">= 1" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_fmt_uses_significant_digits():
    assert _fmt(1.0 / 3.0, 12) == "0.333333333333"
    assert _fmt(2.0, 12) == "2"


# -- CLI commands ------------------------------------------------------------


def test_fig2_writes_expected_table(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["fig2", "--config", str(tiny_config), "--out", str(out), "--workers", "1"]) == 0
    comments, header, body = read_rows(out / "fig2_fs_0.27.csv")
    assert header == ["f", "E0", "E1", "E2", "E3", "t_01", "t_02", "t_12"]
    assert len(body) == 3
    assert any(c.startswith("tool_version:") for c in comments)
    assert any(c.startswith("config_sha256:") for c in comments)
    # 12 significant digits in the payload
    assert any(len(cell.replace("-", "").replace(".", "").lstrip("0")) >= 11 for cell in body[0][1:])


def test_fig3_zero_ramp_columns_without_screening(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "circuit: {n_p: 41, n_q: 81}\n"
        "sweep: {f_start: 0.47, f_stop: 0.48, f_points: 2, ramp_f_s_values: [0.0], k: 4}\n"
    )
    out = tmp_path / "out"
    assert main(["fig3", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    _, header, body = read_rows(out / "fig3.csv")
    assert header == ["f", "f_s", "K_01", "K_12"]
    assert all(row[2] == "0" and row[3] == "0" for row in body)


def test_fig4_distributions_normalized(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["fig4", "--config", str(tiny_config), "--out", str(out)]) == 0
    _, header, body = read_rows(out / "fig4_Nt_1_tau_1.4pi.csv")
    assert header == ["n", "p_sqc", "p_atomic"]
    sqc = np.array([float(row[1]) for row in body])
    atomic = np.array([float(row[2]) for row in body])
    assert abs(sqc.sum() - 1.0) < 1e-9
    assert abs(atomic.sum() - 1.0) < 1e-9


def test_fig4_overflow_exits_two_without_csv(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("maser: {cases: [[1000000.0, 10.0]]}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fig4", "--config", str(cfg), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_evolve_reports_steady_state_distance(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(tiny_config), "--out", str(out)]) == 0
    comments, header, body = read_rows(out / "evolve.csv")
    assert header[:2] == ["t", "trace"]
    assert header[-1] == "mean_n"
    assert any(c.startswith("steady_state_max_abs_diff:") for c in comments)
    assert float(body[-1][1]) == pytest.approx(1.0, abs=1e-9)


def test_evolve_final_row_independent_of_sampling_step(tmp_path):
    # dt sets only the sampled times, not an integrator step
    finals = []
    for name, block in (("coarse", "dt: 0.02"), ("fine", "dt: 0.002, record_every: 500")):
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(f"evolve: {{n_max: 16, {block}, t_final: 1.0}}\n")
        out = tmp_path / name
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        _, _, body = read_rows(out / "evolve.csv")
        finals.append(body[-1])
    assert finals[0][0] == finals[1][0] == "1"
    np.testing.assert_allclose(
        np.array(finals[0], dtype=float), np.array(finals[1], dtype=float), rtol=0, atol=1e-11
    )


@pytest.mark.parametrize(
    "block",
    [
        "{record_every: 0}",
        "{dt: 0.0}",
        "{dt: -0.001}",
        "{t_final: -1.0}",
        "{trajectory_levels: 0}",
        "{dt: .nan}",
    ],
)
def test_evolve_rejects_bad_inputs_up_front(block, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"evolve: {block}\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
    key = re.match(r"\{(\w+):", block).group(1)
    assert capsys.readouterr().err.startswith(f"error: evolve.{key}: ")
    assert not (out / "evolve.csv").exists()


def test_evolve_infinite_horizon_exits_one_without_traceback(tmp_path):
    # a real process, so that an exception escaping main would show as a traceback
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("evolve: {t_final: .inf}\n")
    src = str(Path(fluxmaser.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "fluxmaser.cli", "evolve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1
    assert "t_final" in result.stderr and "Traceback" not in result.stderr
    assert not (tmp_path / "out" / "evolve.csv").exists()


@pytest.mark.parametrize(
    "snippet", ["{t_final: 1.0e+300, dt: 1.0e-300}", "{t_final: 1.0e+12}"], ids=["overflow", "huge"]
)
def test_evolve_unbounded_step_count_exits_one_without_traceback(snippet, tmp_path):
    # a finite horizon whose step count overflows, or would record ~1e13 states
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"evolve: {snippet}\n")
    src = str(Path(fluxmaser.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "fluxmaser.cli", "evolve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1
    assert "t_final/dt" in result.stderr and "Traceback" not in result.stderr
    assert not (tmp_path / "out" / "evolve.csv").exists()


@pytest.mark.parametrize(
    ("command", "snippet", "key"),
    [
        ("sweep", "sweep: {f_start: .nan}", "f_start"),
        ("sweep", "sweep: {f_stop: .inf}", "f_stop"),
        ("sweep", "sweep: {f_s_values: [.inf]}", "f_s_values"),
        ("fig3", "sweep: {ramp_f_s_values: [0.27, .nan]}", "ramp_f_s_values"),
        ("fig3", "circuit: {ej_freq: .inf}", "ej_freq"),
        ("fig2", "circuit: {ej_over_ec: .nan}", "ej_over_ec"),
        ("estimate-device", "cavity: {gap_over_ej: .nan}", "gap_over_ej"),
        ("estimate-device", "cavity: {t_01: 0}", "t_01"),
        ("estimate-device", "cavity: {gap_over_ej: -0.05}", "gap_over_ej"),
        ("estimate-device", "cavity: {n_t: -1.0}", "n_t"),
        ("estimate-device", "cavity: {quality: .inf}", "quality"),
        ("fig4", "maser: {cases: [[.inf, 1.4]]}", "cases"),
        ("fig4", "maser: {cases: [[1.0, .nan]]}", "cases"),
        ("fig4", "maser: {n_th: .inf}", "n_th"),
        ("evolve", "evolve: {n_t: .inf}", "n_t"),
        ("evolve", "evolve: {tau_int_over_pi: .inf}", "tau_int_over_pi"),
        ("evolve", "evolve: {n_th: .nan}", "n_th"),
        ("evolve", "evolve: {n_t: 0.0}", "n_t"),
        ("fig4", "maser: {cases: [[0.0, 1.4]]}", "cases"),
        ("fig2", "circuit: {n_p: 8}", "n_p"),
        ("fig4", "circuit: {n_p: 8}", "n_p"),
        ("fig2", "circuit: {n_q: 16}", "n_q"),
        ("fig4", "circuit: {n_q: 16}", "n_q"),
    ],
)
def test_non_finite_or_nonpositive_inputs_exit_one(command, snippet, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(snippet + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # the message names the config block and key, not the library call behind them
    assert f"{snippet.split(':')[0]}.{key}" in err
    assert "from_interaction_time" not in err
    assert not out.exists() or not os.listdir(out)


def test_estimate_device_prints_and_writes(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["estimate-device", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "coupling g" in stdout
    assert (out / "device_report.csv").exists()


def test_device_report_csv_columns(tmp_path):
    out = tmp_path / "out"
    assert main(["estimate-device", "--out", str(out)]) == 0
    _, header, body = read_rows(out / "device_report.csv")
    assert header == (
        "nu_ghz,wavelength_m,phi_w0_over_phi0,g_rad_s,g_mhz,tau_interaction_ns,tau_photon_s,"
        "i_c_amp,l_j_henry,l_loop_henry,beta_l,sigma_z_over_ej,sigma_z_over_gap"
    ).split(",")
    report = device_report()  # the default config's cavity block is the library default
    assert body == [[_fmt(value, load_config(None).output.digits)
                     for value in dataclasses.astuple(report)]]


def test_sweep_covers_all_screening_values(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "circuit: {n_p: 41, n_q: 81}\n"
        "sweep: {f_start: 0.47, f_stop: 0.48, f_points: 2, f_s_values: [0.0, 0.22], k: 4}\n"
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    for f_s in ("0", "0.22"):
        _, header, body = read_rows(out / f"sweep_fs_{f_s}.csv")
        assert header[0] == "f"
        assert "K_01" in header
        assert len(body) == 2


def test_sweep_csv_is_a_projection_of_point_record(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(tiny_config), "--out", str(out), "--workers", "1"]) == 0
    _, header, body = read_rows(out / "sweep_fs_0.27.csv")
    f_values = np.linspace(0.48, 0.50, 3)
    records = [
        point_record(CircuitParams(f=float(f), f_s=0.27), PhaseGrid(41, 81), k=4) for f in f_values
    ]
    columns = {
        "f": f_values,
        "f_s": np.full(3, 0.27),
        "gap_01": [r.levels[1] - r.levels[0] for r in records],
        "gap_02": [r.levels[2] - r.levels[0] for r in records],
        "gap_12": [r.levels[2] - r.levels[1] for r in records],
        "t_01": [r.t_01 for r in records],
        "t_02": [r.t_02 for r in records],
        "t_12": [r.t_12 for r in records],
        "K_01": [r.k_01 for r in records],
        "K_12": [r.k_12 for r in records],
    }
    assert body == [[_fmt(columns[name][n], 12) for name in header] for n in range(3)]


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("nonsense: 1\n")
    assert main(["fig2", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--grid", "41x81"], ["--seed", "1"]])
def test_removed_flags_rejected_by_argparse(flag, tmp_path, capsys):
    # the grid and the solver seed are set only in the config file
    with pytest.raises(SystemExit) as exc:
        main(["fig2", *flag, "--out", str(tmp_path / "out")])
    # a usage error is bad input, exit 1; 2 is kept for numerical failure
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert "required: command" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("command", "snippet", "key"),
    [
        ("fig2", "sweep: {seed: -1}", "sweep.seed"),
        ("fig3", "sweep: {ramp_f_s_values: [0.27, 0.27]}", "sweep.ramp_f_s_values"),
        ("fig4", "maser: {n_max: 3}", "maser.n_max"),
        ("fig4", "maser: {n_th: -1.0}", "maser.n_th"),
        ("sweep", "sweep: {f_start: -1.0e+308, f_stop: 1.0e+308}", "sweep.f_start, sweep.f_stop"),
        ("fig2", "circuit: {ej_over_ec: 1.0e-300}", "circuit.ej_over_ec"),
        ("sweep", "sweep: {f_points: 1000000000000}", "sweep.f_points"),
        ("fig2", "circuit: {n_p: 1026}", "circuit.n_p"),
        ("sweep", "circuit: {n_q: 1000000000000}", "circuit.n_q"),
    ],
)
def test_rule_breaks_exit_one_before_solving(command, snippet, key, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a point was solved")

    monkeypatch.setattr(cli, "point_record", never)
    monkeypatch.setattr(cli, "steady_state_sqc", never)
    cfg = tmp_path / "cfg.yaml"
    # the grid joins a snippet's own circuit block: a second one would be a
    # duplicate key, and so would a grid key the snippet sets itself
    if snippet.startswith("circuit: {"):
        grid = "".join(f"{k}: {v}, " for k, v in (("n_p", 41), ("n_q", 81)) if k not in snippet)
        cfg.write_text(snippet.replace("{", "{" + grid, 1) + "\n")
    else:
        cfg.write_text("circuit: {n_p: 41, n_q: 81}\n" + snippet + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ")
    assert err.count("\n") == 1  # the one error line, no warning
    assert not out.exists() or not os.listdir(out)  # no CSV, no failures log


def test_numerical_point_failures_are_logged_and_exit_two(
    tiny_config, tmp_path, capsys, monkeypatch
):
    def fails(params, **solver):
        raise ConvergenceError("residual too large")

    monkeypatch.setattr(cli, "point_record", fails)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(tiny_config), "--out", str(out), "--workers", "1"]) == 2
    assert "3/3 sweep points failed" in capsys.readouterr().err
    log = (out / "sweep_fs_0.27_failures.log").read_text().splitlines()
    assert log == [
        f"f={f:.6g} f_s=0.27: ConvergenceError: residual too large" for f in (0.48, 0.49, 0.5)
    ]


def test_nan_residual_point_is_logged_not_written(tiny_config, tmp_path, capsys, monkeypatch):
    f_bad = np.linspace(0.48, 0.50, 3)[1]
    nan_eigenvector(monkeypatch, f=f_bad)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(tiny_config), "--out", str(out), "--workers", "1"]) == 2
    assert "1/3 sweep points failed" in capsys.readouterr().err
    log = (out / "sweep_fs_0.27_failures.log").read_text().splitlines()
    assert len(log) == 1
    assert log[0].startswith(f"f={f_bad:.6g} f_s=0.27: ConvergenceError: eigensolver residual nan")
    _, _, rows = read_rows(out / "sweep_fs_0.27.csv")
    assert [row[0] for row in rows] == ["0.48", "0.5"]
    assert "nan" not in (out / "sweep_fs_0.27.csv").read_text()


def test_clean_rerun_removes_the_stale_failures_log(tiny_config, tmp_path, monkeypatch):
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        nan_eigenvector(patch)
        assert main(["sweep", "--config", str(tiny_config), "--out", str(out),
                     "--workers", "1"]) == 2
    assert (out / "sweep_fs_0.27_failures.log").exists()
    assert main(["sweep", "--config", str(tiny_config), "--out", str(out), "--workers", "1"]) == 0
    assert sorted(os.listdir(out)) == ["sweep_fs_0.27.csv"]


def test_arpack_failure_is_logged_and_exits_two(tiny_config, tmp_path, capsys, monkeypatch):
    arpack_no_convergence(monkeypatch)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(tiny_config), "--out", str(out), "--workers", "1"]) == 2
    assert "3/3 sweep points failed" in capsys.readouterr().err
    log = (out / "sweep_fs_0.27_failures.log").read_text().splitlines()
    assert log == [
        f"f={f:.6g} f_s=0.27: ConvergenceError: ARPACK error -1: No convergence"
        for f in (0.48, 0.49, 0.5)
    ]


def test_cluster_rotation_failure_is_logged_and_exits_two(tiny_config, tmp_path, capsys,
                                                          monkeypatch):
    # numpy's LinAlgError is a ValueError, which the command line reads as bad
    # input; f = 0.5 at f_s = 0 is the one point with near-degenerate levels
    def unconverged(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalue algorithm did not converge")

    monkeypatch.setattr(spectrum.scipy.linalg, "eigh", unconverged)
    tiny_config.write_text(TINY_CONFIG.replace("f_s_values: [0.27]", "f_s_values: [0.0]"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(tiny_config), "--out", str(out), "--workers", "1"]) == 2
    assert "1/3 sweep points failed" in capsys.readouterr().err
    log = (out / "sweep_fs_0_failures.log").read_text().splitlines()
    assert log == [
        "f=0.5 f_s=0: ConvergenceError: cluster rotation failed: "
        "eigenvalue algorithm did not converge"
    ]


def test_other_point_errors_propagate_without_csv(tiny_config, tmp_path, monkeypatch):
    def broken(params, **solver):
        raise TypeError("not a numerical failure")

    monkeypatch.setattr(cli, "point_record", broken)
    out = tmp_path / "out"
    with pytest.raises(TypeError, match="not a numerical failure"):
        main(["sweep", "--config", str(tiny_config), "--out", str(out), "--workers", "1"])
    assert not list(tmp_path.rglob("*.csv"))
    assert not list(tmp_path.rglob("*.log"))


@pytest.mark.parametrize(
    ("command", "snippet", "key"),
    [
        ("fig2", "sweep: {f_s_values: [0.1234567, 0.1234568]}", "sweep.f_s_values"),
        ("sweep", "sweep: {f_s_values: [0.27, 0.0, 0.27]}", "sweep.f_s_values"),
        ("fig4", "maser: {cases: [[1.0, 1.4], [1.0, 1.4]]}", "maser.cases"),
    ],
)
def test_colliding_csv_names_exit_one_before_solving(
    command, snippet, key, tmp_path, capsys, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("a point was solved")

    monkeypatch.setattr(cli, "point_record", never)
    monkeypatch.setattr(cli, "steady_state_sqc", never)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(snippet + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert key in err and "would both write" in err
    assert not list(tmp_path.rglob("*.csv"))


def test_unreadable_config_exits_one_without_traceback(tmp_path, capsys):
    missing = tmp_path / "absent.yaml"
    out = tmp_path / "out"
    assert main(["fig4", "--config", str(missing), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {missing}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_out_naming_a_file_exits_one_before_solving(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a point was solved")

    monkeypatch.setattr(cli, "steady_state_sqc", never)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert main(["fig4", "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {taken}: cannot create directory: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert taken.read_text() == "kept\n"


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_overridden_grid_respected(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "circuit: {n_p: 41, n_q: 81}\n"
        "sweep: {f_start: 0.47, f_stop: 0.48, f_points: 2, f_s_values: [0.22], k: 4}\n"
    )
    assert main(["fig2", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    assert (out / "fig2_fs_0.22.csv").exists()
