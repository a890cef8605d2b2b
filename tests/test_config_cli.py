"""Run configuration parsing and the batch CLI."""

import csv
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fluxmaser
from fluxmaser import CircuitParams, PhaseGrid, transition_table
from fluxmaser.cli import (
    BLAS_THREAD_ENV,
    WORKERS_ENV,
    _fmt,
    _parallel_map,
    _resolve_workers,
    main,
)
from fluxmaser.config import OutputBlock, RunConfig, config_digest, load_config
from fluxmaser.errors import ConfigError

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
    with pytest.raises(ConfigError):
        load_config(bad_nested)


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
    ):
        path = tmp_path / "bad.yaml"
        path.write_text(snippet)
        key = re.search(r"\{(\w+):", snippet).group(1)
        with pytest.raises(ConfigError, match=key):
            load_config(path)


def test_integer_promoted_to_float(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("circuit: {gamma: 1}\n")
    cfg = load_config(path)
    assert cfg.circuit.gamma == 1.0
    assert isinstance(cfg.circuit.gamma, float)


def test_digest_tracks_content(tiny_config, tmp_path):
    base = config_digest(load_config(None))
    assert base == config_digest(load_config(None))
    assert base != config_digest(load_config(tiny_config))
    # the worker count is execution-only: setting it in YAML leaves the digest
    pinned = tmp_path / "pinned.yaml"
    pinned.write_text(TINY_CONFIG + "output: {workers: 2}\n")
    assert config_digest(load_config(pinned)) == config_digest(load_config(tiny_config))


# -- worker resolution ------------------------------------------------------


def test_worker_precedence(monkeypatch):
    cfg = RunConfig()
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert _resolve_workers(2, cfg) == 2  # explicit flag wins
    assert _resolve_workers(None, cfg) == 3  # then the environment
    monkeypatch.delenv(WORKERS_ENV)
    from dataclasses import replace

    pinned = replace(cfg, output=OutputBlock(workers=5))
    assert _resolve_workers(None, pinned) == 5  # then the config file
    assert _resolve_workers(None, cfg) >= 1  # finally machine parallelism


def test_bad_worker_env_rejected(monkeypatch):
    for value in ("lots", "0", "-3"):
        monkeypatch.setenv(WORKERS_ENV, value)
        with pytest.raises(ConfigError):
            _resolve_workers(None, RunConfig())
    monkeypatch.delenv(WORKERS_ENV)
    with pytest.raises(ConfigError):
        _resolve_workers(-3, RunConfig())


@pytest.mark.parametrize("preset", ["3", None], ids=["preset", "absent"])
def test_pool_workers_see_one_blas_thread(monkeypatch, preset):
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    before = dict(os.environ)
    assert _parallel_map(os.getenv, list(BLAS_THREAD_ENV), workers=2) == ["1"] * 3
    # the parent's environment comes back exactly, absent variables included
    assert dict(os.environ) == before
    assert os.environ.get("OPENBLAS_NUM_THREADS") == preset


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
    assert "invalid evolve block" in capsys.readouterr().err
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
    ],
)
def test_non_finite_or_nonpositive_inputs_exit_one(command, snippet, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(snippet + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_estimate_device_prints_and_writes(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["estimate-device", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "coupling g" in stdout
    assert (out / "device_report.csv").exists()


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


def test_sweep_csv_is_a_projection_of_transition_table(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(tiny_config), "--out", str(out), "--workers", "1"]) == 0
    _, header, body = read_rows(out / "sweep_fs_0.27.csv")
    f_values = np.linspace(0.48, 0.50, 3)
    table = transition_table(CircuitParams(f_s=0.27), PhaseGrid(41, 81), f_values, k=4)
    columns = {
        "f": f_values,
        "f_s": np.full(3, 0.27),
        "gap_01": table.gap(0, 1),
        "gap_02": table.gap(0, 2),
        "gap_12": table.gap(1, 2),
        "t_01": table.t_01,
        "t_02": table.t_02,
        "t_12": table.t_12,
        "K_01": table.k_01,
        "K_12": table.k_12,
    }
    assert body == [[_fmt(columns[name][n], 12) for name in header] for n in range(3)]


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("nonsense: 1\n")
    assert main(["fig2", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_grid_flag_exits_one(tmp_path, capsys):
    assert main(["fig2", "--grid", "81by161", "--out", str(tmp_path)]) == 1
    assert "NPxNQ" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_overridden_grid_respected(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "sweep: {f_start: 0.47, f_stop: 0.48, f_points: 2, f_s_values: [0.22], k: 4}\n"
    )
    code = main(
        ["fig2", "--config", str(cfg), "--grid", "41x81", "--out", str(out), "--workers", "1"]
    )
    assert code == 0
    assert (out / "fig2_fs_0.22.csv").exists()
