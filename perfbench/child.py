"""One benchmark job in its own process.

    python3 perfbench/child.py ROOT STAMP CONFIG setup
    python3 perfbench/child.py ROOT STAMP CONFIG cli SUBCOMMAND [CLI ARGS...]
    python3 perfbench/child.py ROOT STAMP CONFIG nullspace OUT_DIR N_MAX[,N_MAX...]

The child imports ``fluxmaser`` from ``ROOT/src``, loads ``CONFIG`` and then
writes the ``CLOCK_MONOTONIC`` time at which this set-up ended to the JSON
file ``STAMP``.  The spawning process already knows when it started the
child and when the child exited, which splits the run into set-up and work.

``setup`` stops there and also records what the child sees of the BLAS
library.  ``cli`` runs the ``fluxmaser`` command line exactly as a user
would.  ``nullspace`` is the library job that no CLI command reaches: the
steady state of the diagonal-sector generator at each Fock cutoff, written
beside the two photon recursions at the same operating point.

The environment is used as inherited: no thread count is set here.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_view() -> dict:
    """Loaded OpenBLAS libraries with the thread count each reports."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = sorted(
            {
                line.split()[-1]
                for line in handle
                if "openblas" in os.path.basename(line.split()[-1]).lower()
            }
        )
    libraries = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in BLAS_THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                libraries[os.path.basename(path)] = getter()
                break
    return {
        "threads": libraries,
        "env": {name: os.environ.get(name, "unset") for name in THREAD_ENV},
    }


def run_nullspace(config, out_dir: str, n_max_values: list[int]) -> None:
    from fluxmaser.lindblad import steady_state_nullspace
    from fluxmaser.maser import MaserConfig, steady_state_atomic, steady_state_sqc

    ((n_t, tau_over_pi),) = config.maser.cases
    os.makedirs(out_dir, exist_ok=True)
    for n_max in n_max_values:
        mcfg = MaserConfig.from_interaction_time(
            n_t, tau_over_pi * math.pi, n_th=config.maser.n_th, n_max=n_max
        )
        null = steady_state_nullspace(mcfg)
        sqc = steady_state_sqc(mcfg, auto_extend=False)
        atomic = steady_state_atomic(mcfg, auto_extend=False)
        path = os.path.join(out_dir, f"nullspace_nmax_{n_max}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(f"# n_t: {n_t!r}\n# tau_int_over_pi: {tau_over_pi!r}\n")
            handle.write("n,p_nullspace,p_sqc,p_atomic\n")
            for n in range(n_max + 1):
                handle.write(f"{n},{float(null.p[n])!r},{float(sqc.p[n])!r},{float(atomic.p[n])!r}\n")


def main(argv: list[str]) -> int:
    root, stamp, config_path, mode, *rest = argv
    sys.path.insert(0, os.path.join(root, "src"))
    from fluxmaser import cli
    from fluxmaser.config import load_config

    config = load_config(config_path)
    record = {"setup_done": time.monotonic()}
    if mode == "setup":
        record["blas"] = blas_view()
    with open(stamp, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    if mode == "setup":
        return 0
    if mode == "cli":
        return cli.main(rest)
    if mode == "nullspace":
        out_dir, n_max_text = rest
        run_nullspace(config, out_dir, [int(x) for x in n_max_text.split(",")])
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
