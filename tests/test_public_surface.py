"""The exported surface: every name in an ``__all__`` resolves, and importing
the package or its CLI sets up BLAS as documented."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fluxmaser
from fluxmaser.cli import BLAS_THREAD_ENV

MODULES = [fluxmaser] + [
    importlib.import_module(f"fluxmaser.{info.name}")
    for info in pkgutil.iter_modules(fluxmaser.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_exported_names_resolve(module):
    # a name deleted from a module but left in its __all__ breaks `import *`
    # and the documented surface without failing any other test
    stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not stale, f"{module.__name__}.__all__ lists missing names {stale}"


def _fresh_python(code, *args, **env):
    """Stdout of ``code`` run with command-line ``args`` in a fresh interpreter;
    no BLAS thread variable is set but ``env``."""
    src = str(Path(fluxmaser.__file__).resolve().parents[1])
    clean = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_ENV}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env={**clean, **env, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_import_loads_no_numpy():
    # ``fluxmaser.cli`` can only choose the BLAS thread count before numpy loads
    _fresh_python("import sys, fluxmaser; assert 'numpy' not in sys.modules")


@pytest.mark.parametrize("name", [info.name for info in pkgutil.iter_modules(fluxmaser.__path__)])
def test_submodule_resolves_as_attribute(name):
    # the first access in a fresh interpreter, before any import could set it
    module = f"fluxmaser.{name}"
    _fresh_python(f"import sys, fluxmaser\nassert {module} is sys.modules[{module!r}]")


READ_THREAD_ENV = (
    "import os, fluxmaser.cli as cli; print([os.environ.get(n) for n in cli.BLAS_THREAD_ENV])"
)


@pytest.mark.parametrize("command", ["fig2", "fig3", "sweep"])
def test_cli_import_sets_one_blas_thread(command):
    args = (command, "--out", "evolve", "--workers", "2")
    assert _fresh_python(READ_THREAD_ENV, *args) == "['1', '1', '1']\n"


def test_cli_import_keeps_a_callers_thread_setting():
    assert _fresh_python(READ_THREAD_ENV, "sweep", OMP_NUM_THREADS="2") == "[None, '2', None]\n"


@pytest.mark.parametrize(
    "args",
    [(), ("evolve",), ("evolve", "--out", "sweep"), ("fig4",), ("estimate-device",)],
    ids=["no-command", "evolve", "evolve-out-sweep", "fig4", "estimate-device"],
)
def test_cli_import_keeps_the_library_default_off_the_spectral_commands(args):
    # evolve's dense expm at a large n_max runs faster on more BLAS threads
    assert _fresh_python(READ_THREAD_ENV, *args) == "[None, None, None]\n"


def test_cli_import_after_numpy_sets_nothing():
    # numpy has already fixed the thread count; setting the variables would
    # change only the subprocesses started later
    code = "import numpy\n" + READ_THREAD_ENV
    assert _fresh_python(code, "sweep") == "[None, None, None]\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads are counted in /proc")
@pytest.mark.parametrize("command", ["fig2", "fig3", "sweep"])
def test_spectral_cli_import_leaves_one_thread(command):
    # a one-thread process forks its sweep workers: an import that starts a
    # thread would fail here rather than silently send every pool back to spawn
    code = (
        "import os, fluxmaser.cli as cli\n"
        "print(len(os.listdir('/proc/self/task')), cli._start_method())"
    )
    assert _fresh_python(code, command, "--workers", "2") == "1 fork\n"
