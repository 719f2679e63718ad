"""A process imports only what it runs.

Package ``__init__``s export lazily, registries name engines and protocols
by ``module:qualname``, and each CLI verb imports its own dependencies.
Every check runs in a fresh interpreter: this test process has already
imported the whole package.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The packages whose ``__init__`` exports lazily.
PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.crn",
    "repro.engine",
    "repro.harness",
    "repro.obs",
    "repro.protocols",
    "repro.termination",
    "repro.workloads",
)

_LOADED = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
import repro.cli
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert repro.cli.main(argv) == 0
print(json.dumps(sorted(
    name for name in sys.modules if name == "repro" or name.startswith("repro.")
)))
"""


def run_fresh(code: str, *args: str) -> str:
    """The last stdout line of ``python -c code args`` in a fresh process."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.splitlines()[-1]


def loaded(argv: str = "") -> set[str]:
    """The ``repro`` modules a fresh ``repro`` process holds after running
    ``argv`` (nothing: after ``import repro.cli``)."""
    return set(json.loads(run_fresh(_LOADED, json.dumps(argv.split()))))


def under(modules: set[str], *packages: str) -> list[str]:
    return sorted(
        name for name in modules
        for package in packages
        if name == package or name.startswith(package + ".")
    )


def test_importing_the_cli_loads_at_most_35_modules():
    modules = loaded()
    assert len(modules) <= 35, sorted(modules)
    assert not under(modules, "repro.crn", "repro.termination", "repro.analysis")


def test_epidemic_batched_sweep_loads_only_what_it_runs():
    modules = loaded("sweep --protocol epidemic --engine batched --sizes 1000 --runs 1")
    assert not under(
        modules, "repro.crn", "repro.termination", "repro.analysis",
        "repro.staticcheck",
    )
    assert not modules & {
        "repro.harness.figures",
        "repro.harness.tables",
        "repro.engine.simulator",
        "repro.engine.count_simulator",
        "repro.engine.vector",
    }
    assert under(modules, "repro.core") == ["repro.core", "repro.core.parameters"]


def test_figure2_vector_sweep_loads_no_agent_level_protocol():
    modules = loaded("sweep --engine vector --protocol figure2 --fast --sizes 64 --runs 1")
    assert not under(modules, "repro.crn", "repro.termination", "repro.analysis")
    agent_level = {
        f"repro.core.{name}"
        for name in (
            "composition", "fields", "leader_terminating", "log_size_estimation",
            "phase_clock", "probability_one", "subprotocols", "synthetic_coin",
            "vector_leader",
        )
    }
    assert not modules & agent_level


def test_multiscale_crn_sweep_loads_no_theory():
    modules = loaded("sweep --crn sir --engine multiscale --sizes 1000000 --runs 1")
    assert not under(modules, "repro.termination", "repro.analysis")
    assert under(modules, "repro.core") == ["repro.core", "repro.core.parameters"]


def test_every_exported_name_resolves():
    code = (
        "import importlib, json, sys\n"
        "missing = []\n"
        "for package in sys.argv[1:]:\n"
        "    module = importlib.import_module(package)\n"
        "    missing += [f'{package}.{name}' for name in module.__all__\n"
        "                if not hasattr(module, name)]\n"
        "print(json.dumps(missing))\n"
    )
    assert json.loads(run_fresh(code, *PACKAGES)) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_names_raise_attribute_error(package):
    # hasattr and `from package import submodule` rely on it.
    with pytest.raises(AttributeError, match="no_such_name"):
        importlib.import_module(package).no_such_name


def test_every_verb_answers_help():
    code = (
        "import json, sys\n"
        "from repro.cli import main\n"
        "codes = {}\n"
        "for verb in json.loads(sys.argv[1]):\n"
        "    try:\n"
        "        main([*verb.split(), '--help'])\n"
        "    except SystemExit as exit:\n"
        "        codes[verb] = exit.code\n"
        "print(json.dumps(codes))\n"
    )
    verbs = [
        "figure2", "accuracy", "states", "termination", "bounds", "engines",
        "check", "protocols", "simulate", "sweep", "crn", "crn info",
        "crn simulate", "crn sweep", "store", "store serve", "store status",
        "trace", "trace export", "trace validate",
    ]
    assert json.loads(run_fresh(code, json.dumps(verbs))) == dict.fromkeys(verbs, 0)
