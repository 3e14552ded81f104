"""The CLI tables and the retired engine knobs.

The simulator has one engine.  The ``fluid`` and ``engine`` config fields
survive only so that configs pinning the exact engine still construct;
any other value must fail loudly rather than silently run exact, and the
``--fluid`` / ``--engine`` flags are gone from both argparsers.
"""

import importlib
import os
import runpy

import pytest

from repro.__main__ import EXPERIMENTS, _CLI_EXPERIMENTS
from repro.__main__ import main as cli_main
from repro.experiments.common import ExperimentConfig, parse_profile

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.mark.parametrize("overrides", [dict(fluid="on"),
                                       dict(engine="calendar")])
def test_removed_engine_modes_are_rejected(overrides):
    with pytest.raises(ValueError, match="removed"):
        ExperimentConfig(**overrides)


def test_perfbench_workloads_still_build():
    # run_path compiles from source, so no bytecode lands in perfbench/
    workloads = runpy.run_path(os.path.join(REPO, "perfbench",
                                            "workloads.py"))
    for name in workloads["NAMES"]:
        system, cfg, kwargs = workloads["build"](name, 42)
        assert system in ("vessel", "caladan")
        assert isinstance(cfg, ExperimentConfig)
        assert kwargs["l_specs"]


@pytest.mark.parametrize("flags", [["--fluid", "on"],
                                   ["--engine", "calendar"]])
def test_removed_flags_are_usage_errors(flags):
    with pytest.raises(SystemExit) as exc:
        cli_main(["fig09", *flags])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        parse_profile(flags)
    assert exc.value.code == 2


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_experiment_exposes_main(name):
    module = importlib.import_module(EXPERIMENTS[name])
    assert callable(getattr(module, "main", None))


@pytest.mark.parametrize("name", sorted(_CLI_EXPERIMENTS))
def test_every_cli_experiment_exposes_cli_main(name):
    assert _CLI_EXPERIMENTS[name] == EXPERIMENTS[name]
    module = importlib.import_module(_CLI_EXPERIMENTS[name])
    assert callable(getattr(module, "cli_main", None))
