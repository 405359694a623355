"""The benchmark under ``benchmarks/`` reaches into the package by name:
its tracer replaces functions and methods it looks up as attributes.
These tests fail as soon as a refactor renames or moves one of them,
instead of at benchmark time."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
# the workloads import their sibling ``checks`` by name, as run.py does
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"),
                           "--selftest"], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tracer_wraps_every_layer_and_restores_it():
    from machstem import (dg, fluxes, overset, stabilization, timestepping,
                          wedge)

    def layers():
        return (dg.Discretization.residual, dict(fluxes.FLUXES),
                stabilization.moment_limit, timestepping.System.stable_dt,
                wedge.measure_stem, overset.CompositeSampler.states)

    tracing = _load_tracing()
    before = layers()
    for probe in (tracing.Clock(), tracing.Tracer()):
        probe.install()
        during = layers()
        probe.uninstall()
        assert layers() == before
    # the tracer replaced every one of them
    assert all(a != b for a, b in zip(during, before))


def test_every_workload_builds_on_the_config_it_sets(tmp_path):
    """Each workload builds as the benchmark builds it (seed 540), and
    the smoke run's overrides parse: a config key or value the benchmark
    still sets fails here once the package retires or narrows it."""
    from machstem.config import parse_config
    for work in workloads.WORKLOADS.values():
        work(540, tmp_path)
    parse_config(None, overrides=workloads.SmokeRR.overrides)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_operation_passes_its_check(name, tmp_path):
    """One operation of each benchmark workload, as the benchmark runs
    it (seed 540), gives an answer its own check accepts."""
    work = workloads.WORKLOADS[name](540, tmp_path)
    assert work.check(work.operation()) == []
