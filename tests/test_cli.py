import json
import os
import subprocess
import sys
import textwrap

import pytest

from machstem.cli import build_parser, main


def _run(*argv):
    proc = subprocess.run([sys.executable, "-m", "machstem", *argv],
                          capture_output=True, text=True)
    return proc


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# records the thread variables at the moment numpy is first imported
PIN_PROBE = textwrap.dedent("""
    import importlib.abc, json, os, sys

    VARS = %r
    seen = {}

    class Probe(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "numpy" and not seen:
                seen.update({v: os.environ.get(v) for v in VARS})
            return None

    sys.meta_path.insert(0, Probe())
    import machstem.cli
    assert "numpy" not in sys.modules, "importing machstem.cli loaded numpy"
    assert machstem.cli.main(["relations", "--mach", "3"]) == 0
    print(json.dumps(seen))
""")


def test_cli_pins_threads_before_numpy_loads():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", PIN_PROBE % (THREAD_VARS,)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {v: "1" for v in THREAD_VARS}


def test_relations_output():
    proc = _run("relations", "--mach", "3", "--mach", "4")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "mach,von_neumann_deg,detachment_deg"
    assert lines[1] == "3,19.656,21.458"
    assert lines[2] == "4,20.854,25.607"


def test_relations_requires_mach():
    proc = _run("relations")
    assert proc.returncode != 0
    assert "--mach" in proc.stderr


def test_bad_config_key_exit_code(capsys):
    rc = main(["pipeline", "--set", "case.machh=3"])
    assert rc == 2  # configuration errors exit with 2
    assert "machh" in capsys.readouterr().err


def test_bad_sweep_angle_exit_code(capsys):
    rc = main(["sweep", "--angles", "24,abc"])
    assert rc == 2
    assert "sweep.angles_deg" in capsys.readouterr().err


def test_out_of_range_sweep_angle_fails_before_any_run(capsys, monkeypatch):
    from machstem import pipeline
    monkeypatch.setattr(pipeline, "run_pipeline", lambda cfg, **kw:
                        pytest.fail("a run started"))
    assert main(["sweep", "--angles", "24,50"]) == 2
    assert "sweep.angles_deg" in capsys.readouterr().err


def test_too_few_grid_columns_fail_before_any_run(capsys, monkeypatch):
    from machstem import pipeline
    monkeypatch.setattr(pipeline, "run_pipeline", lambda cfg, **kw:
                        pytest.fail("a run started"))
    assert main(["pipeline", "--coarse-grid", "2x4"]) == 2
    assert "case.coarse_grid" in capsys.readouterr().err


def test_malformed_set_reports_error(capsys):
    rc = main(["pipeline", "--set", "case.mach:3"])
    assert rc == 2
    assert "SECTION.KEY=VALUE" in capsys.readouterr().err


def test_parser_accepts_documented_flags():
    p = build_parser()
    args = p.parse_args(["pipeline", "--mach", "3", "--wedge-angle-deg", "24",
                         "--coarse-grid", "200x100", "--fresh", "--quiet",
                         "--set", "solver.cfl=0.2"])
    assert args.command == "pipeline"
    assert args.mach == 3.0
    assert args.coarse_grid == "200x100"
    args = p.parse_args(["sweep", "--angles", "21.0,19.6", "--restart-seed",
                         "runs/abc/checkpoint", "--out", "table.csv"])
    assert args.command == "sweep"
    args = p.parse_args(["convergence-study", "--order", "4",
                         "--layout", "two-block"])
    assert args.order == 4


def test_gamma_changes_relations(capsys):
    main(["relations", "--mach", "3", "--gamma", "1.3"])
    out = capsys.readouterr().out.strip().splitlines()
    m, vn, dt = out[1].split(",")
    # monatomic-to-diatomic trend: lower gamma moves both transition
    # angles up for the same Mach number
    assert float(vn) > 19.656
    assert float(dt) > 21.458
