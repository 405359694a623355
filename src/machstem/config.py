"""Layered run configuration: built-in defaults, config file, CLI flags.

Files use INI-style section headers over key=value pairs.  Every key is
declared in a schema with its type, default, and validity range; unknown
keys and out-of-range values are hard errors that name the offending
key, so a typo can never silently fall back to a default.
"""

import configparser
import io as _io
from dataclasses import dataclass

from .errors import ConfigError


def _grid(text):
    try:
        a, b = str(text).lower().split("x")
        return (int(a), int(b))
    except Exception:
        raise ValueError("expected NIxNJ, e.g. 200x100")


def _float_list(text):
    return tuple(float(s) for s in str(text).split(",") if s.strip())


def _wedge_angle(deg):
    return 0.0 <= deg < 45.0


@dataclass
class _Key:
    parse: type
    default: object
    check: object = None          # predicate on the parsed value
    describe: str = ""


# a wedge grid's shape: the inlet section, the wedge and the section
# behind it each need a column of their own
GRID_RULE = "NIxNJ with NI >= 3 and NJ > 0"


def valid_grid(v):
    return v[0] >= 3 and v[1] > 0


def _grid_key(default):
    return _Key(_grid, default, valid_grid, GRID_RULE)


SCHEMA = {
    # flow case
    "case.mach": _Key(float, 3.0, lambda v: v > 1.0, "> 1"),
    "case.wedge_angle_deg": _Key(float, 24.0, _wedge_angle, "in [0, 45)"),
    "case.aspect": _Key(float, 1.0, lambda v: v > 0.0, "> 0"),
    "case.init": _Key(str, "impulsive",
                      lambda v: v == "impulsive" or
                      (v.startswith("restart:") and len(v) > 8),
                      "'impulsive' or 'restart:<checkpoint dir>'"),
    "case.domain_length_factor": _Key(float, 3.0, lambda v: v > 0.0, "> 0"),
    "case.coarse_grid": _grid_key((200, 100)),
    "case.fine_background_grid": _grid_key((100, 50)),
    "case.overset_grid": _grid_key((96, 64)),
    # solver
    "solver.coarse_order": _Key(int, 1, lambda v: v >= 1, ">= 1"),
    "solver.fine_order": _Key(int, 4, lambda v: v >= 1, ">= 1"),
    "solver.cfl": _Key(float, 0.3, lambda v: 0.0 < v <= 2.0, "in (0, 2]"),
    "solver.cfl_start": _Key(float, 0.05, lambda v: 0.0 < v <= 2.0,
                             "in (0, 2]"),
    "solver.cfl_ramp_iters": _Key(int, 200, lambda v: v >= 0, ">= 0"),
    "solver.coarse_tol": _Key(float, 2e-5, lambda v: v > 0.0, "> 0"),
    "solver.coarse_max_iterations": _Key(int, 20000, lambda v: v > 0, "> 0"),
    "solver.fine_tol": _Key(float, 5e-6, lambda v: v > 0.0, "> 0"),
    "solver.fine_max_iterations": _Key(int, 20000, lambda v: v > 0, "> 0"),
    # iterations without a 1% best-residual improvement before the march
    # stops early; captured shocks limit-cycle, so plateau = settled
    "solver.stall_window": _Key(int, 4000, lambda v: v >= 0, ">= 0"),
    "solver.background_flux": _Key(str, "lax_friedrichs", None, "flux name"),
    "solver.overset_flux": _Key(str, "slau2", None, "flux name"),
    "solver.log_every": _Key(int, 200, lambda v: v >= 0, ">= 0"),
    # stabilization
    "stabilization.threshold": _Key(float, 1.0, lambda v: v > 0.0, "> 0"),
    "stabilization.tvb_m": _Key(float, 0.0, lambda v: v >= 0.0, ">= 0"),
    # overset assembly
    "overset.hole_margin": _Key(int, 2, lambda v: v >= 1, ">= 1"),
    "overset.fringe_width": _Key(int, 1, lambda v: v >= 1, ">= 1"),
    "overset.fringe_rings": _Key(int, 1, lambda v: v >= 1, ">= 1"),
    "overset.band_below": _Key(float, 0.25, lambda v: v > 0.0, "> 0"),
    "overset.band_above": _Key(float, 0.12, lambda v: v > 0.0, "> 0"),
    "overset.margin_cells": _Key(int, 3, lambda v: v >= 0, ">= 0"),
    # shock measurement
    "measurement.n_lines": _Key(int, 120, lambda v: v >= 16, ">= 16"),
    "measurement.nx": _Key(int, 1200, lambda v: v >= 64, ">= 64"),
    # sweep
    "sweep.angles_deg": _Key(_float_list, (),
                             lambda v: all(map(_wedge_angle, v)),
                             "comma list of degrees in [0, 45)"),
    "sweep.restart_seed": _Key(str, "", None, "checkpoint dir or empty"),
    # output
    "output.out_dir": _Key(str, "runs", None, "directory"),
    "output.vtk": _Key(int, 1, lambda v: v in (0, 1), "0 or 1"),
}


def defaults():
    return {k: spec.default for k, spec in SCHEMA.items()}


def _set(cfg, key, raw):
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key '{key}'")
    spec = SCHEMA[key]
    if isinstance(raw, str):
        try:
            val = spec.parse(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"bad value for config key '{key}': {raw!r} ({exc})")
    else:
        val = raw
    if spec.check is not None and not spec.check(val):
        raise ConfigError(
            f"config key '{key}' out of range: {val!r} (expected "
            f"{spec.describe})")
    cfg[key] = val


def parse_config(path=None, overrides=None):
    """Resolve a configuration: defaults, then file, then overrides.

    `overrides` maps dotted keys ("solver.cfl") to raw strings or typed
    values; later layers win.  Every key is validated on entry.
    """
    cfg = defaults()
    if path is not None:
        cp = configparser.ConfigParser(interpolation=None, strict=True)
        try:
            with open(path) as f:
                cp.read_file(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}")
        for section in cp.sections():
            for key, raw in cp.items(section):
                _set(cfg, f"{section}.{key}", raw)
    for key, raw in (overrides or {}).items():
        _set(cfg, key, raw)
    return cfg


def dump_config(cfg):
    """Render a configuration back to file syntax (sorted, sectioned)."""
    sections = {}
    for key, val in cfg.items():
        sec, name = key.split(".", 1)
        if isinstance(val, tuple) and key.endswith("_grid"):
            val = f"{val[0]}x{val[1]}"
        elif isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        sections.setdefault(sec, {})[name] = val
    buf = _io.StringIO()
    for sec in sorted(sections):
        buf.write(f"[{sec}]\n")
        for name in sorted(sections[sec]):
            buf.write(f"{name} = {sections[sec][name]}\n")
        buf.write("\n")
    return buf.getvalue()


def case_from_config(cfg):
    from .wedge import FlowCase
    return FlowCase(
        mach=cfg["case.mach"],
        wedge_angle_deg=cfg["case.wedge_angle_deg"],
        aspect=cfg["case.aspect"],
        domain_length_factor=cfg["case.domain_length_factor"],
        coarse_grid=cfg["case.coarse_grid"],
        fine_background_grid=cfg["case.fine_background_grid"],
        overset_grid=cfg["case.overset_grid"])
