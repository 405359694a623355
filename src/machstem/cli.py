"""Command-line driver.

Subcommands:
  relations          transition angles from oblique-shock theory
  pipeline           one coarse-to-fine wedge run with artifacts
  sweep              dual-start angle sweep (impulsive and restart-chained)
  convergence-study  measured order on the advecting-vortex solution

Repeated runs are bitwise identical. The math libraries run
single-threaded: ``main`` pins OMP, OpenBLAS, MKL and numexpr to one
thread before anything imports numpy (a variable already set in the
environment is kept).  The solver's row blocks may run on several
threads (``dg.dispatch``), but each writes only its own elements, so
the bits do not depend on the thread count.  Importing this module
loads no numpy.

Exit codes: 0 success, 2 configuration error, 3 divergence, 4 front
measurement failure, 5 overset assembly failure.
"""

import argparse
import os
import sys


def _pin_threads():
    # must happen before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def build_parser():
    top = argparse.ArgumentParser(
        prog="machstem",
        description="High-order wedge shock-reflection solver")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relations",
                       help="print transition angles for a Mach number")
    p.add_argument("--mach", type=float, required=True, action="append",
                   help="free-stream Mach number (repeatable)")
    p.add_argument("--gamma", type=float, default=1.4)

    for name in ("pipeline", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="config file (key=value sections)")
        p.add_argument("--set", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override one config entry (repeatable)")
        p.add_argument("--mach", type=float)
        p.add_argument("--aspect", type=float)
        p.add_argument("--out-dir")
        p.add_argument("--fresh", action="store_true",
                       help="ignore any cached run with this configuration")
        p.add_argument("--quiet", action="store_true")
        if name == "pipeline":
            p.add_argument("--wedge-angle-deg", type=float)
            p.add_argument("--init",
                           help="'impulsive' or 'restart:<checkpoint dir>'")
            p.add_argument("--coarse-grid", metavar="NIxNJ")
            p.add_argument("--fine-background-grid", metavar="NIxNJ")
            p.add_argument("--overset-grid", metavar="NIxNJ")
            p.add_argument("--overset-grid-file",
                           help="use this patch grid instead of building one")
        else:
            p.add_argument("--angles", help="comma list of wedge angles, deg")
            p.add_argument("--no-chain", action="store_true",
                           help="restart every angle from the same seed")
            p.add_argument("--restart-seed",
                           help="checkpoint dir seeding the restart branch")
            p.add_argument("--out", default="sweep.csv",
                           help="sweep table destination")

    p = sub.add_parser("convergence-study",
                       help="measured order on the vortex exact solution")
    p.add_argument("--order", type=int, choices=(1, 4), required=True)
    p.add_argument("--layout", choices=("single", "two-block"),
                   default="single")
    return top


def _collect_overrides(args, pairs):
    from .errors import ConfigError
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(
                f"--set expects SECTION.KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    for key, value in pairs:
        if value is not None:
            overrides[key] = value
    return overrides


def _cmd_relations(args):
    import numpy as np

    from .shock_relations import detachment_angle, von_neumann_angle
    print("mach,von_neumann_deg,detachment_deg")
    for m in args.mach:
        vn = np.degrees(von_neumann_angle(m, args.gamma))
        dt = np.degrees(detachment_angle(m, args.gamma))
        print(f"{m:g},{vn:.3f},{dt:.3f}")
    return 0


def _cmd_pipeline(args):
    from .config import parse_config
    from .pipeline import run_pipeline
    overrides = _collect_overrides(args, [
        ("case.mach", args.mach),
        ("case.wedge_angle_deg", args.wedge_angle_deg),
        ("case.aspect", args.aspect),
        ("case.init", args.init),
        ("case.coarse_grid", args.coarse_grid),
        ("case.fine_background_grid", args.fine_background_grid),
        ("case.overset_grid", args.overset_grid),
        ("overset.grid_file", args.overset_grid_file),
        ("output.out_dir", args.out_dir),
    ])
    cfg = parse_config(args.config, overrides)
    log = None if args.quiet else print
    summary = run_pipeline(cfg, reuse=not args.fresh, on_log=log)
    m = summary.measurement
    print(f"run directory: {summary.run_dir}"
          f"{'  (cached)' if summary.cached else ''}")
    print(f"coarse stage: {summary.coarse_outcome}; "
          f"fine stage: {summary.fine_outcome}")
    if m["classification"] == "MR":
        print(f"Mach reflection, stem height / channel height = "
              f"{m['stem_height_ratio']:.4f}")
    elif m["classification"] == "RR":
        print("regular reflection (no stem)")
    else:
        print("no shock system detected")
    return 0


def _cmd_sweep(args):
    from pathlib import Path

    from .config import parse_config
    from .errors import ConfigError
    from .io import write_gnuplot_dat
    from .pipeline import make_sweep_runner
    from .wedge import hysteresis_sweep, sweep_table_csv
    overrides = _collect_overrides(args, [
        ("case.mach", args.mach),
        ("case.aspect", args.aspect),
        ("sweep.angles_deg", args.angles),
        ("output.out_dir", args.out_dir),
    ])
    if args.no_chain:
        overrides["sweep.chain"] = "0"
    if args.restart_seed:
        overrides["sweep.restart_seed"] = args.restart_seed
    cfg = parse_config(args.config, overrides)
    if not cfg["sweep.angles_deg"]:
        raise ConfigError("no sweep angles given: set --angles or config "
                          "key 'sweep.angles_deg'")
    angles = [float(a) for a in cfg["sweep.angles_deg"]]
    log = None if args.quiet else print
    runner = make_sweep_runner(cfg, reuse=not args.fresh, on_log=log)
    rows = hysteresis_sweep(
        runner, angles, restart_seed=cfg["sweep.restart_seed"] or None,
        chain=bool(cfg["sweep.chain"]))
    text = sweep_table_csv(rows)
    Path(args.out).write_text(text)
    print(text, end="")

    def ratio(entry):
        try:
            return float(entry)
        except ValueError:
            return float("nan")
    write_gnuplot_dat(Path(args.out).with_suffix(".dat"),
                      [[r.angle_deg for r in rows],
                       [ratio(r.impulsive) for r in rows],
                       [ratio(r.restart) for r in rows]],
                      ["wedge_angle_deg", "stem_ratio_impulsive",
                       "stem_ratio_restart"])
    return 0


def _cmd_convergence(args):
    from .convergence import run_study
    result = run_study(args.order, args.layout)
    print(result.report())
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    _pin_threads()
    from .errors import MachstemError
    try:
        if args.command == "relations":
            return _cmd_relations(args)
        if args.command == "pipeline":
            return _cmd_pipeline(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_convergence(args)
    except MachstemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return type(exc).exit_code


if __name__ == "__main__":
    sys.exit(main())
