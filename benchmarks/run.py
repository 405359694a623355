"""Run the machstem benchmark and print its metrics.

One workload per process, single-threaded:

    python3 benchmarks/run.py --workload fine-march --seed 1 --seconds 30 --trace 0

Every workload in turn, each in its own process, with a summary table:

    python3 benchmarks/run.py --all --seed 1 --seconds 30 --trace 0

Check that every answer check rejects wrong answers (a few seconds):

    python3 benchmarks/run.py --selftest

A run repeats the workload's operation while another one still fits in
``--seconds`` (at least once; three times with ``--trace 1``), checks
every answer, and prints one line per operation, each metric by name
with its unit and sample count, and finally one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` an untimed warm-up is followed by traced and untraced
operations in turn, and the metrics are the per-layer ones, plus the
tracing overhead (traced minus untraced wall time).  Spans and a full
record of the run, with the environment, go to ``.bench_out/`` at the
repository root.
"""

import os

# single-threaded math libraries; must be set before numpy is imported
PINNED = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC_FILE = ROOT / "BENCHMARK.json"

# per-layer metrics that are not "<span>.<stat>"
SPECIAL = {
    "timestepping.iterations": ("timestepping.march_to_steady",
                                "iterations"),
    "io.bytes_written": ("io.write", "bytes"),
    "timestepping.advance_time.steps": ("timestepping.advance_time",
                                        "steps"),
    "timestepping.physical_time": (None, "physical_time"),
}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment():
    import numpy
    import scipy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "pinned": PINNED, "commit": git_commit()}


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    import numpy
    return float(numpy.percentile(values, q)) if values else 0.0


# ---------------------------------------------------------------------------
# one workload


def run_operations(workload, seconds, trace):
    """Repeat the operation for ``seconds``; one record per operation.

    Another operation starts only if one as long as the last still fits.
    """
    import tracing

    clock = tracing.Clock()
    tracer = tracing.Tracer() if trace else None
    ops = []
    last_wall = 0.0
    clock.install()
    t0 = time.perf_counter()
    try:
        while len(ops) < (3 if trace else 1) or (
                time.perf_counter() - t0 + last_wall <= seconds):
            # traced runs: a warm-up, then traced and untraced in turn
            rec = {"run": len(ops), "traced": bool(trace and len(ops) % 2),
                   "warmup": bool(trace and not ops)}
            clock.reset()
            # each operation starts without the previous one's garbage
            gc.collect()
            if rec["traced"]:
                tracer.run_id = rec["run"]
                tracer.install()
            start = time.perf_counter()
            try:
                answer = workload.operation()
            except Exception as exc:    # counted as a failed operation
                rec["error"] = type(exc).__name__
                rec["message"] = str(exc)
                traceback.print_exc(file=sys.stderr)
            else:
                rec["wall_s"] = time.perf_counter() - start
                rec["setup_s"], rec["steps_ms"] = clock.summary(start)
            finally:
                if rec["traced"]:
                    tracer.uninstall()
            last_wall = time.perf_counter() - start
            rec["rss_mb"] = peak_rss_mb()
            if "error" not in rec:
                rec["problems"] = workload.check(answer)
                rec["answer"] = {k: v for k, v in answer.items()
                                 if isinstance(v, (int, float, str))}
            ops.append(rec)
    finally:
        clock.uninstall()
    return ops, tracer


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ops):
    steps = [s for op in ops for s in op["steps_ms"]]
    return {
        "setup_s": (median([op["setup_s"] for op in ops]), len(ops)),
        "wall_s": (median([op["wall_s"] for op in ops]), len(ops)),
        "iter_ms_p50": (percentile(steps, 50), len(steps)),
        "iter_ms_p90": (percentile(steps, 90), len(steps)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }


def per_layer(names, ops, untraced, tracer):
    """Per-layer metrics: medians over the traced operations."""
    spans, counts = tracer.spans, tracer.counts
    own, self_t = tracer.self_times()
    ids_of = {op["run"]: [] for op in ops}
    for i, s in enumerate(spans):
        if s[4] in ids_of:
            ids_of[s[4]].append(i)

    def outermost(i):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == spans[i][0]:
                return False
            p = spans[p][3]
        return True

    def over_ops(fn):
        return median([fn(op, ids_of[op["run"]]) for op in ops])

    out = {}
    for name in names:
        span, stat = SPECIAL.get(name, name.rsplit(".", 1))

        def of(ids, span=span):
            return [i for i in ids if span is None or spans[i][0] == span]

        if name == "trace.wall_s":
            value = median([op["wall_s"] for op in ops])
        elif name == "trace.overhead_s":
            value = (median([op["wall_s"] for op in ops])
                     - median([op["wall_s"] for op in untraced]))
        elif name == "answer.background_flagged_cells":
            value = median([op["answer"].get("background_flagged", 0)
                            for op in ops])
        elif stat == "calls":
            value = over_ops(lambda op, ids: len(of(ids)))
        elif stat == "ms_p50":
            value = 1e3 * median([own[i] for ids in ids_of.values()
                                  for i in of(ids)])
        elif stat == "share":
            value = over_ops(lambda op, ids: sum(self_t[i] for i in of(ids))
                             / op["wall_s"])
        elif stat in ("ms", "ms_total"):
            value = over_ops(lambda op, ids: 1e3 * sum(
                own[i] for i in of(ids) if outermost(i)))
        elif stat == "steps":
            value = over_ops(lambda op, ids: sum(
                1 for i in ids if spans[i][0] == "timestepping.stable_dt"
                and spans[i][3] >= 0 and spans[spans[i][3]][0] == span))
        else:
            value = over_ops(lambda op, ids: sum(
                counts.get((i, stat), 0) for i in of(ids) if outermost(i)))
        out[name] = (value, len(ops))
    return out


def run_one(args):
    if not (SRC / "machstem" / "__init__.py").is_file():
        fail(f"machstem sources not found under {SRC}")
    if not SPEC_FILE.is_file():
        fail(f"{SPEC_FILE} not found")
    spec = json.loads(SPEC_FILE.read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from "
             f"{sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(f"machstem benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    ops, tracer = run_operations(workload, args.seconds, args.trace)

    for op in ops:
        tag = (" traced" if op["traced"] else
               " warm-up" if op["warmup"] else "")
        if "error" in op:
            print(f"op {op['run']}{tag}: FAILED {op['error']}: "
                  f"{op['message']}")
            continue
        verdict = ("answer ok" if not op["problems"]
                   else "WRONG ANSWER: " + "; ".join(op["problems"]))
        print(f"op {op['run']}{tag}: wall {op['wall_s']:.3f} s, setup "
              f"{op['setup_s']:.3f} s, {len(op['steps_ms'])} steps, "
              f"{json.dumps(op['answer'], sort_keys=True)}, {verdict}")

    good = [op for op in ops if "error" not in op and not op["problems"]]
    failed = len(ops) - len(good)
    errors = sorted({op["error"] for op in ops if "error" in op})
    correct = bool(good) and all(not op.get("problems") for op in ops
                                 if "error" not in op)
    if args.trace:
        traced = [op for op in good if op["traced"]]
        untraced = [op for op in good
                    if not op["traced"] and not op["warmup"]]
        correct = correct and bool(traced) and bool(untraced)
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = (per_layer(names, traced, untraced, tracer)
                  if correct else {})
        (OUT / "spans").mkdir(exist_ok=True)
        tracer.dump(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(good) if good else {}

    for name in names:
        if name in values:
            v, n = values[name]
            print(f"{name:44s} {v:14.6g} {units[name]:6s} (n={n})")
    print(f"failure_rate {failed}/{len(ops)} = {failed / len(ops):.3f}"
          + (f" ({', '.join(errors)})" if errors else ""))
    print("checks: " + ("pass" if correct else "FAIL"))

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "correct": correct,
              "attempted": len(ops), "failed": failed, "errors": errors,
              "metrics": {k: {"value": v, "unit": units[k], "samples": n}
                          for k, (v, n) in values.items()},
              "operations": [{k: v for k, v in op.items() if k != "steps_ms"}
                             for op in ops]}
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, (v, _) in values.items()}}))


# ---------------------------------------------------------------------------
# every workload, and the self-test


def run_all(args):
    if not SPEC_FILE.is_file():
        fail(f"{SPEC_FILE} not found")
    spec = json.loads(SPEC_FILE.read_text())
    rows = []
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds + 600)
        sys.stdout.write(proc.stdout)
        sys.stdout.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
        rows.append((w["name"], result))
        print()
    print("summary")
    for name, result in rows:
        if result is None:
            print(f"  {name}: no result")
            continue
        figures = ", ".join(f"{k} {m['value']:.4g} {m['unit']}"
                            for k, m in result["metrics"].items())
        print(f"  {name}: correct {result['correct']}, failed "
              f"{result['failed']}/{result['attempted']}; {figures}")
    return all(r is not None and r["correct"] for _, r in rows)


def selftest():
    if not (SRC / "machstem" / "__init__.py").is_file():
        fail(f"machstem sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import checks

    failures = checks.selftest(OUT / "selftest")
    for f in failures:
        print("selftest: " + f)
    print("selftest: " + ("FAIL" if failures else "every check rejects "
                                                  "its wrong answers"))
    return not failures


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload, each in its own process")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if args.selftest:
        sys.exit(0 if selftest() else 1)
    if args.all:
        sys.exit(0 if run_all(args) else 1)
    if args.workload is None:
        p.error("give --workload, --all or --selftest")
    run_one(args)


if __name__ == "__main__":
    main()
