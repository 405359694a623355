"""A/B two checkouts one benchmark operation at a time.

Starts one warm worker process per checkout, each with the ``src/`` and
``benchmarks/`` of its own checkout, and runs one operation of a
workload of ``benchmarks/workloads.py`` in one and then in the other,
alternating which goes first, so that drift of the host falls on both
sides of a pair alike:

    python3 scripts/ab_ops.py --base ../parent --workload fine-march \\
        --seed 7 --pairs 20

``--new`` defaults to the checkout this script lives in. Each worker
runs one untimed warm-up operation first; the two never run at the same
time. Each pair prints both sides' wall and CPU time (the process's,
every thread included) and the median step time of the operation's
marches, and the ratios new/base; the summary prints the median ratios
and the number of pairs in which the new checkout used less. An
operation whose answer fails the workload's check is reported and ends
the run. Run directories go to a temporary directory, removed at exit;
nothing under either checkout changes.
"""

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve()


def worker(root, workload, seed, out_dir):
    """Serve operations over stdin/stdout: one JSON line per ``run``."""
    # single-threaded math libraries, as in benchmarks/run.py
    os.environ.update({v: "1" for v in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS")})
    root = Path(root)
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    import tracing
    import workloads

    work = workloads.WORKLOADS[workload](seed, out_dir)
    clock = tracing.Clock()
    clock.install()

    def operation():
        clock.reset()
        gc.collect()
        cpu, start = time.process_time(), time.perf_counter()
        answer = work.operation()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        steps = clock.summary(start)[1]
        return {"wall_s": wall, "cpu_s": cpu,
                "iter_ms": statistics.median(steps) if steps else None,
                "problems": work.check(answer)}

    operation()                                     # warm-up
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        if line.strip() != "run":
            break
        print(json.dumps(operation()), flush=True)


class Side:
    def __init__(self, name, root, args, out_dir):
        self.name = name
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE), "--worker", str(root),
             "--workload", args.workload, "--seed", str(args.seed),
             "--out", out_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"ab_ops: the {self.name} worker exited")
        return json.loads(line)

    def run(self):
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        rec = self._read()
        if rec["problems"]:
            raise SystemExit(f"ab_ops: {self.name} answer failed its "
                             f"check: {'; '.join(rec['problems'])}")
        return rec

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)


def ratio(new, base, key):
    if new[key] is None or base[key] is None:
        return None
    return new[key] / base[key]


def fmt(value, spec):
    return "-" if value is None else format(value, spec)


def compare(args):
    keys = ("wall_s", "cpu_s", "iter_ms")
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        sides = []
        try:
            for name, root in (("base", args.base), ("new", args.new)):
                out = os.path.join(tmp, name)
                os.mkdir(out)
                sides.append(Side(name, Path(root).resolve(), args, out))
            base, new = sides
            print(f"{'pair':>4} {'first':>5} {'base wall':>10} "
                  f"{'new wall':>9} {'wall':>6} {'cpu':>6} {'iter':>6}")
            for k in range(args.pairs):
                order = (base, new) if k % 2 == 0 else (new, base)
                got = {side.name: side.run() for side in order}
                r = {key: ratio(got["new"], got["base"], key) for key in keys}
                pairs.append(r)
                print(f"{k:4d} {order[0].name:>5} "
                      f"{got['base']['wall_s']:9.3f}s "
                      f"{got['new']['wall_s']:8.3f}s "
                      + " ".join(fmt(r[key], "6.3f") for key in keys),
                      flush=True)
        finally:
            for side in sides:
                side.close()
    print("new/base over", len(pairs), "pairs:")
    for key in keys:
        vals = [r[key] for r in pairs if r[key] is not None]
        if vals:
            wins = sum(v < 1.0 for v in vals)
            print(f"  {key:7s} median ratio {statistics.median(vals):.3f}, "
                  f"new lower in {wins} of {len(vals)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="checkout to compare against")
    parser.add_argument("--new", default=str(HERE.parent.parent),
                        help="checkout under test (default: this one)")
    parser.add_argument("--workload", default="fine-march")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker, args.workload, args.seed, args.out)
    elif not args.base:
        parser.error("--base is required")
    else:
        compare(args)


if __name__ == "__main__":
    main()
