"""Print SHA-256 digests of what the benchmark's marches compute.

Runs one operation of each of ``benchmarks/workloads.py``'s
coarse-march, fine-march, vortex-p4 and smoke-rr workloads. Every march
they make (``march_to_steady`` or ``advance_time``) feeds the digest the
final coefficients of each block's active elements (the block's
``active_mask``), which are what the solver reads, and the history of
every ``march_to_steady``. Coefficients of holes and of fringe
receivers do not enter it. Prints one line per workload, smoke-rr's
with its classification and stem height, one digest of all four, and
the number of threads besides the main one that the run left (the
pool's, ``dg.dispatch``), then one ``peak <workload> <MB>`` line per
workload: the peak of the memory traced by ``tracemalloc`` during that
workload's operation, counting what its set-up allocated and still holds:

    python3 scripts/march_digest.py --seed 540

Two checkouts that print the same digests computed the same bits in
every active element. A history row is hashed by its first four entries
(iteration, residual, max wave speed, dt), which every version of the
march records. Uses the ``src/`` and ``benchmarks/`` of the checkout it
lives in, changes neither, and writes run directories to a temporary
directory only.

With ``--against <checkout>`` it also runs the same operations on the
``src/`` and ``benchmarks/`` of that checkout, in a second process of
this script, prints that checkout's lines after its own, and then one
``drift <workload>`` line per workload: ``same`` when every final
active coefficient has the same bits, else the largest |a - b| / max|b|
over the workload's marches and blocks (b the other checkout's
coefficients of one block after one march) and how many of the values
differ:

    python3 scripts/march_digest.py --seed 540 --against ../parent
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

# single-threaded math libraries, as in benchmarks/run.py
os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")})
HERE = Path(__file__).resolve()

import numpy as np  # noqa: E402

NAMES = ("coarse-march", "fine-march", "vortex-p4", "smoke-rr")


def feed(digest, array):
    array = np.ascontiguousarray(array, dtype=np.float64)
    digest.update(repr(array.shape).encode())
    digest.update(array.tobytes())


def hashing_marches(digest, kept):
    """Wrap both marchers, in every machstem module that holds them, so
    each feeds its blocks' final active coefficients (and its history) to
    ``digest`` and appends those coefficients to ``kept``; returns a
    function that puts the originals back."""
    from machstem import timestepping
    undo = []
    for name in ("march_to_steady", "advance_time"):
        original = getattr(timestepping, name)

        def hashed(system, coeffs_list, *args, _march=original, **kwargs):
            out = _march(system, coeffs_list, *args, **kwargs)
            for d, c in zip(system.discs, coeffs_list):
                active = c[:, d.active_mask]
                feed(digest, active)
                kept.append(active)
            if isinstance(out, timestepping.MarchResult):
                feed(digest, [row[:4] for row in out.history])
            return out

        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "machstem"
                    and mod.__dict__.get(name) is original):
                undo.append((mod, name, original))
                setattr(mod, name, hashed)
    return lambda: [setattr(*entry) for entry in undo]


def digests(seed):
    """Run every workload once; print the digest lines and return each
    workload's final active coefficients, {workload: [array, ...]}."""
    import workloads
    total = hashlib.sha256()
    peaks, kept = [], {}
    with tempfile.TemporaryDirectory() as out:
        for name in NAMES:
            tracemalloc.start()
            work = workloads.WORKLOADS[name](seed, out)
            digest = hashlib.sha256()
            kept[name] = []
            restore = hashing_marches(digest, kept[name])
            tracemalloc.reset_peak()
            try:
                ans = work.operation()
            finally:
                peaks.append((name, tracemalloc.get_traced_memory()[1]))
                tracemalloc.stop()
                restore()
            line = f"{name:13s} {digest.hexdigest()}"
            if name == "smoke-rr":
                meas = json.loads((work.run_dir / "result.json")
                                  .read_text())["measurement"]
                problems = work.check(ans)   # and removes the run directory
                line += (f"  {meas['classification']} stem "
                         f"{meas.get('stem_height_ratio')}"
                         + (f"  check: {'; '.join(problems)}"
                            if problems else ""))
            print(line, flush=True)
            total.update(digest.digest())
    print(f"{'all':13s} {total.hexdigest()}")
    print(f"{'threads':13s} {threading.active_count() - 1}")
    for name, peak in peaks:
        print(f"peak {name} {peak / 2 ** 20:.1f}", flush=True)
    return kept


def drift(ours, theirs):
    """``same``, or the largest |a - b| / max|b| over paired arrays and
    the number of values that differ."""
    if [a.shape for a in ours] != [b.shape for b in theirs]:
        return "the marches or their active elements differ"
    worst, differ, count = 0.0, 0, 0
    for a, b in zip(ours, theirs):
        diff = np.abs(a - b)
        differ += int(np.count_nonzero(a.view(np.int64) != b.view(np.int64)))
        count += a.size
        scale = np.max(np.abs(b), initial=0.0)
        if scale > 0.0:
            worst = max(worst, float(diff.max(initial=0.0)) / scale)
    if differ == 0:
        return "same"
    return (f"max|d|/max|x| {worst:.2e}, {differ} of {count} values "
            "differ")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--against", metavar="CHECKOUT",
                        help="also run that checkout and print the drift")
    # the checkout whose src/ and benchmarks/ run, and a file to save the
    # final active coefficients to (the second process of --against)
    parser.add_argument("--root", default=str(HERE.parent.parent),
                        help=argparse.SUPPRESS)
    parser.add_argument("--save", help=argparse.SUPPRESS)
    args = parser.parse_args()
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    kept = digests(args.seed)
    if args.save:
        np.savez(args.save, **{f"{name}/{k}": a for name, arrays
                               in kept.items() for k, a in enumerate(arrays)})
    if not args.against:
        return
    with tempfile.TemporaryDirectory() as tmp:
        saved = os.path.join(tmp, "against.npz")
        print(f"against {Path(args.against).resolve()}", flush=True)
        subprocess.run([sys.executable, str(HERE), "--seed", str(args.seed),
                        "--root", args.against, "--save", saved], check=True)
        theirs = {name: [] for name in NAMES}
        with np.load(saved) as data:
            for key in sorted(data.files,
                              key=lambda key: int(key.split("/")[1])):
                theirs[key.split("/")[0]].append(data[key])
    for name in NAMES:
        print(f"drift {name:13s} {drift(kept[name], theirs[name])}")


if __name__ == "__main__":
    main()
