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
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

# single-threaded math libraries, as in benchmarks/run.py
os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")})
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from machstem import timestepping  # noqa: E402


def feed(digest, array):
    array = np.ascontiguousarray(array, dtype=np.float64)
    digest.update(repr(array.shape).encode())
    digest.update(array.tobytes())


def hashing_marches(digest):
    """Wrap both marchers, in every machstem module that holds them, so
    each feeds its blocks' final active coefficients (and its history) to
    ``digest``; returns a function that puts the originals back."""
    undo = []
    for name in ("march_to_steady", "advance_time"):
        original = getattr(timestepping, name)

        def hashed(system, coeffs_list, *args, _march=original, **kwargs):
            out = _march(system, coeffs_list, *args, **kwargs)
            for d, c in zip(system.discs, coeffs_list):
                feed(digest, c[:, d.active_mask])
            if isinstance(out, timestepping.MarchResult):
                feed(digest, [row[:4] for row in out.history])
            return out

        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "machstem"
                    and mod.__dict__.get(name) is original):
                undo.append((mod, name, original))
                setattr(mod, name, hashed)
    return lambda: [setattr(*entry) for entry in undo]


def main(seed):
    total = hashlib.sha256()
    peaks = []
    with tempfile.TemporaryDirectory() as out:
        for name in ("coarse-march", "fine-march", "vortex-p4", "smoke-rr"):
            tracemalloc.start()
            work = workloads.WORKLOADS[name](seed, out)
            digest = hashlib.sha256()
            restore = hashing_marches(digest)
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
            print(line)
            total.update(digest.digest())
    print(f"{'all':13s} {total.hexdigest()}")
    print(f"{'threads':13s} {threading.active_count() - 1}")
    for name, peak in peaks:
        print(f"peak {name} {peak / 2 ** 20:.1f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    main(parser.parse_args().seed)
