"""Print SHA-256 digests of what the benchmark's marches compute.

Runs one operation of each of ``benchmarks/workloads.py``'s
coarse-march, fine-march and vortex-p4 workloads and hashes the final
coefficients of every march it makes, and the history of every
``march_to_steady``; then one smoke-rr operation, hashing the arrays of
its checkpoint. Prints one line per workload, smoke-rr's classification
and stem height, one digest of all four, and the number of threads
besides the main one that the run left (the pool's, ``dg.dispatch``):

    python3 scripts/march_digest.py --seed 540

Two checkouts that print the same digests computed the same bits. A
history row is hashed by its first four entries (iteration, residual,
max wave speed, dt), which every version of the march records. Uses the
``src/`` and ``benchmarks/`` of the checkout it lives in, changes
neither, and writes run directories to a temporary directory only.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

# single-threaded math libraries, as in benchmarks/run.py
os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")})
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from machstem import pipeline, timestepping  # noqa: E402


def feed(digest, array):
    array = np.ascontiguousarray(array, dtype=np.float64)
    digest.update(repr(array.shape).encode())
    digest.update(array.tobytes())


def hashing_marches(digest):
    """Wrap both marchers, in every machstem module that holds them, so
    each feeds its final coefficients (and history) to ``digest``; returns
    a function that puts the originals back."""
    undo = []
    for name in ("march_to_steady", "advance_time"):
        original = getattr(timestepping, name)

        def hashed(system, coeffs_list, *args, _march=original, **kwargs):
            out = _march(system, coeffs_list, *args, **kwargs)
            for c in coeffs_list:
                feed(digest, c)
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
    with tempfile.TemporaryDirectory() as out:
        for name in ("coarse-march", "fine-march", "vortex-p4"):
            digest = hashlib.sha256()
            restore = hashing_marches(digest)
            try:
                workloads.WORKLOADS[name](seed, out).operation()
            finally:
                restore()
            print(f"{name:13s} {digest.hexdigest()}")
            total.update(digest.digest())

        work = workloads.SmokeRR(seed, out)
        ans = work.operation()
        digest = hashlib.sha256()
        for path in sorted((work.run_dir / pipeline.CHECKPOINT_DIR)
                           .glob("*.npy")):
            digest.update(path.name.encode())
            feed(digest, np.load(path))
        meas = json.loads((work.run_dir / "result.json").read_text())[
            "measurement"]
        problems = work.check(ans)   # and removes the run directory
        print(f"{'smoke-rr':13s} {digest.hexdigest()}  "
              f"{meas['classification']} stem "
              f"{meas.get('stem_height_ratio')}"
              + (f"  check: {'; '.join(problems)}" if problems else ""))
        total.update(digest.digest())
    print(f"{'all':13s} {total.hexdigest()}")
    print(f"{'threads':13s} {threading.active_count() - 1}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    main(parser.parse_args().seed)
