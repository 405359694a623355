"""Classify the smoke-rr case of the benchmark for many seeds.

Runs ``benchmarks/workloads.py``'s ``SmokeRR`` operation (a tiny
15.5-16.5 deg regular reflection, one wedge angle per seed) and prints
one line per seed with its angle, classification and stem height, then
the count of each classification:

    python3 scripts/smoke_rr_scan.py 0-99 1121-1130

Run directories go to a temporary directory and are removed.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS")})
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402


def seeds(specs):
    for spec in specs:
        lo, _, hi = spec.partition("-")
        yield from range(int(lo), int(hi or lo) + 1)


def main(specs):
    counts = {}
    with tempfile.TemporaryDirectory() as out:
        for seed in seeds(specs):
            work = workloads.SmokeRR(seed, out)
            ans = work.operation()
            doc = json.loads((work.run_dir / "result.json").read_text())
            problems = work.check(ans)   # and removes the run directory
            print(f"seed {seed:5d}  angle {work.angle:.3f}  "
                  f"{ans['classification']}  stem "
                  f"{doc['measurement'].get('stem_height_ratio')}  "
                  f"{'; '.join(problems)}", flush=True)
            counts[ans["classification"]] = counts.get(
                ans["classification"], 0) + 1
    print(" ".join(f"{k}: {v}" for k, v in sorted(counts.items())))


if __name__ == "__main__":
    main(sys.argv[1:] or ["0-99", "1121-1130"])
