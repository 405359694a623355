"""Answer checks: no timing is recorded without a correct answer.

Each check takes the answer dictionary an operation returned and gives
back the list of problems found; an empty list means the answer is
correct.  ``selftest()`` hands every check wrong answers and confirms
that each one is caught.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from machstem import gas, io
from machstem.errors import InvalidStateError

# vortex-p4: least-squares order over the 16- and 32-cell levels, and
# the 32-cell density L2 error for the centred core at commit 64a8ca6;
# moving the core by up to 0.25 in x and y changes it by under 15 %
MIN_VORTEX_ORDER = 4.5
VORTEX_FINEST_ERROR = 3.5247e-05
VORTEX_ERROR_TOL = 0.25


def check_march(ans):
    problems = []
    if ans["outcome"] == "diverged":
        problems.append("march diverged")
    for k, means in enumerate(ans["means"]):
        try:
            gas.validate(means, gas.GasModel(), where=f"block {k} means")
        except InvalidStateError as exc:
            problems.append(str(exc))
    for k, totals in enumerate(ans["totals"]):
        if not np.all(np.isfinite(totals)):
            problems.append(f"block {k}: conserved totals are not finite")
    return problems


def check_coarse(ans):
    problems = check_march(ans)
    if ans["flagged"] < 1:
        problems.append("no cell flagged on the coarse solution")
    if ans["segments"] < 1:
        problems.append("no shock path segment fitted")
    return problems


def check_fine(ans):
    problems = check_march(ans)
    if ans["patch_flagged"] < 1:
        problems.append("the patch indicator never fired")
    if ans["fringe"] < 1:
        problems.append("the overset assembly has no fringe cells")
    return problems


def check_smoke(ans):
    problems = []
    if ans["classification"] != "RR":
        problems.append(f"classified {ans['classification']!r}, expected 'RR'")
    _, manifest = io.verify_manifest(ans["run_dir"])
    problems.extend(f"manifest: {p}" for p in manifest)
    return problems


def check_vortex(ans):
    problems = []
    if not ans["order"] >= MIN_VORTEX_ORDER:
        problems.append(f"measured order {ans['order']:.3f} < "
                        f"{MIN_VORTEX_ORDER}")
    rel = ans["finest_error"] / VORTEX_FINEST_ERROR - 1.0
    if not abs(rel) <= VORTEX_ERROR_TOL:
        problems.append(f"finest-grid error {ans['finest_error']:.4e} is "
                        f"off the reference {VORTEX_FINEST_ERROR:.4e} by "
                        f"more than {VORTEX_ERROR_TOL:.0%}")
    return problems


def selftest(out_dir):
    """Feed each check a right answer and wrong ones; return failures."""
    g = gas.GasModel()
    good_means = np.asarray(gas.conserved(1.0, 3.0, 0.0, 1.0 / g.gamma, g),
                            float)[:, None] * np.ones((1, 5))
    bad_means = good_means.copy()
    bad_means[3, 2] = 0.0                     # negative pressure
    march = {"outcome": "max_iterations", "means": [good_means],
             "totals": [good_means.sum(axis=1)]}
    coarse = dict(march, flagged=3, segments=1)
    fine = dict(march, patch_flagged=7, fringe=40)

    run_dir = Path(out_dir) / "selftest-run"
    run_dir.mkdir(parents=True, exist_ok=True)
    artifact = run_dir / "result.json"
    artifact.write_text("{}\n")
    manifest = io.RunManifest(run_dir, {}, {})
    manifest.record(artifact)
    manifest.finish()
    smoke = {"classification": "RR", "run_dir": run_dir}
    vortex = {"order": 4.9, "finest_error": VORTEX_FINEST_ERROR}

    cases = [
        (check_coarse, coarse, [
            dict(coarse, outcome="diverged"),
            dict(coarse, means=[bad_means]),
            dict(coarse, totals=[np.array([1.0, np.nan, 0.0, 1.0])]),
            dict(coarse, flagged=0),
            dict(coarse, segments=0)]),
        (check_fine, fine, [
            dict(fine, outcome="diverged"),
            dict(fine, means=[good_means, bad_means]),
            dict(fine, patch_flagged=0),
            dict(fine, fringe=0)]),
        (check_smoke, smoke, [dict(smoke, classification="MR")]),
        (check_vortex, vortex, [
            dict(vortex, order=2.1),
            dict(vortex, order=float("nan")),
            dict(vortex, finest_error=10.0 * VORTEX_FINEST_ERROR)]),
    ]
    failures = []
    for check, right, wrongs in cases:
        if check(right):
            failures.append(f"{check.__name__} rejects a right answer: "
                            f"{check(right)}")
        for k, wrong in enumerate(wrongs):
            if not check(wrong):
                failures.append(f"{check.__name__} accepts wrong answer {k}")
    # a tampered artifact must break the manifest check
    artifact.write_text("{\"tampered\": true}\n")
    if not check_smoke(smoke):
        failures.append("check_smoke accepts a tampered run directory")
    artifact.unlink()
    if not check_smoke(smoke):
        failures.append("check_smoke accepts a missing artifact")
    return failures
