import numpy as np
import pytest

from machstem.convergence import (
    SINGLE_BLOCK,
    TWO_BLOCK,
    StudyResult,
    _fit,
    run_study,
)


def test_fit_recovers_exact_slope():
    h = np.array([0.4, 0.2, 0.1])
    errors = 3.0 * h ** 2.5
    rates, slope = _fit(h, errors)
    assert rates == pytest.approx([2.5, 2.5])
    assert slope == pytest.approx(2.5)


def test_frozen_study_configs():
    # the shock-locating stage order uses the diffusive flux, the
    # resolved stage order the low-dissipation flux
    assert SINGLE_BLOCK[1][0] == "lax_friedrichs"
    assert SINGLE_BLOCK[4][0] == "slau2"
    assert TWO_BLOCK[1][0] == "lax_friedrichs"
    assert TWO_BLOCK[4][0] == "slau2"
    for cfgs in (SINGLE_BLOCK, TWO_BLOCK):
        for order, cfg in cfgs.items():
            grids = cfg[1]
            assert len(grids) == 3
            assert all(b > a for a, b in zip(grids, grids[1:]))


def test_report_formatting():
    res = StudyResult(order=4, layout="single", h=[0.5, 0.25],
                      errors=[1e-3, 4e-5], rates=[4.64], slope=4.64)
    text = res.report()
    assert "polynomial order 4" in text
    assert "least-squares convergence rate: 4.64" in text


def test_unknown_layout_rejected():
    with pytest.raises(ValueError):
        run_study(1, "three-block")


@pytest.mark.slow
@pytest.mark.parametrize("layout", ["single", "two-block"])
def test_p1_study_converges_at_second_order(layout):
    assert run_study(1, layout).slope >= 1.9
