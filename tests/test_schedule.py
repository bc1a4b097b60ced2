import numpy as np
import pytest

from inpaintlab import Schedule, TimeGrid, eval_schedule, make_grid


def test_uniform_grid():
    grid = make_grid(4, "uniform")
    np.testing.assert_allclose(grid.knots, [0, 0.25, 0.5, 0.75, 1])
    assert grid.num_steps == 4


def test_quadratic_grid():
    grid = make_grid(2, "quadratic")
    np.testing.assert_allclose(grid.knots, [0, 0.25, 1])


def test_zero_steps_rejected():
    with pytest.raises(ValueError):
        make_grid(0, "uniform")


def test_unknown_spacing_rejected():
    with pytest.raises(ValueError):
        make_grid(4, "cubic")


def test_linear_flow_boundaries():
    sched = Schedule("linear-flow")
    assert eval_schedule(sched, 0.0) == (1.0, 0.0)
    assert eval_schedule(sched, 1.0) == (0.0, 1.0)
    assert eval_schedule(sched, 0.5) == (0.5, 0.5)


def test_trig_vp_midpoint():
    # cos(pi/4) = sin(pi/4) = sqrt(2)/2
    alpha, sigma = eval_schedule(Schedule("trig-vp"), 0.5)
    assert alpha == pytest.approx(0.7071067811865476, abs=1e-15)
    assert sigma == pytest.approx(0.7071067811865476, abs=1e-12)


def test_trig_vp_endpoints_are_exact():
    # cos(pi / 2) rounds to 6.1e-17; the schedule returns alpha_1 = 0 itself
    sched = Schedule("trig-vp")
    assert eval_schedule(sched, 1.0) == (0.0, 1.0)
    assert eval_schedule(sched, 0.0) == (1.0, 0.0)


def test_time_domain_enforced():
    sched = Schedule("linear-flow")
    for t in (-0.1, 1.1):
        with pytest.raises(ValueError):
            eval_schedule(sched, t)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Schedule("cosine")


@pytest.mark.parametrize("kind", ["linear-flow", "trig-vp"])
def test_boundary_and_monotonicity(kind):
    sched = Schedule(kind)
    ts = np.linspace(0, 1, 501)
    alphas, sigmas = zip(*(eval_schedule(sched, t) for t in ts))
    alphas, sigmas = np.array(alphas), np.array(sigmas)
    assert alphas[0] == 1.0 and sigmas[0] == 0.0
    assert abs(alphas[-1]) < 1e-15 and sigmas[-1] == 1.0
    assert np.all(np.diff(alphas) <= 0)
    assert np.all(np.diff(sigmas) >= 0)


def test_trig_vp_variance_preserving():
    sched = Schedule("trig-vp")
    for t in np.linspace(0, 1, 201):
        alpha, sigma = eval_schedule(sched, t)
        assert abs(alpha**2 + sigma**2 - 1.0) < 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.4, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.5, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.9]))


@pytest.mark.parametrize("knots", [[0.0], [[0.0, 1.0]]], ids=["one-knot", "2-d"])
def test_schedule_input_checks(knots):
    with pytest.raises(ValueError, match="^grid needs at least two knots$"):
        TimeGrid(np.array(knots))
