"""The guided steps' arithmetic: observed columns only, in buffers they own.

Every step, ``transition_params`` and ``sample_transition`` must give the
bytes of the out-of-place, full-width expressions in ``reference``, must
not write into any of its inputs, and must report a non-finite estimate
as the same NumericError.
"""

import dataclasses

import numpy as np
import pytest

import reference
from inpaintlab import (
    METHODS,
    Denoiser,
    GaussianMixture,
    GMMDenoiser,
    MaskOperator,
    NumericError,
    SamplerConfig,
    Schedule,
    make_grid,
    make_observation,
    run_conditional,
    sample_transition,
    transition_params,
)
from inpaintlab import guidance
from inpaintlab.gmm import Evaluation
from inpaintlab.guidance import chain_rngs

LIN = Schedule("linear-flow")

# (s, t) pairs: a first step from t = 1 (alpha_t = 0, where dps reads its
# scale at s), an interior step whose sigmas are not powers of two, and a
# last step to s = 0 (sigma_s = 0, where ding returns its mean)
STEPS = ((0.99, 1.0), (0.37, 0.43), (0.0, 0.01))


def _gmm8(mask="11110000"):
    prior = GaussianMixture([0.5, 0.5], [[-2.0] * 8, [2.0] * 8], [[1.0] * 8] * 2)
    # a reference with negative entries puts -0.0 into y off the support
    x_star = np.array([2.3, -0.96, 2.75, 2.94, -0.05, 0.70, -2.13, 1.68])
    return prior, make_observation(x_star, MaskOperator([int(c) for c in mask]), 0.1)


def _full12():
    rng = np.random.default_rng(12)
    k, d = 32, 12
    a = rng.standard_normal((k, d, d))
    cov = 0.3 * a @ np.swapaxes(a, 1, 2) / d + 0.2 * np.eye(d)
    prior = GaussianMixture(rng.dirichlet(np.ones(k)), 2.0 * rng.standard_normal((k, d)), cov)
    mask = np.zeros(d, dtype=int)
    mask[rng.choice(d, d // 2, replace=False)] = 1
    return prior, make_observation(prior.sample(1, rng)[0], MaskOperator(mask), 0.1)


CASES = {
    "gmm8": (_gmm8, 4000, {}),
    "full12": (_full12, 500, {}),
    "all-observed": (lambda: _gmm8("11111111"), 300, {}),
    "empty": (lambda: _gmm8("00000000"), 300, {}),
    "ding-nz3": (_gmm8, 300, {"ding_nz": 3}),
    "point": (_gmm8, None, {}),
}


def _cfg(method, n, **kw):
    knobs = {"eta": 0.8, "gamma": 0.1, "dps_scale": 0.1, "seed": 3, **kw}
    return SamplerConfig(method=method, grid=make_grid(100), n_chains=n or 1, **knobs)


def _rng(cfg, n):
    """A fresh copy of the step's stream: a ChainStreams for n chains, a
    single Generator for a (d,) point."""
    if n is None:
        return np.random.default_rng(cfg.seed)
    return chain_rngs(cfg.seed, cfg.method, n)


def _state(prior, n, seed=0):
    rng = np.random.default_rng(seed)
    shape = (prior.dim,) if n is None else (n, prior.dim)
    return 2.0 * rng.standard_normal(shape)


@pytest.mark.filterwarnings("ignore::UserWarning")  # the empty mask warns
@pytest.mark.parametrize(
    "method, case",
    [(m, c) for m in METHODS for c in CASES if m == "ding" or "ding_nz" not in CASES[c][2]],
)
def test_steps_give_the_bytes_of_the_out_of_place_form(method, case):
    build, n, knobs = CASES[case]
    prior, problem = build()
    den = GMMDenoiser(prior, LIN)
    cfg = _cfg(method, n, **knobs)
    new, old = getattr(guidance, f"step_{method}"), getattr(reference, f"step_{method}")
    for s, t in STEPS:
        x_t = _state(prior, n)
        ev = den.evaluate(x_t, t)
        want = old(x_t, ev, s, problem, LIN, den, cfg, _rng(cfg, n))
        got = new(x_t, ev, s, problem, LIN, den, cfg, _rng(cfg, n))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (s, t)


@pytest.mark.parametrize("case", ["gmm8", "full12", "point"])
@pytest.mark.parametrize("eta", [0.0, 0.8, 1.0])
def test_transition_gives_the_bytes_of_the_out_of_place_form(case, eta):
    build, n, _ = CASES[case]
    prior, _ = build()
    den = GMMDenoiser(prior, LIN)
    for s, t in STEPS:
        x_t = _state(prior, n)
        xhat0 = den.evaluate(x_t, t).xhat0
        want_mean, want_std = reference.transition(LIN, eta, x_t, xhat0, s, t)
        mean, std = transition_params(LIN, eta, x_t, xhat0, s, t)
        assert mean.tobytes() == want_mean.tobytes()
        assert std == want_std
        want = reference.sample(want_mean, want_std, _rng(_cfg("ddnm", n), n))
        got = sample_transition(mean, std, _rng(_cfg("ddnm", n), n))
        assert got.tobytes() == want.tobytes()


def _arrays(x_t, ev, problem):
    """Every array a step reads, by name."""
    arrays = {"x_t": x_t, "ev.xhat0": ev.xhat0, "y": problem.y, "mask": problem.mask.m}
    for f in dataclasses.fields(ev):
        value = getattr(ev, f.name)
        if isinstance(value, np.ndarray):
            arrays[f"ev.{f.name}"] = value
    return arrays


def _assert_untouched(before, arrays):
    for name, value in arrays.items():
        assert value.tobytes() == before[name], f"{name} was written"


@pytest.mark.parametrize("case", ["gmm8", "full12", "point"])
@pytest.mark.parametrize("method", METHODS)
def test_steps_do_not_write_into_their_inputs(method, case):
    build, n, _ = CASES[case]
    prior, problem = build()
    den = GMMDenoiser(prior, LIN)
    cfg = _cfg(method, n, ding_nz=2)
    for s, t in STEPS:
        x_t = _state(prior, n)
        ev = den.evaluate(x_t, t)
        arrays = _arrays(x_t, ev, problem)
        before = {name: value.tobytes() for name, value in arrays.items()}
        out = getattr(guidance, f"step_{method}")(x_t, ev, s, problem, LIN, den, cfg,
                                                  _rng(cfg, n))
        _assert_untouched(before, arrays)
        assert not any(np.shares_memory(out, value) for value in arrays.values())


def test_transition_does_not_write_into_its_inputs():
    prior, _ = _gmm8()
    den = GMMDenoiser(prior, LIN)
    x_t = _state(prior, 500)
    xhat0 = den.evaluate(x_t, 0.5).xhat0
    arrays = {"x_t": x_t, "xhat0": xhat0}
    before = {name: value.tobytes() for name, value in arrays.items()}
    mean, std = transition_params(LIN, 0.8, x_t, xhat0, 0.4, 0.5)
    _assert_untouched(before, arrays)
    mean_bytes = mean.tobytes()
    x_s = sample_transition(mean, std, chain_rngs(0, "ddnm", 500))
    assert mean.tobytes() == mean_bytes
    assert not np.shares_memory(x_s, mean)


class SpikedDenoiser(Denoiser):
    """x0_hat = x / 2, with +inf in column ``col`` of the first ``bad``
    chains; its vjp is the identity map."""

    def __init__(self, col, bad):
        self.col, self.bad = col, bad

    def evaluate(self, x, t):
        out = 0.5 * np.asarray(x, dtype=float)
        out[: self.bad, ..., self.col] = np.inf
        return Evaluation(t, out)

    def vjp(self, ev, v):
        return np.array(v, dtype=float)


def _spiked_message(method):
    return (f"{method} at step k=10 (t=1 -> s=0.9): "
            "transition mean must be finite: 5 of 70 chains non-finite")


def _spiked_run(method, col, steps=None, monkeypatch=None):
    """Run ``method`` on a mask observing columns 0 and 1 of 4 with 5 of 70
    chains spiked in column ``col``; ``steps`` swaps in other step functions."""
    problem = make_observation(np.array([1.0, -2.0, 0.5, 3.0]), MaskOperator([1, 1, 0, 0]), 0.2)
    cfg = SamplerConfig(method=method, grid=make_grid(10), eta=0.8, gamma=0.2, n_chains=70,
                        seed=1, final_replacement=False)
    if steps is not None:
        monkeypatch.setattr(guidance, f"step_{method}", getattr(steps, f"step_{method}"))
    return run_conditional(problem, SpikedDenoiser(col, 5), LIN, cfg)


@pytest.mark.parametrize("method", METHODS)
def test_unobserved_non_finite_estimate_names_method_step_and_chains(method, monkeypatch):
    # the estimate is +inf off the support: every method stops at its first
    # step, with the message and chain count of the out-of-place steps
    want = _spiked_message(method)
    with pytest.raises(NumericError) as got:
        _spiked_run(method, col=2)
    assert str(got.value) == want
    with pytest.raises(NumericError) as old:
        _spiked_run(method, col=2, steps=reference, monkeypatch=monkeypatch)
    assert str(old.value) == want


@pytest.mark.parametrize("method", METHODS)
def test_observed_non_finite_estimate(method, monkeypatch):
    # on the support, only ddnm's outcome changed: its projection replaces
    # the observed columns by y, where the full-width m * y + (1 - m) * x0_hat
    # turned 0 * inf into NaN; every other method still stops as before
    want = _spiked_message(method)
    with pytest.raises(NumericError) as old:
        _spiked_run(method, col=0, steps=reference, monkeypatch=monkeypatch)
    assert str(old.value) == want
    monkeypatch.undo()
    if method == "ddnm":
        assert np.all(np.isfinite(_spiked_run(method, col=0)))
        return
    with pytest.raises(NumericError) as got:
        _spiked_run(method, col=0)
    assert str(got.value) == want
