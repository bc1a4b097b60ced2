"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line with the measured
numbers (run with ``pytest -s tests/test_acceptance.py`` to see them all).
Every tolerance is pinned here, in the assertions.
"""

import csv
import dataclasses
import math
import time

import numpy as np
import pytest

from inpaintlab import (
    GaussianMixture,
    GMMDenoiser,
    InpaintingProblem,
    MaskOperator,
    PixelMask,
    SamplerConfig,
    Schedule,
    cpsnr,
    ding_gap,
    eval_schedule,
    exact_guidance_grad,
    exact_intermediate_loglik,
    exact_posterior,
    exact_posterior_denoiser,
    gmm_marginal,
    leakage_report,
    lift_mask,
    log_likelihood,
    make_grid,
    make_observation,
    moment_diff,
    run_conditional,
    run_unconditional,
    sliced_w2,
)
from inpaintlab.config import load_config
from inpaintlab.cli import run_experiment
from inpaintlab import gmm
from inpaintlab.gmm import ConditionalMixture, noise_from_x0

import reference

LIN = Schedule("linear-flow")


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


def _elapsed_ok(tag: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{tag} exceeded its {budget:.0f} s budget: {elapsed:.1f} s"


@pytest.fixture(scope="module")
def suite_prior():
    # 3-component mixture in R^4 used by the identity suites
    return GaussianMixture(
        [0.2, 0.5, 0.3],
        [[1.0, -1.0, 0.0, 2.0], [0.0, 0.5, -0.5, 0.0], [-2.0, 1.0, 1.0, -1.0]],
        [[1.0, 0.5, 2.0, 1.0], [0.3, 1.0, 0.7, 2.0], [1.5, 1.5, 0.4, 0.9]],
    )


def _a1_residuals(prior):
    """Worst duality and score residuals over A1's 100 draws."""
    rng = np.random.default_rng(10)
    dual_worst = score_worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.01, 1.0))
        x = rng.standard_normal(4) * 2.0
        _, sigma = eval_schedule(LIN, t)
        xhat1 = noise_from_x0(x, GMMDenoiser(prior, LIN).denoise(x, t), *eval_schedule(LIN, t))
        want = reference.noise_mean(prior, LIN, x, t)
        dual_worst = max(dual_worst, float(np.max(np.abs(xhat1 - want))))
        score = gmm_marginal(prior, LIN, t).score(x)
        score_worst = max(score_worst, float(np.max(np.abs(xhat1 + sigma * score))))
    return dual_worst, score_worst


def test_a1_tweedie_and_duality(suite_prior):
    # duality: the noise predictor against E[X1 | x] of the joint law,
    # computed independently in tests/reference.py
    start = time.perf_counter()
    dual_worst, score_worst = _a1_residuals(suite_prior)
    ok = dual_worst <= 1e-10 and score_worst <= 1e-8
    _report("A1", ok, f"duality resid {dual_worst:.2e} (tol 1e-10), "
                      f"score resid {score_worst:.2e} (tol 1e-8)")
    assert dual_worst <= 1e-10
    assert score_worst <= 1e-8
    _elapsed_ok("A1", start, 5.0)


def _a2_residuals(prior):
    """Worst identity, finite-difference and gap residuals over A2's 50 draws."""
    rng = np.random.default_rng(11)
    den = GMMDenoiser(prior, LIN)
    ident_worst = fd_worst = gap_worst = 0.0
    for _ in range(50):
        t = float(rng.uniform(0.05, 0.95))
        x = rng.standard_normal(4) * 2.0
        j0 = den.jacobian(den.evaluate(x, t))  # d vjp rows
        want = reference.denoiser_jacobian(prior, LIN, x, t)
        ident_worst = max(ident_worst, float(np.max(np.abs(j0 - want))))
        h = 1e-4
        fd = np.zeros((4, 4))
        for c in range(4):
            dx = np.zeros(4)
            dx[c] = h
            hi = den.denoise(x + dx, t)
            lo = den.denoise(x - dx, t)
            fd[:, c] = (hi - lo) / (2 * h)
        fd_worst = max(fd_worst, float(np.max(np.abs(j0 - fd))))
        z = rng.standard_normal(4)
        gap = ding_gap(prior, LIN, x, z, t)
        gap_worst = max(gap_worst, abs(gap - reference.ding_gap(prior, LIN, x, z, t)))
    return ident_worst, fd_worst, gap_worst


def test_a2_second_order_tweedie(suite_prior):
    # identity and gap: against (I + sigma^2 H) / alpha and
    # (sigma^2 / alpha) ||H (x - z)||, H the Hessian of log p_t from the
    # marginal components in tests/reference.py
    start = time.perf_counter()
    ident_worst, fd_worst, gap_worst = _a2_residuals(suite_prior)
    ok = ident_worst <= 1e-8 and fd_worst <= 1e-6 and gap_worst <= 1e-8
    _report("A2", ok, f"identity resid {ident_worst:.2e} (tol 1e-8), "
                      f"FD resid {fd_worst:.2e} (tol 1e-6), "
                      f"gap resid {gap_worst:.2e} (tol 1e-8)")
    assert ident_worst <= 1e-8
    assert fd_worst <= 1e-6
    assert gap_worst <= 1e-8
    _elapsed_ok("A2", start, 10.0)


def _perturb_estimate(monkeypatch):
    unperturbed = gmm.component_posterior

    def perturbed(*args):
        cond = unperturbed(*args)
        return dataclasses.replace(cond, xhat0=(1.0 + 1e-6) * cond.xhat0)

    monkeypatch.setattr(gmm, "component_posterior", perturbed)


def _perturb_vjp(monkeypatch):
    unperturbed = ConditionalMixture.vjp
    monkeypatch.setattr(ConditionalMixture, "vjp",
                        lambda self, *args: (1.0 + 1e-6) * unperturbed(self, *args))


@pytest.mark.parametrize(
    "perturb, check, index, tol",
    [
        pytest.param(_perturb_estimate, _a1_residuals, 0, 1e-10, id="a1-duality"),
        pytest.param(_perturb_vjp, _a2_residuals, 0, 1e-8, id="a2-identity"),
        pytest.param(_perturb_vjp, _a2_residuals, 2, 1e-8, id="a2-gap"),
    ],
)
def test_tweedie_checks_fail_on_perturbed_kernel(suite_prior, monkeypatch, perturb, check,
                                                 index, tol):
    # each reference check must see a 1e-6 relative error in what it checks
    perturb(monkeypatch)
    assert check(suite_prior)[index] > tol


def test_a3_oracle_consistency():
    start = time.perf_counter()
    prior = GaussianMixture(
        [0.3, 0.45, 0.25],
        [[1.0, -1.0, 0.2], [0.5, 2.0, -0.3], [-1.5, 0.0, 1.0]],
        [[1.0, 2.0, 0.5], [0.5, 0.8, 1.5], [2.0, 1.0, 0.7]],
    )
    problem = InpaintingProblem(MaskOperator([1, 0, 1]), np.array([0.7, 0.0, -0.2]), 0.5)
    rng = np.random.default_rng(12)

    route_worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.05, 0.95))
        x = rng.standard_normal(3)
        # the prior denoiser plus the scaled guidance gradient, against conditioning
        alpha, sigma = eval_schedule(LIN, t)
        a = GMMDenoiser(prior, LIN).denoise(x, t) + (sigma**2 / alpha) * exact_guidance_grad(
            problem, prior, LIN, x, t)
        b = exact_posterior_denoiser(problem, prior, LIN, x, t)
        route_worst = max(route_worst, float(np.max(np.abs(a - b))))

    # Monte-Carlo oracle for the intermediate likelihood, 1e6 draws of X0 | X_t
    from inpaintlab.gmm import component_posterior

    x = np.array([0.3, -0.5, 0.8])
    t = 0.5
    cond = component_posterior(prior, LIN, x, t)
    n = 1_000_000
    comp = rng.choice(3, size=n, p=cond.resp)
    means = cond.component_means()
    draws = means[comp, :] + np.sqrt(cond.cov_evals[comp]) * rng.standard_normal((n, 3))
    lik = np.exp(log_likelihood(problem, draws))
    mc_mean = lik.mean()
    mc_se = lik.std(ddof=1) / np.sqrt(n)
    exact = math.exp(exact_intermediate_loglik(problem, prior, LIN, x, t))
    mc_gap_se = abs(exact - mc_mean) / mc_se

    grad_worst = 0.0
    for _ in range(20):
        t = float(rng.uniform(0.05, 0.95))
        xg = rng.standard_normal(3)
        analytic = exact_guidance_grad(problem, prior, LIN, xg, t)
        fd = reference.fd_guidance_grad(problem, prior, LIN, xg, t, step=1e-5)
        grad_worst = max(
            grad_worst, float(np.max(np.abs(analytic - fd)) / max(1.0, np.max(np.abs(fd))))
        )

    ok = route_worst <= 1e-8 and mc_gap_se <= 3.0 and grad_worst <= 1e-5
    _report("A3", ok, f"route resid {route_worst:.2e} (tol 1e-8), "
                      f"MC gap {mc_gap_se:.2f} SE (tol 3), "
                      f"grad rel resid {grad_worst:.2e} (tol 1e-5)")
    assert route_worst <= 1e-8
    assert mc_gap_se <= 3.0
    assert grad_worst <= 1e-5
    _elapsed_ok("A3", start, 60.0)


@pytest.fixture(scope="module")
def benchmark_setup():
    d = 8
    prior = GaussianMixture(
        [0.5, 0.5], np.stack([-2.0 * np.ones(d), 2.0 * np.ones(d)]), np.ones((2, d))
    )
    rng = np.random.default_rng(42)
    x_star = prior.means[1] + rng.standard_normal(d)  # draw from component 1
    mask = MaskOperator(np.array([1, 1, 1, 1, 0, 0, 0, 0]))
    return prior, mask, x_star


def test_a4_posterior_recovery(benchmark_setup):
    start = time.perf_counter()
    prior, mask, x_star = benchmark_setup
    problem = make_observation(x_star, mask, 0.1)
    posterior = exact_posterior(problem, prior)
    n = 4000
    oracle_samples = posterior.sample(n, np.random.default_rng(100))
    prior_samples = prior.sample(n, np.random.default_rng(101))
    base = sliced_w2(prior_samples, oracle_samples, 128, 0)

    denoiser = GMMDenoiser(prior, LIN)
    grid = make_grid(100)
    # dps runs at zeta = 0.1: the point-estimate guidance overshoots the true
    # gradient by ~(C0_t + gamma^2)/gamma^2 near t = 1 and diverges at zeta = 1
    zetas = {"dps": 0.1}
    ratios = {}
    ding_jacobian_calls = None
    for method in ("ding", "dps", "ddnm", "diffpir", "blended"):
        calls = denoiser.jacobian_calls
        cfg = SamplerConfig(
            method=method, grid=grid, eta=0.8, gamma=0.1,
            dps_scale=zetas.get(method, 1.0), final_replacement=False,
            seed=0, n_chains=n,
        )
        samples = run_conditional(problem, denoiser, LIN, cfg)
        ratios[method] = sliced_w2(samples, oracle_samples, 128, 0) / base
        if method == "ding":
            ding_jacobian_calls = denoiser.jacobian_calls - calls

    ok = all(r <= 0.25 for r in ratios.values()) and ding_jacobian_calls == 0
    detail = ", ".join(f"{m} {r:.3f}" for m, r in ratios.items())
    _report("A4", ok, f"sw2 ratios vs 0.25: {detail}; "
                      f"ding jacobian calls {ding_jacobian_calls}")
    for method, ratio in ratios.items():
        assert ratio <= 0.25, f"{method}: sw2 ratio {ratio:.3f} > 0.25"
    assert ding_jacobian_calls == 0
    _elapsed_ok("A4", start, 120.0)


def test_a5_data_consistency(benchmark_setup):
    start = time.perf_counter()
    prior, mask, x_star = benchmark_setup
    problem = make_observation(x_star, mask, 0.01)
    denoiser = GMMDenoiser(prior, LIN)
    grid = make_grid(100)
    n = 4000

    cfg = SamplerConfig(method="ding", grid=grid, eta=0.8, gamma=0.01,
                        final_replacement=False, seed=0, n_chains=n)
    samples = run_conditional(problem, denoiser, LIN, cfg)
    obs = mask.observed_idx
    gap = float(np.mean(np.abs(samples[:, obs] - problem.y[obs])))

    replacement_exact = True
    zetas = {"dps": 0.001}  # zeta tracks 10 * gamma^2 for stability
    for method in ("ding", "dps", "ddnm", "diffpir", "blended"):
        cfg = SamplerConfig(
            method=method, grid=grid, eta=0.8, gamma=0.01,
            dps_scale=zetas.get(method, 1.0), final_replacement=True,
            seed=0, n_chains=64,
        )
        out = run_conditional(problem, denoiser, LIN, cfg)
        if not np.array_equal(mask.m * out, np.tile(mask.m * problem.y, (64, 1))):
            replacement_exact = False

    ok = gap <= 5e-2 and replacement_exact
    _report("A5", ok, f"ding mean |x-y| on observed {gap:.4f} (tol 0.05); "
                      f"replacement exact for all methods: {replacement_exact}")
    assert gap <= 5e-2
    assert replacement_exact
    _elapsed_ok("A5", start, 60.0)


def _chain_terminal_variance(eta: float, num_steps: int) -> float:
    """Exact terminal variance per coordinate of the documented reverse chain.

    Prior N(mu, 1) per coordinate, linear flow alpha_t = 1 - t, sigma_t = t,
    uniform grid, chain started from N(0, 1) at t = 1.  Gaussian conditioning
    gives x0_hat - mu = alpha_t (x_t - alpha_t mu) / (alpha_t^2 + sigma_t^2)
    and x1_hat = sigma_t (x_t - alpha_t mu) / (alpha_t^2 + sigma_t^2), so the
    step x_s = alpha_s x0_hat + beta_s x1_hat + eta_s eps, with
    eta_s = eta sigma_s and beta_s = sigma_s sqrt(1 - eta^2), is affine:
    x_s - alpha_s mu = a_k (x_t - alpha_t mu) + eta_s eps, with
    a_k = (alpha_s alpha_t + beta_s sigma_t) / (alpha_t^2 + sigma_t^2).
    The mean stays at alpha_s mu and the variance obeys
    v_s = a_k^2 v_t + eta_s^2 from v = 1 at t = 1.
    """
    v = 1.0
    for k in range(num_steps, 0, -1):
        t, s = k / num_steps, (k - 1) / num_steps
        alpha_t, sigma_t = 1.0 - t, t
        alpha_s, sigma_s = 1.0 - s, s
        eta_s = eta * sigma_s
        beta_s = sigma_s * math.sqrt(1.0 - eta**2)
        a_k = (alpha_s * alpha_t + beta_s * sigma_t) / (alpha_t**2 + sigma_t**2)
        v = a_k**2 * v + eta_s**2
    return v


@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_a6_unconditional_marginals(eta):
    # The target is the chain's own exact law, N(mu, v_K(eta) I).  The
    # kernel preserves marginals only for exact (x0, x1) pairs; the sampler
    # plugs in the conditional mean, which drops the posterior spread of x0
    # at every step.  At eta > 0 the re-noising eta_s = eta * sigma_s does
    # not shrink with the step size, so that loss never vanishes and the
    # prior is not the chain's limit: v_K(1) = 0.4824 at K = 100 and 0.4936
    # at K = 400.  At eta = 0 the chain does approach the prior
    # (v_K(0) = 0.9746 at K = 100), so that branch is checked against both.
    start = time.perf_counter()
    d, n, num_steps = 4, 4000, 100
    mu = np.array([0.7, -0.3, 1.2, 0.1])
    prior = GaussianMixture([1.0], [mu], [np.ones(d)])
    v_k = _chain_terminal_variance(eta, num_steps)
    # the figures documented in the README and the transition_params docstring
    assert abs(v_k - {0.0: 0.9746, 1.0: 0.4824}[eta]) < 1e-4
    law = GaussianMixture([1.0], [mu], [v_k * np.ones(d)])
    denoiser = GMMDenoiser(prior, LIN)
    term = run_unconditional(
        denoiser, LIN, make_grid(num_steps), eta, np.random.default_rng(13), n,
    )
    mean_tol = 4 * math.sqrt(d / n)
    targets = {"law": law, "prior": prior} if eta == 0.0 else {"law": law}
    errs = {name: moment_diff(term, ref) for name, ref in targets.items()}
    ok = all(m <= mean_tol and c <= 0.15 for m, c in errs.values())
    detail = "; ".join(
        f"vs {name}: mean err {m:.4f} (tol {mean_tol:.4f}), cov err {c:.4f} (tol 0.15)"
        for name, (m, c) in errs.items()
    )
    _report("A6", ok, f"eta={eta}, v_K={v_k:.4f}: {detail}")
    for name, (mean_err, cov_err) in errs.items():
        assert mean_err <= mean_tol, f"{name}: mean err {mean_err:.4f}"
        assert cov_err <= 0.15, f"{name}: cov err {cov_err:.4f}"
    _elapsed_ok("A6", start, 30.0)


def test_a7_mask_lifting():
    start = time.perf_counter()
    rng = np.random.default_rng(14)
    factors = [4, 8, 16, 32]
    leak_violations = 0
    mono_violations = 0
    cases = 0

    def check(mask, fts, r, r_t=0):
        nonlocal leak_violations, mono_violations, cases
        cases += 1
        lifted = lift_mask(mask, fts, r, r_t)
        if leakage_report(mask, lifted).edited_pixels_in_observed_cells != 0:
            leak_violations += 1
        if r > 0 or r_t > 0:
            base = lift_mask(mask, fts, 0, 0)
            grown, plain = lifted.grid == 0, base.grid == 0
            if not np.all(grown[plain]):
                mono_violations += 1

    for _ in range(984):
        f = int(rng.choice(factors))
        h = f * int(rng.integers(1, max(2, 64 // f) + 1))
        w = f * int(rng.integers(1, max(2, 64 // f) + 1))
        density = rng.random()
        grid = (rng.random((h, w)) > density).astype(np.uint8)
        r = int(rng.choice([0, f // 2]))
        check(PixelMask(grid), (1, f, f), r)

    # spatio-temporal cases at the x32 and x8/x3 factor combinations
    for f_t, f, reps in ((8, 32, 8), (3, 8, 8)):
        for _ in range(reps):
            t_dim = f_t * int(rng.integers(1, 3))
            hw = f * int(rng.integers(1, 3))
            grid = (rng.random((t_dim, hw, hw)) > rng.random()).astype(np.uint8)
            check(PixelMask(grid), (f_t, f, f), int(rng.choice([0, f // 2])), r_t=1)

    ok = cases >= 1000 and leak_violations == 0 and mono_violations == 0
    _report("A7", ok, f"{cases} masks: {leak_violations} leakage violations, "
                      f"{mono_violations} monotonicity violations")
    assert cases >= 1000
    assert leak_violations == 0
    assert mono_violations == 0
    _elapsed_ok("A7", start, 20.0)


def test_a8_metric_ground_truth(tmp_path):
    start = time.perf_counter()
    val = cpsnr(np.zeros(6), np.ones(6), MaskOperator(np.ones(6, dtype=int)), 255.0)
    cpsnr_ok = abs(val - 48.1308) <= 1e-3

    rng = np.random.default_rng(15)
    a = rng.standard_normal((64, 3))
    b = rng.standard_normal((48, 3)) + 0.7
    sw2_ok = (
        sliced_w2(a, a, 64, 2) == 0.0
        and sliced_w2(a, a[::-1], 64, 2) == 0.0
        and sliced_w2(a, b, 64, 2) == sliced_w2(b, a, 64, 2)
    )

    cfg_text = """\
prior.component.0.weight = 0.5
prior.component.0.mean   = 2, 2
prior.component.0.cov    = 1, 1
prior.component.1.weight = 0.5
prior.component.1.mean   = -2, -2
prior.component.1.cov    = 1, 1
grid.k     = 15
eta        = 0.8
gamma      = 0.2
n_chains   = 32
seed       = 7
methods    = ding, blended
mask.inline  = 1, 0
xstar.inline = 1.4, -0.2
out_dir    = {out}
"""
    outs = []
    for name in ("run1", "run2"):
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(cfg_text.format(out=tmp_path / name))
        run_experiment(load_config(cfg_path))
        with open(tmp_path / name / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        runtime_col = rows[0].index("runtime_ms")
        for row in rows:
            del row[runtime_col]
        outs.append(rows)
    determinism_ok = outs[0] == outs[1]

    ok = cpsnr_ok and sw2_ok and determinism_ok
    _report("A8", ok, f"cpsnr {val:.4f} dB (48.1308 ± 0.001): {cpsnr_ok}; "
                      f"sw2 identity/symmetry exact: {sw2_ok}; "
                      f"harness determinism modulo runtime: {determinism_ok}")
    assert cpsnr_ok
    assert sw2_ok
    assert determinism_ok
    _elapsed_ok("A8", start, 10.0)
