"""Multiplier solves against closed-form tilts, posterior optimality by a
perturbation oracle, and the error taxonomy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp
from scipy.stats import norm

from igac import models as md
from igac import mre
from igac.errors import BracketingError, DomainError, \
    InfeasibleConstraintError, ParameterError

from conftest import philox


def test_tilted_exponential_beta():
    # e^-x tilted by e^(beta x) has mean 1/(1-beta); mean 2 -> beta = 1/2
    res = mre.solve_multiplier(
        mre.MrEProblem(md.exponential(1.0), ((lambda x: x, 2.0),)),
        tol=1e-13)
    assert res.beta[0] == pytest.approx(0.5, abs=1e-10)
    assert res.achieved[0] == pytest.approx(2.0, abs=1e-12)
    assert res.posterior.mass() == pytest.approx(1.0, abs=1e-8)
    # objective S = ln Z - beta F = ln 2 - 1
    assert res.objective == pytest.approx(np.log(2.0) - 1.0, abs=1e-10)


def test_solve_multiplier_reuses_the_final_dual(monkeypatch):
    """The dual at the returned beta comes from the Newton loop: a solve
    evaluates it no more often than building the workspace and running
    Newton do, and the result holds the same bits as a fresh evaluation."""
    problem = mre.MrEProblem(md.gaussian_diag([0.0], [1.0]),
                             ((lambda x: x, 0.3), (lambda x: x * x, 1.5)))
    calls = []
    dual = mre._Workspace.dual
    monkeypatch.setattr(mre._Workspace, "dual", lambda ws, beta:
                        calls.append(1) or dual(ws, beta))
    ws = mre._Workspace(problem)
    beta, _, _ = mre._solve(ws, 1e-12)
    steps = len(calls)
    calls.clear()
    res = mre.solve_multiplier(problem)
    assert len(calls) == steps
    val, achieved, _ = dual(ws, beta)
    assert np.array_equal(res.beta, beta)
    assert np.array_equal(res.achieved, achieved)
    assert res.log_z == float(val + beta @ ws.targets)


@pytest.mark.parametrize("prior,mean,second", [
    (md.gaussian_diag([0.0], [1.0]), 0.3, 0.4),
    (md.exponential(1.0), 1.0, 1.5),
    (mre.uniform_prior(-1.0, 1.0), 0.3, 0.4),
], ids=["gaussian", "exponential", "uniform"])
def test_solve_evaluates_the_dual_at_zero_once(monkeypatch, prior, mean,
                                               second):
    # Newton starts from the normalization pass, where ln Z(0) = 0
    problem = mre.MrEProblem(prior, ((lambda x: x, mean),
                                     (lambda x: x * x, second)))
    betas = []
    dual = mre._Workspace.dual
    monkeypatch.setattr(mre._Workspace, "dual", lambda ws, beta:
                        betas.append(np.copy(beta)) or dual(ws, beta))
    res = mre.solve_multiplier(problem)
    assert sum(not np.any(beta) for beta in betas) == 1
    assert len(betas) > 1 and np.any(res.beta)


@pytest.mark.parametrize("prior", [
    mre.uniform_prior(-1.0, 1.0),
    mre.update(md.gaussian_diag([0.0], [1.0]), 0.3, 1.2).posterior,
], ids=["uniform", "posterior"])
def test_tabulated_prior_on_its_support_keeps_its_rule(prior):
    # its own nodes, weights and values: the same bits as interpolating it
    # onto a rebuilt composite rule
    cons = ((lambda x: x, 0.1), (lambda x: x * x, 0.5))
    ws = mre._Workspace(mre.MrEProblem(prior, cons))
    regridded = mre._Workspace(mre.MrEProblem(prior.density, cons,
                                              domain=prior.bounds))
    assert ws.x is prior.x and ws.w is prior.w
    for name in ("x", "w", "lnp_old", "lnpw", "f"):
        assert np.array_equal(getattr(ws, name), getattr(regridded, name))


def test_tilted_gaussian_beta():
    # complete the square: N(0,1) e^(beta x) is N(beta, 1); mean 1 -> beta = 1
    res = mre.solve_multiplier(
        mre.MrEProblem(md.gaussian_diag([0.0], [1.0]), ((lambda x: x, 1.0),)),
        tol=1e-13)
    assert res.beta[0] == pytest.approx(1.0, abs=1e-10)
    post = res.posterior
    oracle = np.exp(-(post.x - 1.0) ** 2 / 2) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(post.p - oracle)) < 1e-10


@pytest.mark.parametrize("beta", [-1.5, 0.0, 0.7, 2.0])
def test_domain_conditions_the_prior(beta):
    # N(0,1) conditioned on x > 0 and tilted by e^(beta x) is N(beta, 1)
    # truncated at 0, whose mean is beta + phi(beta) / Phi(beta)
    mean = beta + norm.pdf(beta) / norm.cdf(beta)
    res = mre.solve_multiplier(
        mre.MrEProblem(md.gaussian_diag([0.0], [1.0]), ((lambda x: x, mean),),
                       domain=(0.0, np.inf)), tol=1e-13)
    assert res.beta[0] == pytest.approx(beta, abs=1e-12)
    assert res.posterior.mass() == pytest.approx(1.0, abs=1e-12)


def test_domain_beyond_tabulated_support_raises():
    # a tabulated prior has no mass outside its bounds to condition on
    with pytest.raises(DomainError):
        mre.solve_multiplier(mre.MrEProblem(
            mre.uniform_prior(-1.0, 1.0), ((lambda x: x, 2.5),),
            domain=(0.0, 3.0)))


def test_zero_update_fixed_point():
    res = mre.solve_multiplier(
        mre.MrEProblem(md.exponential(1.3), ((lambda x: x, 1.3),)),
        tol=1e-13)
    assert abs(res.beta[0]) < 1e-12
    assert res.objective == pytest.approx(0.0, abs=1e-12)


def test_two_moment_update_standard_normal():
    res = mre.update(mre.uniform_prior(-20.0, 20.0), 0.0, 1.0)
    x = res.posterior.x
    oracle = np.exp(-x ** 2 / 2) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(res.posterior.p - oracle)) < 1e-6
    assert res.beta[1] == pytest.approx(-0.5, abs=1e-10)


def test_two_moment_update_shifted():
    mu0, s0 = 1.5, 0.7
    res = mre.update(mre.uniform_prior(-20.0, 20.0), mu0, mu0 ** 2 + s0 ** 2)
    m1 = res.posterior.moment(lambda t: t)
    m2 = res.posterior.moment(lambda t: t * t)
    assert m1 == pytest.approx(mu0, abs=1e-6)
    assert np.sqrt(m2 - m1 ** 2) == pytest.approx(s0, abs=1e-6)


def test_degenerate_variance_rejected():
    with pytest.raises(InfeasibleConstraintError):
        mre.update(mre.uniform_prior(-20.0, 20.0), 1.0, 1.0)


@pytest.mark.parametrize("mean,second", [(1.0, 3.0), (2.0, 10.0)])
def test_half_line_variance_above_squared_mean_is_infeasible(mean, second):
    # on [0, inf) a tilt e^((b1 - 1) x + b2 x^2) of the Exp(1) prior is
    # normalizable only for b2 <= 0, where it is log-concave, and a
    # log-concave density on the half line has variance <= mean^2; a larger
    # variance has no maximum-entropy solution
    assert second - mean ** 2 > mean ** 2
    with pytest.raises(InfeasibleConstraintError):
        mre.update(md.exponential(1.0), mean, second)


def test_divergent_tilt_rejected():
    # a linear tilt of the exponential tail diverges once beta reaches 1
    with pytest.raises(InfeasibleConstraintError):
        mre.solve_multiplier(
            mre.MrEProblem(md.exponential(1.0), ((lambda x: x, 60.0),)))


def test_bracketing_error_for_unreachable_target():
    # E[tanh] is confined to (-1, 1); the residual never changes sign
    with pytest.raises(BracketingError):
        mre.solve_multiplier(
            mre.MrEProblem(md.gaussian_diag([0.0], [1.0]),
                           ((np.tanh, 2.0),)))


# (mean, second moment) inside the moment cone of each prior
IN_CONE = [("gaussian", 2.0, 4.5), ("gaussian", 2.0, 6.0),
           ("gaussian", 2.0, 7.9), ("gaussian", 3.0, 17.0),
           ("gaussian", 0.3, 2.0), ("gaussian", 1.0, 3.0),
           ("exponential", 0.5, 0.4), ("exponential", 2.0, 6.0),
           ("exponential", 2.0, 7.9), ("exponential", 3.0, 17.0),
           ("exponential", 1.0, 1.5)]
# Gaussian targets whose posterior N(m, v) fits inside the +-13 box
UNTRUNCATED = {(2.0, 4.5), (2.0, 6.0), (0.3, 2.0), (1.0, 3.0)}


def _prior(family):
    if family == "gaussian":
        return md.gaussian_diag([0.0], [1.0])
    if family == "exponential":
        return md.exponential(1.0)
    return mre.uniform_prior(-1.0, 1.0)


@pytest.mark.parametrize("family,mean,second", IN_CONE)
def test_in_cone_two_moment_targets_converge(family, mean, second):
    res = mre.update(_prior(family), mean, second)
    assert np.max(np.abs(res.achieved - [mean, second])) < 1e-10
    if family == "gaussian" and (mean, second) in UNTRUNCATED:
        # N(0,1) e^(b1 x + b2 x^2) = N(m, v): b1 = m/v, b2 = 1/2 - 1/(2v)
        var = second - mean ** 2
        assert res.beta == pytest.approx(
            [mean / var, 0.5 - 0.5 / var], abs=1e-9)


def _cone_target(family, u, v):
    """(mean, second moment) from u, v in [0, 1], inside the moment cone."""
    if family == "gaussian":
        mean, var = -3.0 + 6.0 * u, 0.05 + 7.95 * v
    elif family == "exponential":      # var < mean^2 on the half line
        mean = 0.2 + 3.8 * u
        var = (0.05 + 0.9 * v) * mean ** 2
    else:                              # Bhatia-Davis on (-1, 1)
        mean = -0.9 + 1.8 * u
        var = (0.05 + 0.9 * v) * (1.0 - mean * mean)
    return mean, var + mean * mean


unit = st.floats(0.0, 1.0)


@settings(max_examples=60)
@given(st.sampled_from(["gaussian", "exponential", "uniform"]), unit, unit)
def test_moment_cone_interior_converges(family, u, v):
    mean, second = _cone_target(family, u, v)
    res = mre.update(_prior(family), mean, second)
    assert np.max(np.abs(res.achieved - [mean, second])) < 1e-10


@settings(max_examples=30)
@given(st.sampled_from(["exponential", "uniform"]), unit, unit)
def test_moment_cone_exterior_raises(family, u, v):
    if family == "exponential":
        # var > mean^2 has no maximum-entropy solution on the half line
        mean = 0.2 + 3.8 * u
        with pytest.raises(InfeasibleConstraintError):
            mre.update(_prior(family), mean, (2.05 + 3.0 * v) * mean ** 2)
    else:
        # E x^2 < 1 on (-1, 1): a second moment of 1 or more is unreachable
        with pytest.raises(BracketingError):
            mre.update(_prior(family), -0.9 + 1.8 * u, 1.0 + v)


# features that vary wherever a tilt puts the mass: one that is constant
# there (tanh beyond x = 19) has a covariance of pure rounding
FEATURES = (lambda x: x, lambda x: x * x, np.sin)


@settings(max_examples=60)
@given(st.sampled_from(["gaussian", "exponential", "uniform"]),
       st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
def test_dual_kernel_matches_weighted_statistics(family, beta):
    beta = np.array(beta)
    fns = FEATURES[:beta.size]
    ws = mre._Workspace(mre.MrEProblem(_prior(family),
                                       tuple((fn, 0.5) for fn in fns)))
    val, mean, cov = ws.dual(beta)
    # the same tilt on the (n, k) features, by numpy's weighted statistics
    feats = np.column_stack([fn(ws.x) for fn in fns])
    lnq = ws.lnp_old + feats @ beta
    weights = ws.w * np.exp(lnq - np.max(lnq))
    ref_mean = np.average(feats, axis=0, weights=weights)
    ref_cov = np.atleast_2d(np.cov(feats, rowvar=False, aweights=weights,
                                   bias=True))
    # relative to the scale each entry's rounding carries
    scale = np.average(np.abs(feats), axis=0, weights=weights)
    assert np.all(np.abs(mean - ref_mean) <= 1e-12 * scale)
    sd = np.sqrt(np.diag(ref_cov))
    assert np.all(np.abs(cov - ref_cov) <= 1e-12 * np.outer(sd, sd))
    ref_val = logsumexp(lnq, b=ws.w) - beta @ ws.targets
    assert val == pytest.approx(ref_val, rel=1e-12, abs=1e-12)


def test_jointly_infeasible_targets_raise():
    # each target lies inside its own reachable range, but Jensen gives
    # E x^2 >= (E|x|)^2 = 0.81 > 0.5: the dual is unbounded below
    problem = mre.MrEProblem(mre.uniform_prior(-1.0, 1.0),
                             ((np.abs, 0.9), (lambda x: x * x, 0.5)))
    with pytest.raises(InfeasibleConstraintError):
        mre.solve_multiplier(problem)


def test_one_prior_in_three_kinds_gives_one_beta():
    """N(0, 1) on (-5, 5) as a StatModel, as a callable density and as a
    TabulatedDensity on the working rule: one support record reads each,
    and the multipliers agree."""
    cons = ((lambda x: x, 0.3), (lambda x: x * x, 1.2))
    x, w = mre._composite_grid(-5.0, 5.0)
    priors = [(md.gaussian_diag([0.0], [1.0]), (-5.0, 5.0)),
              (norm.pdf, (-5.0, 5.0)),
              (mre.TabulatedDensity(x, w, norm.pdf(x), bounds=(-5.0, 5.0)),
               None)]
    betas = [mre.solve_multiplier(mre.MrEProblem(prior, cons, domain)).beta
             for prior, domain in priors]
    for beta in betas[1:]:
        assert beta == pytest.approx(betas[0], abs=1e-12)


def test_relative_entropy_values():
    p = md.gaussian_diag([1.0], [1.0])
    q = md.gaussian_diag([0.0], [1.0])
    assert mre.relative_entropy(p, p) == pytest.approx(0.0, abs=1e-12)
    assert mre.relative_entropy(p, q) == pytest.approx(-0.5, abs=1e-10)
    assert mre.relative_entropy(q, p) == pytest.approx(-0.5, abs=1e-10)


def test_relative_entropy_support_violation():
    wide = mre.uniform_prior(-2.0, 2.0)
    narrow = mre.uniform_prior(-1.0, 1.0)
    with pytest.raises(DomainError):
        mre.relative_entropy(wide, narrow, domain=(-2.0, 2.0))


def _constrained_perturbation(post, fvals, rng, eps=0.05):
    """A density satisfying the same constraints exactly, built by a random
    bounded perturbation of the posterior projected back onto the constraint
    manifold (constraints are linear in the density)."""
    x, w, p = post.x, post.w, post.p
    h = np.sin(rng.uniform(0.5, 3.0) * x + rng.uniform(0, 2 * np.pi))
    basis = np.column_stack([np.ones_like(x)] + [f for f in fvals.T])
    # solve for coefficients that cancel the normalization/moment shifts
    shift = basis.T @ (w * p * h)
    gram = basis.T @ ((w * p)[:, None] * basis)
    coef = np.linalg.solve(gram, shift)
    h_proj = h - basis @ coef
    q = p * (1.0 + eps * h_proj / max(1.0, np.max(np.abs(h_proj))))
    assert np.all(q >= 0)
    return q


def test_posterior_optimality_under_perturbations():
    problem = mre.MrEProblem(md.exponential(1.0), ((lambda x: x, 2.0),))
    res = mre.solve_multiplier(problem, tol=1e-13)
    post = res.posterior
    x, w = post.x, post.w
    lnp_old = np.log(np.maximum(np.exp(-x), 1e-300))
    fvals = x[:, None]
    rng = philox(99)
    wins = 0
    for _ in range(20):
        q = _constrained_perturbation(post, fvals, rng)
        # constraints hold for the perturbed density
        assert w @ q == pytest.approx(1.0, abs=1e-10)
        assert w @ (q * x) == pytest.approx(2.0, abs=1e-9)
        support = q > 0
        s_q = -float(w[support] @ (q[support]
                                   * (np.log(q[support])
                                      - lnp_old[support])))
        if s_q <= res.objective + 1e-9:
            wins += 1
    assert wins == 20


def test_idempotent_update():
    res = mre.solve_multiplier(
        mre.MrEProblem(md.exponential(1.0), ((lambda x: x, 2.0),)),
        tol=1e-13)
    again = mre.solve_multiplier(
        mre.MrEProblem(res.posterior, ((lambda x: x, 2.0),)), tol=1e-13)
    assert abs(again.beta[0]) < 1e-10


def test_multi_constraint_newton_matches_scalar_chain():
    # mean and second moment of a Gaussian prior: posterior N(1, 1/3)
    prior = md.gaussian_diag([0.0], [1.0])
    res = mre.update(prior, 1.0, 1.0 + 1.0 / 3.0)
    m1 = res.posterior.moment(lambda t: t)
    m2 = res.posterior.moment(lambda t: t * t)
    assert m1 == pytest.approx(1.0, abs=1e-10)
    assert m2 == pytest.approx(4.0 / 3.0, abs=1e-10)
    # N(0,1) e^{b1 x + b2 x^2} = N(b1/(1-2 b2), 1/(1-2 b2))
    b1, b2 = res.beta
    assert 1.0 / (1.0 - 2.0 * b2) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert b1 / (1.0 - 2.0 * b2) == pytest.approx(1.0, abs=1e-9)


def test_constraint_function_names():
    x = np.array([1.0, -2.0])
    assert mre.constraint_function("identity")(x) == pytest.approx(x)
    assert mre.constraint_function("square")(x) == pytest.approx(x ** 2)
    assert mre.constraint_function("abs")(x) == pytest.approx(np.abs(x))
    poly = mre.constraint_function("poly", [1.0, 0.0, 2.0])
    assert poly(x) == pytest.approx(1.0 + 2.0 * x ** 2)
    with pytest.raises(ValueError):
        mre.constraint_function("cube")
    with pytest.raises(ValueError):
        mre.constraint_function("poly")


@pytest.mark.parametrize("name,coefficients,field", [
    ("cube", None, "f"), (["identity"], None, "f"),
    ("poly", 3, "coefficients"), ("poly", [], "coefficients"),
    ("poly", [1.0, "a"], "coefficients"), ("poly", [True], "coefficients"),
])
def test_constraint_function_failure_names_its_argument(name, coefficients,
                                                        field):
    with pytest.raises(ParameterError) as err:
        mre.constraint_function(name, coefficients)
    assert [f for f, _ in err.value.failures] == [field]


@pytest.mark.parametrize("lo,hi", [(1, -1), (1.0, 1.0)])
def test_uniform_prior_needs_lo_below_hi(lo, hi):
    with pytest.raises(ParameterError) as err:
        mre.uniform_prior(lo, hi)
    assert err.value.failures == [("hi", f"must exceed lo = {lo}, got {hi}")]


@pytest.mark.parametrize("domain", [(1.0, 0.0), (0.0, 0.0), (0.0,),
                                    (0.0, "a"), (False, 1.0)])
def test_problem_domain_is_two_numbers_in_order(domain):
    with pytest.raises(ParameterError) as err:
        mre.MrEProblem(md.gaussian_diag([0.0], [1.0]), ((lambda x: x, 0.1),),
                       domain=domain)
    assert [f for f, _ in err.value.failures] == ["domain"]
    # either end may be infinite
    mre.MrEProblem(md.gaussian_diag([0.0], [1.0]), ((lambda x: x, 0.1),),
                   domain=(-np.inf, np.inf))


@pytest.mark.parametrize("tol", [0.0, -1e-12, True, "1e-12"])
def test_solve_tolerance_must_be_positive(tol):
    # a zero tolerance is a bad argument, not an infeasible constraint
    problem = mre.MrEProblem(md.gaussian_diag([0.0], [1.0]),
                             ((lambda x: x, 0.3), (lambda x: x ** 2, 1.2)))
    with pytest.raises(ParameterError) as err:
        mre.solve_multiplier(problem, tol=tol)
    assert [f for f, _ in err.value.failures] == ["tol"]


def test_problem_validation():
    with pytest.raises(ValueError):
        mre.MrEProblem(md.exponential(1.0), ((lambda x: x, np.inf),))
    # un-normalized prior on the working domain
    bad = mre.TabulatedDensity(np.linspace(0, 1, 128),
                               np.full(128, 1.0 / 128), np.full(128, 2.0))
    with pytest.raises(ValueError):
        mre.solve_multiplier(mre.MrEProblem(bad, ((lambda x: x, 0.5),)))
