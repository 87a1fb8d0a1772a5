"""Shared fixtures: the hypothesis profile, counter-based RNG streams,
finite-difference, einsum, per-coordinate flow and per-point quadrature
oracles, the carrier start of a geodesic path, a metric's copy without its
closed-form flow, the nfev log of the dynamics solves and the metric
strategy over every in-package family."""

import copy
import functools

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from igac import dynamics as dyn
from igac import geometry as geo
from igac import models as md
from igac.errors import ChartBoundaryError, QuadratureAccuracyError
from igac.scenarios import iho_metric


# property tests replay the same examples on every run and store nothing;
# each test sets only its own max_examples
settings.register_profile("igac", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("igac")


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def fd_score(model, x, step=1e-5):
    """Independent oracle for the score: central differences of log_density
    over theta with one Richardson level."""
    x = np.asarray(x, float)
    theta = np.asarray(model.theta, float)
    out = np.empty(model.param_dim)
    for a in range(model.param_dim):
        h = step * max(1.0, abs(theta[a]))

        def val(t, a=a):
            th = np.array(theta)
            th[a] += t
            return md.log_density(md.with_theta(model, th), x)

        d1 = (val(h) - val(-h)) / (2 * h)
        d2 = (val(h / 2) - val(-h / 2)) / h
        out[a] = (4 * d2 - d1) / 3
    return out


def gamma_derivative_fd(metric, theta):
    """Independent oracle for the connection derivative: dG[c, a, b, d] =
    d_c Gamma^a_bd by central differences of the Christoffel symbols with one
    Richardson level, step 1e-4 * max(1, |theta_c|) (proportional to
    theta_c on spread coordinates)."""
    theta = np.asarray(theta, float)
    n = metric.dim
    out = np.empty((n, n, n, n))
    for c in range(n):
        h = 1e-4 * (abs(theta[c]) if c in metric.scale_coords
                    else max(1.0, abs(theta[c])))

        def shifted(t, c=c):
            th = np.array(theta)
            th[c] += t
            return metric.connection(th)

        d1 = (shifted(h) - shifted(-h)) / (2 * h)
        d2 = (shifted(h / 2) - shifted(-h / 2)) / h
        out[c] = (4 * d2 - d1) / 3
    return out


def connection_einsum(metric, theta):
    """Reference (Gamma, dGamma) written index by index with einsum, the
    form the package used before its kernels became matrix products:
    Gamma^a_bc = (1/2) g^ad T_dbc and
    d_e Gamma^a_bc = (1/2) g^ad d_e T_dbc - g^ap d_e g_pq Gamma^q_bc."""
    g, dg, d2g = metric.jet(np.asarray(theta, float), order=2)
    ginv = np.linalg.inv(g)
    # term[b, d, c] = d_b g_dc + d_c g_db - d_d g_bc
    term = dg + np.transpose(dg, (2, 1, 0)) - np.transpose(dg, (1, 0, 2))
    gam = 0.5 * np.einsum("ad,bdc->abc", ginv, term)
    # d2t[e, b, d, c] = d_e (d_b g_dc + d_c g_db - d_d g_bc)
    d2t = d2g + np.transpose(d2g, (0, 3, 2, 1)) \
        - np.transpose(d2g, (0, 2, 1, 3))
    dgam = 0.5 * np.einsum("ad,ebdc->eabc", ginv, d2t) \
        - np.einsum("eaq,qbc->eabc", ginv @ dg, gam)
    return gam, dgam


def flow_per_coordinate(metric, th0, v0, tau):
    """Reference closed-form flow of an inverse-square metric, in the form
    the package used before it evaluated the flow once per block: every
    coordinate carries its block's start values, rates and spreads.  The
    block constants come from the metric at unit spreads, which is C."""
    dim = metric.dim
    c_full = metric.eval(np.ones(dim))
    owner = np.empty(dim, dtype=int)
    e_full, root = np.zeros(dim), np.zeros((dim, dim))
    for idx in map(list, metric.blocks):
        owner[idx] = idx[-1]
        c, mean = c_full[np.ix_(idx, idx)], idx[:-1]
        if mean:
            e = np.linalg.solve(c[:-1, :-1], c[:-1, -1])
            e_full[mean] = e
            root[np.ix_(mean, mean)] = np.linalg.cholesky(
                c[:-1, :-1] / (c[-1, -1] - c[:-1, -1] @ e))
    same_block = (owner[:, None] == owner[None, :]).astype(float)
    is_spread = owner == np.arange(dim)
    th0, v0 = np.asarray(th0) * 1.0, np.asarray(v0) * 1.0

    s0 = th0[..., owner]
    y_dot = v0 + e_full * v0[..., owner]
    x_dot = y_dot @ root
    u = v0[..., owner] / s0
    w2 = (x_dot * x_dot) @ same_block / (s0 * s0)
    a = np.sqrt(w2 + u * u)

    def states(tau):
        q, dq, f = md._half_space_flow(u, w2, a, tau)
        s = s0[..., None, :] / q
        s_dot = -s * dq / q
        y_dot0 = y_dot[..., None, :]
        mean = th0[..., None, :] + y_dot0 * f \
            + e_full * (s0[..., None, :] - s)
        mean_dot = y_dot0 / (q * q) - e_full * s_dot
        return (np.where(is_spread, s, mean),
                np.where(is_spread, s_dot, mean_dot))

    tau = np.asarray(tau, float)
    tau_exit = md._floor_exit(s0.real / md._CHART_FLOOR, u.real, w2.real,
                              a.real, tau)
    if tau_exit is not None:
        theta, theta_dot = states(np.array([tau_exit]))
        raise ChartBoundaryError(
            f"geodesic reached the chart floor at tau = {tau_exit}",
            last_state=(tau_exit, theta[..., 0, :], theta_dot[..., 0, :]))
    return states(tau)


def shooting_jacobian_fd(metric, theta0, v0, tau, tol=1e-13, step=1e-3):
    """Independent oracle for the shooting Jacobian d theta(tau) / d v0:
    central differences of geodesic endpoints with one Richardson level,
    step ``step`` * max(1, |v0_i|)."""
    theta0 = np.asarray(theta0, float)
    v0 = np.asarray(v0, float)
    n = v0.size
    out = np.empty((n, n))
    for i in range(n):
        h = step * max(1.0, abs(v0[i]))

        def endpoint(t, i=i):
            v = np.array(v0)
            v[i] += t
            return dyn.integrate_geodesic(metric, theta0, v, tau, tol=tol,
                                          n_out=2).theta[-1]

        d1 = (endpoint(h) - endpoint(-h)) / (2 * h)
        d2 = (endpoint(h / 2) - endpoint(-h / 2)) / h
        out[:, i] = (4 * d2 - d1) / 3
    return out


def fisher_quadrature_at(model, theta, nodes=64, rel_tol=1e-9,
                         max_nodes=4096):
    """Reference Fisher metric at theta by per-point quadrature: each
    factor's natural rule placed in x at theta itself (x = loc + s t), where
    ``md.score`` of the whole model is integrated, the other micro axes held
    at 1.0 inside their supports; the node count doubles until the entrywise
    relative change falls below ``rel_tol``."""
    m = md.with_theta(model, theta)
    g = np.zeros((m.param_dim, m.param_dim))
    for f in m.factors:
        idx = list(f.theta_at)
        loc = m.theta[idx[:-1]] if len(idx) > 1 else 0.0
        s = m.theta[idx[-1]]

        def block(n):
            t, w = f.family.rule(n)
            x = np.ones((w.size, m.micro_dim))
            x[:, list(f.micro_at)] = loc + s * t
            sc = md.score(m, x)[:, idx]
            return np.einsum("m,ma,mb->ab", w, sc, sc)

        n = nodes
        cur = block(n)
        while True:
            if 2 * n > max_nodes:
                raise QuadratureAccuracyError("node cap reached",
                                              estimate=cur)
            nxt = block(2 * n)
            if np.max(np.abs(nxt - cur)) <= \
                    rel_tol * max(np.max(np.abs(nxt)), 1e-300):
                break
            cur, n = nxt, 2 * n
        g[np.ix_(idx, idx)] = nxt
    return g


def ode_flow(metric):
    """A copy of ``metric`` without its closed-form flow, so that the flows
    of ``igac.dynamics`` integrate its geodesic equation by DOP853.  Its
    factors are the copies of the metric's factors, kept apart from the
    metric's own."""
    plain = copy.copy(metric)
    plain._flow_fn = None
    plain._factors = {c: build and functools.cache(lambda c=c: ode_flow(
        metric.block_metric(c))) for c, build in metric._factors.items()}
    return plain


def carrier(path):
    """(theta0, v0, tau_grid) of a geodesic path, the carrier arguments of
    ``integrate_jacobi``."""
    theta0, v0 = path.state(path.tau_grid[0])
    return theta0, v0, path.tau_grid


def random_model(rng, family: str):
    """A random in-chart model of the requested family."""
    if family == "gaussian_diag":
        l = int(rng.integers(1, 4))
        return md.gaussian_diag(rng.normal(size=l),
                                rng.uniform(0.4, 2.5, size=l))
    if family == "exponential":
        return md.exponential(rng.uniform(0.3, 3.0))
    if family == "wigner_dyson":
        return md.wigner_dyson(rng.uniform(0.3, 3.0))
    if family == "gaussian_bivariate_corr":
        return md.gaussian_bivariate_corr(rng.normal(), rng.normal(),
                                          rng.uniform(0.4, 2.0),
                                          r=rng.uniform(-0.8, 0.8))
    if family == "product":
        return md.product(md.exponential(rng.uniform(0.5, 2.0)),
                          md.gaussian_diag([rng.normal()],
                                           [rng.uniform(0.5, 1.5)]))
    raise ValueError(family)


def random_micro_point(rng, model):
    x = np.empty(model.micro_dim)
    for i, (lo, _hi) in enumerate(model.micro_bounds()):
        x[i] = rng.uniform(0.05, 3.0) if lo == 0.0 else rng.normal()
    return x


FAMILIES = ("gaussian_diag", "exponential", "wigner_dyson",
            "gaussian_bivariate_corr", "product")


@pytest.fixture
def rng():
    return philox(20240817)


@pytest.fixture
def nfev(monkeypatch):
    """The nfev of every ``solve_ivp`` call made by ``igac.dynamics``, in
    call order, while the test runs."""
    counts = []
    solve_ivp = dyn.solve_ivp

    def counting(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        counts.append(sol.nfev)
        return sol

    monkeypatch.setattr(dyn, "solve_ivp", counting)
    return counts


means = st.floats(-3.0, 3.0)
# spreads log-uniform down to 1e-3
spreads = st.floats(-3.0, np.log10(5.0)).map(lambda e: 10.0 ** e)
corr = st.floats(-0.95, 0.95, exclude_min=True, exclude_max=True)
macro_corr = st.floats(0.0, 0.95, exclude_max=True)
# chart rescalings log-uniform in [0.1, 10]
scales = st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e)


@st.composite
def factor(draw, spread=spreads):
    """(model factor, in-chart point of its coordinates)."""
    kind = draw(st.sampled_from(["gaussian_diag", "exponential",
                                 "wigner_dyson", "gaussian_bivariate_corr"]))
    if kind == "gaussian_diag":
        l = draw(st.integers(1, 3))
        point = [x for _ in range(l) for x in (draw(means), draw(spread))]
        return md.gaussian_diag([0.0] * l, [1.0] * l), point
    if kind == "exponential":
        return md.exponential(1.0), [draw(spread)]
    if kind == "wigner_dyson":
        return md.wigner_dyson(1.0), [draw(spread)]
    return (md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=draw(corr)),
            [draw(means), draw(means), draw(spread)])


@st.composite
def base_metric(draw, spread=spreads):
    """(metric, in-chart point) of every closed-form family or of a
    quadrature metric."""
    family = draw(st.sampled_from(["fisher", "product", "macro", "iho",
                                   "flat", "quadrature"]))
    if family in ("fisher", "product", "quadrature"):
        parts = draw(st.lists(factor(spread), min_size=1,
                              max_size=1 if family == "fisher" else 3))
        model = md.product(*[m for m, _ in parts])
        point = [x for _, p in parts for x in p]
        build = md.fisher_quadrature if family == "quadrature" \
            else md.analytic_fisher
        return build(model), np.array(point)
    if family == "macro":
        rs = draw(st.lists(macro_corr, min_size=1, max_size=3))
        point = [x for _ in rs for x in (draw(means), draw(spread))]
        return md.macro_correlated_metric(rs), np.array(point)
    dim = draw(st.integers(1, 4))
    point = np.array([draw(means) for _ in range(dim)])
    if family == "iho":
        omegas = [draw(st.floats(0.3, 2.0)) for _ in range(dim)]
        return iho_metric(omegas), point
    return md.flat_metric(dim), point


@st.composite
def jet_metric(draw, spread=spreads):
    """(metric, in-chart point): a base metric or its chart rescaling."""
    metric, point = draw(base_metric(spread))
    if draw(st.booleans()):
        scale = np.array([draw(scales) for _ in range(metric.dim)])
        return geo.rescaled_chart(metric, scale), scale * point
    return metric, point
