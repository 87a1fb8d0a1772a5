"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time

import numpy as np
import pytest

from igac import complexity as cx
from igac import dynamics as dyn
from igac import geometry as geo
from igac import models as md
from igac import mre
from igac import scenarios as sc
from igac.errors import RegimeError

from conftest import carrier, fd_score, philox

# wave-packet parameters used throughout; sigma_peak = 3 keeps the spread
# coordinate above the chart floor out to tau = 20 / a0, and k0 L = 0.2
# stays in the low-energy range
WP = sc.ScatterConfig(4.0, 1.0, 1.0, potential_range=0.05)


def _line(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail
                                                    else ""))
    assert ok, f"{name}: {detail}"


def _wp_setup(r, tau_over_a0, tol=1e-10, n_out=257):
    p = WP
    metric = md.analytic_fisher(
        md.gaussian_bivariate_corr(0.0, 0.0, p.sigma_peak, r=r))
    amp = p.mean_amplitude * np.sqrt(1 - r)
    th0 = np.array([0.0, 0.0, p.sigma_peak])
    v0 = np.array([-amp * p.a0, amp * p.a0, 0.0])
    path = dyn.integrate_geodesic(metric, th0, v0, tau_over_a0 / p.a0,
                                  tol=tol, n_out=n_out)
    return p, metric, th0, v0, path


def _normal_vector(metric, th0, v0):
    g = metric.eval(th0)
    w = np.zeros(len(th0))
    w[-1] = 1.0
    w -= (v0 @ g @ w) / (v0 @ g @ v0) * v0
    return w / np.sqrt(w @ g @ w)


def test_criterion_1_gaussian_ricci_scalar():
    """R = -l for l in {1, 2, 3}: 1e-6 analytic jets, 1e-4 quadrature
    metric, under 5 s total."""
    start = time.time()
    worst_a = worst_q = 0.0
    for l in (1, 2, 3):
        th = np.tile([0.3, 1.2], l)
        model = md.gaussian_diag(th[0::2], th[1::2])
        worst_a = max(worst_a,
                      abs(geo.ricci_scalar(md.analytic_fisher(model), th)
                          + l))
        worst_q = max(worst_q,
                      abs(geo.ricci_scalar(md.fisher_quadrature(model), th)
                          + l))
    elapsed = time.time() - start
    _line("criterion 1: gaussian scalar curvature -l",
          worst_a < 1e-6 and worst_q < 1e-4 and elapsed < 5.0,
          f"analytic {worst_a:.2e}, quadrature {worst_q:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_2_wavepacket_curvatures():
    """Sectional -1/4, scalar -3/2, |W| < 1e-8 at r in {0.1, 0.5, 0.9}."""
    worst_k = worst_r = worst_w = 0.0
    for r in (0.1, 0.5, 0.9):
        metric = md.analytic_fisher(
            md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=r))
        th = np.array([0.2, -0.3, 1.1])
        for i, j in ((0, 1), (0, 2), (1, 2)):
            u, v = np.zeros(3), np.zeros(3)
            u[i], v[j] = 1.0, 1.0
            worst_k = max(worst_k,
                          abs(geo.sectional(metric, th, u, v) + 0.25))
        worst_r = max(worst_r, abs(geo.ricci_scalar(metric, th) + 1.5))
        worst_w = max(worst_w,
                      geo.curvature_report(metric, th).weyl_max_abs)
    _line("criterion 2: wavepacket sectional/scalar/anisotropy",
          worst_k < 1e-6 and worst_r < 1e-6 and worst_w < 1e-8,
          f"K {worst_k:.2e}, R {worst_r:.2e}, W {worst_w:.2e}")


def test_criterion_3_geodesic_closed_forms():
    """tanh/cosh forms matched below 1e-6 over [0, 5/a0] at tol 1e-10;
    speed drift below 1e-8."""
    worst = drift = 0.0
    # the r = 0 "after" case traces the pre-collision equations on [0, 5/a0]
    for branch, r in (("before", 0.0), ("after", 0.0), ("after", 0.5)):
        p = WP
        metric = md.analytic_fisher(
            md.gaussian_bivariate_corr(0.0, 0.0, p.sigma_peak, r=r))
        amp = p.mean_amplitude * (np.sqrt(1 - r) if branch == "after"
                                  else 1.0)
        th0 = np.array([0.0, 0.0, p.sigma_peak])
        v0 = np.array([-amp * p.a0, amp * p.a0, 0.0])
        sign = -1.0 if branch == "before" else 1.0
        path = dyn.integrate_geodesic(metric, th0, v0, sign * 5.0 / p.a0,
                                      tol=1e-10)
        mu1, mu2, sig = sc.wavepacket_geodesics(p, r, path.tau_grid, branch)
        worst = max(worst, float(np.max(np.abs(
            path.theta - np.column_stack([mu1, mu2, sig])))))
        drift = max(drift, float(np.max(np.abs(path.speed / path.speed[0]
                                               - 1.0))))
    _line("criterion 3: geodesics vs closed forms",
          worst < 1e-6 and drift < 1e-8,
          f"max err {worst:.2e}, drift {drift:.2e}")


def test_criterion_4_jacobi_and_lyapunov():
    """Intensity sinh to 1e-4 relative up to 10/a0; growth-rate estimate
    within 5% of 2 a0 at 20/a0, invariant over r in {0, 0.2, 0.5}."""
    p, metric, th0, v0, path = _wp_setup(0.5, 10.0, tol=1e-11)
    w = _normal_vector(metric, th0, v0)
    jac = dyn.integrate_jacobi(metric, *carrier(path), np.zeros(3), w,
                               rtol=1e-10)
    oracle = np.sinh(p.a0 * jac.path.tau_grid) / p.a0
    late = jac.path.tau_grid >= 0.1 / p.a0
    rel = float(np.max(np.abs(jac.intensity[late] - oracle[late])
                       / oracle[late]))
    lam_errs = []
    for r in (0.0, 0.2, 0.5):
        pr, metric_r, th0r, v0r, path20 = _wp_setup(r, 20.0, tol=1e-11)
        wr = _normal_vector(metric_r, th0r, v0r)
        jr = dyn.integrate_jacobi(metric_r, *carrier(path20), np.zeros(3), wr,
                                  rtol=1e-10)
        est = dyn.lyapunov_estimate(jr)
        lam_errs.append(abs(est - 2 * pr.a0) / (2 * pr.a0))
    _line("criterion 4: deviation intensity and growth rate",
          rel < 1e-4 and max(lam_errs) < 0.05,
          f"intensity {rel:.2e}, rate errs {[f'{e:.3f}' for e in lam_errs]}")


def test_criterion_5_complexity_compression():
    """C ratio within 2% of sqrt((1-r)/(1+r)), entropy gap within 0.02,
    r recovered within 2% (numeric) and 1e-6 (closed form)."""
    lam = 2 * WP.a0
    _, metric_u, _, _, path_u = _wp_setup(0.0, 5.0, n_out=129)
    trace_u = cx.complexity_trace(metric_u, path_u)
    k = int(np.argmin(np.abs(trace_u.tau_grid - 5.0 / lam)))
    tau_probe = float(trace_u.tau_grid[k])
    c_u = float(trace_u.igc[k])
    worst_ratio = worst_gap = worst_rn = worst_rc = 0.0
    for r in (0.1, 0.3, 0.5):
        _, metric_c, _, _, path_c = _wp_setup(r, 5.0, n_out=129)
        c_c = float(cx.complexity_trace(metric_c, path_c).igc[k])
        target = np.sqrt((1 - r) / (1 + r))
        worst_ratio = max(worst_ratio, abs(c_c / c_u - target) / target)
        worst_gap = max(worst_gap, abs(np.log(c_c / c_u)
                                       - 0.5 * np.log((1 - r) / (1 + r))))
        worst_rn = max(worst_rn, abs(sc.r_from_igc(c_u, c_c) - r) / r)
        cu_cf = float(sc.igc_closed_form(WP, 0.0, tau_probe))
        cc_cf = float(sc.igc_closed_form(WP, r, tau_probe))
        worst_rc = max(worst_rc, abs(sc.r_from_igc(cu_cf, cc_cf) - r) / r)
    _line("criterion 5: complexity compression and inversion",
          worst_ratio < 0.02 and worst_gap < 0.02 and worst_rn < 0.02
          and worst_rc < 1e-6,
          f"ratio {worst_ratio:.2e}, gap {worst_gap:.2e}, "
          f"r num {worst_rn:.2e}, r closed {worst_rc:.2e}")


def test_criterion_6_mre_solver():
    """beta to 1e-10 on both tilts, two-moment normal to 1e-6 sup norm,
    optimality 20/20."""
    res_e = mre.solve_multiplier(
        mre.MrEProblem(md.exponential(1.0), ((lambda x: x, 2.0),)),
        tol=1e-13)
    err_e = abs(res_e.beta[0] - 0.5)
    res_g = mre.solve_multiplier(
        mre.MrEProblem(md.gaussian_diag([0.0], [1.0]), ((lambda x: x, 1.0),)),
        tol=1e-13)
    err_g = abs(res_g.beta[0] - 1.0)
    res_n = mre.update(mre.uniform_prior(-20.0, 20.0), 0.0, 1.0)
    x = res_n.posterior.x
    sup = float(np.max(np.abs(res_n.posterior.p
                              - np.exp(-x ** 2 / 2) / np.sqrt(2 * np.pi))))

    post = res_e.posterior
    lnp_old = -post.x
    rng = philox(99)
    wins = 0
    for _ in range(20):
        h = np.sin(rng.uniform(0.5, 3.0) * post.x
                   + rng.uniform(0, 2 * np.pi))
        basis = np.column_stack([np.ones_like(post.x), post.x])
        gram = basis.T @ ((post.w * post.p)[:, None] * basis)
        coef = np.linalg.solve(gram, basis.T @ (post.w * post.p * h))
        h_proj = h - basis @ coef
        q = post.p * (1.0 + 0.05 * h_proj / max(1.0,
                                                np.max(np.abs(h_proj))))
        support = q > 0
        s_q = -float(post.w[support] @ (q[support] * (np.log(q[support])
                                                      - lnp_old[support])))
        wins += int(s_q <= res_e.objective + 1e-9)
    _line("criterion 6: maximum relative entropy solver",
          err_e < 1e-10 and err_g < 1e-10 and sup < 1e-6 and wins == 20,
          f"beta errs {err_e:.2e}/{err_g:.2e}, sup {sup:.2e}, "
          f"optimality {wins}/20")


def test_criterion_7_fisher_quadrature():
    """Quadrature vs analytic metric below 1e-6 entrywise, five parameter
    points per family."""
    rng = philox(7171)
    worst = 0.0
    for family in ("gaussian_diag", "exponential", "wigner_dyson",
                   "gaussian_bivariate_corr"):
        for _ in range(5):
            from conftest import random_model

            m = random_model(rng, family)
            ga = md.analytic_fisher(m).eval(m.theta)
            gq = md.fisher_quadrature(m).eval(m.theta)
            worst = max(worst, float(np.max(np.abs(ga - gq))))
    _line("criterion 7: fisher quadrature vs closed forms", worst < 1e-6,
          f"max entry err {worst:.2e}")


def test_criterion_8_iho_growth():
    """Average-volume rate within 5% of (l/2) xi Omega at (2, 1, 2);
    doubling Omega doubles the entropy slope within 2%; Ohmic density
    normalization exact."""
    cfg = sc.IHOConfig(2, omega=(0.5, 1.5), xi=1.0)
    rep = sc.run_iho(cfg)
    by = {c.name: c for c in rep.checks}
    rate = by["igc_growth_rate"].value
    slope_ratio = rep.observables["ige_slope_doubled_omega"] \
        / rep.observables["ige_slope"]
    cut = cfg.cutoff
    norm = abs(float(np.trapezoid(sc.ohmic_density(
        np.linspace(0, cut, 100001), cut), np.linspace(0, cut, 100001)))
        - 1.0)
    _line("criterion 8: oscillator-ensemble entropy growth",
          abs(rate - 2.0) / 2.0 < 0.05 and abs(slope_ratio - 2.0) < 0.04
          and norm < 1e-9 and rep.passed,
          f"rate {rate:.4f}, doubling {slope_ratio:.4f}, norm {norm:.1e}")


def test_criterion_9_spin_chain_classification():
    """Regular R = 0 (1e-8) with logarithmic growth, chaotic R = -1 (1e-6)
    with linear growth, r2 margins of at least 0.05."""
    reg = sc.run_spin_chain(sc.SpinChainConfig("regular"))
    cha = sc.run_spin_chain(sc.SpinChainConfig("chaotic"))
    r_reg = {c.name: c for c in reg.checks}["ricci_scalar"].value
    r_cha = {c.name: c for c in cha.checks}["ricci_scalar"].value
    ok = (abs(r_reg) < 1e-8 and abs(r_cha + 1.0) < 1e-6
          and reg.observables["growth_form"] == "logarithmic"
          and cha.observables["growth_form"] == "linear"
          and reg.observables["r2_margin"] >= 0.05
          and cha.observables["r2_margin"] >= 0.05)
    _line("criterion 9: level-statistics growth classification", ok,
          f"R {r_reg:.1e}/{r_cha + 1:.1e}, margins "
          f"{reg.observables['r2_margin']:.3f}/"
          f"{cha.observables['r2_margin']:.3f}")


def test_criterion_10_scattering_chain():
    """Exact vs cubic phase shift within 1% (k0 L <= 0.1, r <= 0.2); purity
    roundtrip exact to 1e-6; prolongation vanishing at r = 0, monotone, and
    bounded."""
    worst_shift = 0.0
    for r in (0.05, 0.012):
        for k0l in (0.05, 0.1):
            cfg = sc.ScatterConfig(p0=1.0, sigma0=0.45, tau0=1.0,
                                   r0_separation=10.0, potential_range=k0l,
                                   mu_mass=0.5, r=r)
            exact = sc.exact_phase_shift(cfg)
            cubic = -r * k0l ** 3 / 3.0
            worst_shift = max(worst_shift, abs(cubic - exact) / abs(exact))

    cfg = sc.ScatterConfig(p0=1.0, sigma0=0.1, tau0=1.0, r0_separation=10.0,
                           potential_range=0.1, mu_mass=0.5, r=0.01)
    obs = sc.scattering_observables(cfg)
    r_back = 3.0 * (1.0 - obs["purity"]) / (
        8.0 * cfg.p0 ** 2 * (2 * cfg.p0 ** 2 + cfg.sigma0 ** 2)
        * cfg.r0_separation * cfg.potential_range ** 3)
    roundtrip = abs(r_back - cfg.r) / cfg.r

    zero = sc.prolongation(sc.ScatterConfig(
        p0=1.0, sigma0=0.1, tau0=1.0, r0_separation=10.0,
        potential_range=0.1, mu_mass=0.5, r=0.0))["delta"]
    bound = cfg.r_upper_bound
    sweep = np.linspace(0.0, 0.9 * bound, 12)
    deltas = [sc.prolongation(sc.ScatterConfig(
        p0=1.0, sigma0=0.1, tau0=1.0, r0_separation=10.0,
        potential_range=0.1, mu_mass=0.5, r=rr))["delta"] for rr in sweep]
    monotone = bool(np.all(np.diff(deltas) > 0))
    try:
        sc.prolongation(sc.ScatterConfig(
            p0=1.0, sigma0=0.1, tau0=1.0, r0_separation=10.0,
            potential_range=0.1, mu_mass=0.5, r=1.05 * bound))
        enforced = False
    except RegimeError:
        enforced = True
    _line("criterion 10: scattering chain",
          worst_shift < 0.01 and roundtrip < 1e-6 and zero == 0.0
          and monotone and enforced,
          f"shift {worst_shift:.2e}, roundtrip {roundtrip:.2e}")


def test_criterion_11_property_suites():
    """Tensor symmetries, first Bianchi, scalar-vs-sectional-sum, score vs
    finite differences, deviation-field superposition, volume chart
    invariance; ten seeded points each, zero failures."""
    rng = philox(0xACCE)
    fails = []

    metric = md.analytic_fisher(
        md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=0.45))
    for _ in range(10):
        th = np.array([rng.normal(), rng.normal(), rng.uniform(0.5, 2.0)])
        rl = geo.curvature_report(metric, th).riemann_lowered
        if np.max(np.abs(rl + np.transpose(rl, (1, 0, 2, 3)))) > 1e-9 or \
                np.max(np.abs(rl + np.transpose(rl, (0, 1, 3, 2)))) > 1e-9:
            fails.append("antisymmetry")
        bianchi = rl + np.transpose(rl, (0, 2, 3, 1)) \
            + np.transpose(rl, (0, 3, 1, 2))
        if np.max(np.abs(bianchi)) > 1e-9:
            fails.append("bianchi")
        if abs(geo.curvature_report(metric, th).sectional_sum
               - geo.ricci_scalar(metric, th)) > 1e-8:
            fails.append("sectional-sum")

    from conftest import FAMILIES, random_micro_point, random_model

    for family in FAMILIES:
        for _ in range(10):
            m = random_model(rng, family)
            x = random_micro_point(rng, m)
            if np.max(np.abs(md.score(m, x) - fd_score(m, x))) > 1e-6:
                fails.append(f"score-{family}")

    p, metric_j, th0, v0, path = _wp_setup(0.2, 4.0, tol=1e-11, n_out=65)
    for _ in range(10):
        j0a, dj0a = rng.normal(size=3), rng.normal(size=3)
        j0b, dj0b = rng.normal(size=3), rng.normal(size=3)
        a, b = rng.normal(), rng.normal()
        ja = dyn.integrate_jacobi(metric_j, *carrier(path), j0a, dj0a,
                                  rtol=1e-11)
        jb = dyn.integrate_jacobi(metric_j, *carrier(path), j0b, dj0b,
                                  rtol=1e-11)
        jc = dyn.integrate_jacobi(metric_j, *carrier(path), a * j0a + b * j0b,
                                  a * dj0a + b * dj0b, rtol=1e-11)
        lin = a * ja.j + b * jb.j
        if np.max(np.abs(jc.j - lin)) / max(np.max(np.abs(lin)), 1.0) > 1e-8:
            fails.append("superposition")

    _, metric_v, _, _, path_v = _wp_setup(0.4, 4.0, n_out=65)
    for _ in range(10):
        scale = np.array([rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0), 1.0])
        scaled = geo.rescaled_chart(metric_v, scale)
        spath = dyn.path_from_functions(
            path_v.tau_grid,
            lambda t, s=scale: path_v.state(t)[0] * s,
            lambda t, s=scale: path_v.state(t)[1] * s, metric=scaled)
        tau = float(path_v.tau_grid[40])
        v1 = cx.volume_between(metric_v, path_v, tau)
        v2 = cx.volume_between(scaled, spath, tau)
        if abs(v2 - v1) / v1 > 1e-6:
            fails.append("volume-invariance")

    _line("criterion 11: randomized property suites", not fails,
          f"failures: {fails or 'none'}")
