"""Scenario drivers: report structure, oracle checks and the scattering
formula chain."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igac import cli
from igac import dynamics as dyn
from igac import scenarios as sc
from igac.errors import RegimeError


def in_regime_cfg(**kw):
    base = dict(p0=1.0, sigma0=0.1, tau0=1.0, r0_separation=10.0,
                potential_range=0.1, mu_mass=0.5, r=0.01)
    base.update(kw)
    return sc.ScatterConfig(**base)


def test_uncorrelated_gaussian_report():
    rep = sc.run_uncorrelated_gaussian(1)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert {"ricci_scalar_analytic", "ricci_scalar_quadrature",
            "jacobi_rate_vs_slope_per_pair",
            "slope_ratio_doubling"} <= names
    quad = next(c for c in rep.checks if c.name == "ricci_scalar_quadrature")
    assert abs(quad.value + 1.0) < 1e-12 and quad.tol == 1e-4
    assert 1.8 <= rep.observables["ige_slope_doubled"] \
        / rep.observables["ige_linear_slope"] <= 2.2
    d = rep.to_dict()
    assert d["pass"] and d["region"] == "coordinate-box"
    assert all({"name", "value", "oracle", "tol", "source", "pass"}
               <= set(c) for c in d["checks"])


@pytest.mark.parametrize("run", [
    sc.run_uncorrelated_gaussian,
    lambda l, **kw: sc.run_macro_correlated(l, [0.5], **kw)],
    ids=["uncorrelated", "macro_correlated"])
@pytest.mark.parametrize("given", [{"theta0": [0.0, 2.0]},
                                   {"v0": [1.0, 0.0]}],
                         ids=["theta0", "v0"])
def test_start_defaults_independently(run, given):
    # a given theta0 or v0 is kept; only the other one takes its default
    theta_top, v_top = sc._gauss_semicircle_data(1)
    inputs = run(1, **given).inputs
    expected = {"theta0": theta_top, "v0": v_top, **given}
    for key in ("theta0", "v0"):
        np.testing.assert_array_equal(inputs[key], expected[key])


def test_macro_correlated_report():
    rep = sc.run_macro_correlated(1, [0.5], tau_end=12.0)
    assert rep.passed
    obs = rep.observables
    assert obs["ricci_scalar_kernel"] == pytest.approx(-2.0 / (2 - 0.25),
                                                       abs=1e-8)
    assert obs["ricci_scalar_reference_form"] == pytest.approx(
        -8.0 * (2 - 0.25) ** -3, abs=1e-12)
    # the reference closed form is reported next to the kernel value, and
    # they genuinely differ away from r = 0
    assert abs(obs["ricci_scalar_kernel"]
               - obs["ricci_scalar_reference_form"]) > 0.1
    assert obs["alpha_plus"][0] == pytest.approx(2.2071067811865475)
    assert obs["alpha_minus"][0] == pytest.approx(0.7928932188134524)


def test_macro_degeneration_check_runs_at_tiny_r():
    rep = sc.run_macro_correlated(1, [1e-9], tau_end=10.0)
    assert rep.passed
    assert any(c.name == "ige_degeneration_at_r0" for c in rep.checks)


def test_iho_report():
    rep = sc.run_iho(sc.IHOConfig(2, omega=(0.5, 1.5), xi=1.0))
    assert rep.passed
    by = {c.name: c for c in rep.checks}
    assert by["ohmic_normalization"].value == 1.0
    assert abs(by["igc_growth_rate"].value - 2.0) / 2.0 < 0.05
    ratio = rep.observables["ige_slope_doubled_omega"] \
        / rep.observables["ige_slope"]
    assert abs(ratio - 2.0) < 0.02 * 2.0


@pytest.mark.parametrize("l", [3, 4, 5, 6])
def test_iho_ohmic_passes(l):
    # (l/2) xi Omega tau_end passes 709 at l = 6, where the closed-form
    # average volume itself would overflow; its logarithm does not
    rep = sc.run_iho(sc.IHOConfig(l, omega_total=2.0))
    assert rep.passed, rep.failures()
    assert np.isfinite(rep.observables["igc_growth_rate"])


@pytest.mark.parametrize("cfg", [sc.IHOConfig(2, omega=(0.5, 1.5)),
                                 sc.IHOConfig(3, omega_total=2.0),
                                 sc.IHOConfig(4, omega=(0.3, 0.9, 1.4, 2.0))],
                         ids=["l2-demo", "l3-ohmic", "l4"])
def test_iho_path_state_equals_grid_bit_for_bit(monkeypatch, cfg):
    # the grid takes one vector call of the trajectory, state(tau) a
    # scalar call: both give the same bits at every grid point
    paths = []
    trace = sc.cx.complexity_trace
    monkeypatch.setattr(sc.cx, "complexity_trace", lambda metric, path:
                        paths.append(path) or trace(metric, path))
    sc.run_iho(cfg)
    path, = paths
    for k, tau in enumerate(path.tau_grid):
        theta, theta_dot = path.state(tau)
        assert np.array_equal(theta, path.theta[k])
        assert np.array_equal(theta_dot, path.theta_dot[k])


def test_iho_ohmic_quantiles():
    cfg = sc.IHOConfig(4, omega_total=2.0, xi=1.5)
    w = cfg.frequencies
    assert w.shape == (4,)
    assert np.all(np.diff(w) > 0)
    assert w[-1] < cfg.xi * 2.0
    # quantile placement: each node carries equal Ohmic mass
    cut = cfg.xi * 2.0
    masses = w ** 2 / cut ** 2
    assert masses == pytest.approx((np.arange(4) + 0.5) / 4)


def test_iho_config_validation():
    with pytest.raises(ValueError):
        sc.IHOConfig(2, omega=(1.0,))
    with pytest.raises(ValueError):
        sc.IHOConfig(2, omega=(1.0, -1.0))
    with pytest.raises(ValueError):
        sc.IHOConfig(2)
    # the closed-form slope is fitted over [10, tau_end]
    for tau_end in (5.0, 10.0):
        with pytest.raises(ValueError, match="tau_end"):
            sc.IHOConfig(2, omega=(0.5, 1.5), tau_end=tau_end)


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: sc.IHOConfig(2, omega=(NAN, 1.0)),
    lambda: sc.IHOConfig(2, omega_total=NAN),
    lambda: sc.IHOConfig(2, omega=(0.5, 1.5), xi=NAN),
    lambda: sc.IHOConfig(2, omega=(0.5, 1.5), tau_end=NAN),
    lambda: sc.ScatterConfig(p0=NAN),
    lambda: sc.ScatterConfig(sigma0=NAN),
    lambda: sc.ScatterConfig(tau0=NAN),
    lambda: sc.ScatterConfig(r0_separation=NAN),
    lambda: sc.ScatterConfig(potential_range=NAN),
    lambda: sc.ScatterConfig(mu_mass=NAN),
    lambda: dyn.WavePacketParams(NAN, 0.1, 1.0),
    lambda: dyn.WavePacketParams(1.0, NAN, 1.0),
    lambda: dyn.WavePacketParams(1.0, 0.1, NAN),
], ids=["iho-omega", "iho-omega_total", "iho-xi", "iho-tau_end",
        "scatter-p0", "scatter-sigma0", "scatter-tau0", "scatter-R0",
        "scatter-L", "scatter-mu_mass", "wavepacket-p0", "wavepacket-sigma0",
        "wavepacket-tau0"])
def test_nan_parameter_rejected(build):
    # nan <= 0 is False, so a positivity test must read "not x > 0"
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("regime,oracle", [("regular", 0.0),
                                           ("chaotic", -1.0)])
def test_spin_chain_classification(regime, oracle):
    rep = sc.run_spin_chain(regime)
    assert rep.passed
    by = {c.name: c for c in rep.checks}
    assert by["ricci_scalar"].value == pytest.approx(oracle, abs=1e-6)
    assert rep.observables["r2_margin"] >= 0.05
    expected = "logarithmic" if regime == "regular" else "linear"
    assert rep.observables["growth_form"] == expected


def test_spin_chain_regular_c_ig_tracks_exponential_count():
    rep = sc.run_spin_chain("regular")
    # two exponential-type factors feed the logarithmic coefficient
    assert rep.observables["c_ig"] == pytest.approx(2.0, abs=0.05)


def test_scattering_observables_chain():
    cfg = in_regime_cfg()
    obs = sc.scattering_observables(cfg)
    r, k0, L = cfg.r, cfg.k0, cfg.potential_range
    assert obs["V"] == pytest.approx(r * cfg.p0 ** 2 / (2 * cfg.mu_mass))
    assert obs["k_r"] == pytest.approx(np.sqrt(1 - r) * k0)
    assert obs["theta0_shift"] == pytest.approx(-r * (k0 * L) ** 3 / 3)
    assert obs["a_s"] == pytest.approx(r * (k0 * L) ** 3 / (3 * k0))
    assert obs["cross_section"] == pytest.approx(4 * np.pi * obs["a_s"] ** 2)
    m2 = 2 * k0 ** 2 + cfg.sigma_k0 ** 2
    assert obs["purity"] == pytest.approx(
        1 - 8 * m2 * cfg.r0_separation * obs["a_s"])
    assert obs["r_qm"] == pytest.approx(
        np.sqrt(8 * m2 * cfg.r0_separation * obs["a_s"]))


def test_scattering_phase_shift_example():
    # r = 0.1, k0 = 1, L = 0.5: theta0 = -0.1 * 0.125 / 3
    with pytest.warns(UserWarning):
        cfg = sc.ScatterConfig(p0=1.0, sigma0=0.3, tau0=1.0,
                               r0_separation=10.0, potential_range=0.5,
                               mu_mass=0.5, r=0.1)
    obs = sc.scattering_observables(cfg)
    assert obs["theta0_shift"] == pytest.approx(-4.1667e-3, rel=1e-3)
    assert obs["a_s"] == pytest.approx(4.1667e-3, rel=1e-3)


def test_purity_formula_example():
    # P = 1 - 8 (2 k0^2 + s^2) R0 a_s at k0=1, s=0.1, R0=10, a_s=1e-3
    p = 1.0 - 8.0 * (2 * 1.0 ** 2 + 0.1 ** 2) * 10.0 * 1e-3
    assert p == pytest.approx(0.8392, abs=1e-12)


def test_zero_correlation_degenerations():
    cfg = in_regime_cfg(r=0.0)
    obs = sc.scattering_observables(cfg)
    for key in ("V", "theta0_shift", "a_s", "cross_section"):
        assert obs[key] == 0.0
    assert obs["purity"] == 1.0
    assert sc.exact_phase_shift(cfg) == pytest.approx(0.0, abs=1e-12)
    assert sc.prolongation(cfg)["delta"] == 0.0


def test_exact_phase_shift_vs_cubic():
    cfg = in_regime_cfg(r=0.01, potential_range=0.05)
    exact = sc.exact_phase_shift(cfg)
    cubic = sc.scattering_observables(cfg)["theta0_shift"]
    assert abs(cubic - exact) / abs(exact) < 0.01
    # at k0 L = 0.3 the cubic expansion visibly degrades but stays same-sign
    cfg2 = sc.ScatterConfig(p0=1.0, sigma0=0.3, tau0=1.0, r0_separation=10.0,
                            potential_range=0.3, mu_mass=0.5, r=0.15)
    exact2 = sc.exact_phase_shift(cfg2)
    cubic2 = -cfg2.r * (cfg2.k0 * cfg2.potential_range) ** 3 / 3
    assert exact2 < 0 and cubic2 < 0
    assert abs(cubic2 - exact2) / abs(exact2) > 0.01


@pytest.mark.filterwarnings("ignore:k0 L exceeds 0.3")
@settings(max_examples=200, deadline=None)
@given(k0_l=st.floats(1e-6, 7.5, exclude_max=True),
       p0=st.floats(0.05, 5.0), r_frac=st.floats(0.0, 1.0, exclude_max=True))
def test_exact_phase_shift_is_a_root_or_a_regime_error(k0_l, p0, r_frac):
    """Up to k0 L = 7.5, past the 3 pi / 2 where the bracket empties, the
    phase shift is a root of k_r cot(k_r L) - k0 cot(k0 L + theta), never
    the cotangent's pole.  Its residual is round-off relative to k0, times
    the conditioning 1 + 1/sin^2(k0 L + theta) of the cotangent there."""
    bound = in_regime_cfg(p0=p0).r_upper_bound
    cfg = in_regime_cfg(p0=p0, potential_range=k0_l / p0,
                        r=r_frac * min(bound, 1.0))
    try:
        theta = sc.exact_phase_shift(cfg)
    except RegimeError:
        return
    k0, big_l = cfg.k0, cfg.potential_range
    k_r = np.sqrt(1.0 - cfg.r) * k0
    arg = k0 * big_l + theta
    residual = k0 / np.tan(arg) - k_r / np.tan(k_r * big_l)
    assert -np.pi / 2 < theta < np.pi / 2
    assert abs(residual) <= 16 * np.finfo(float).eps * k0 \
        * (1.0 + 1.0 / np.sin(arg) ** 2)


def test_exact_phase_shift_past_three_half_pi_raises():
    # the bracket inverts past k0 L = 3 pi / 2; at p0 = 5, L = 1 the root
    # finder used to land on the pole theta = pi - 5
    with pytest.warns(UserWarning, match="k0 L exceeds 0.3"):
        cfg = in_regime_cfg(p0=5.0, potential_range=1.0)
    with pytest.raises(RegimeError, match="no phase shift"):
        sc.exact_phase_shift(cfg)


def test_prolongation_properties():
    cfg = in_regime_cfg()
    pro = sc.prolongation(cfg)
    assert pro["delta"] > 0
    assert pro["r_upper_bound"] == pytest.approx(2.0 / pro["eta_delta"])
    # exact crossing time against the dropped-term approximation
    p = cfg.params
    if pro["tau_star_exact"] is not None:
        delta_exact = pro["tau_star_exact"] - cfg.tau0
        x = ((1 - cfg.r) ** -0.5 - 1.0) * pro["eta_delta"]
        bound = (0.5 * cfg.r / (1 - x)
                 + 2.0 * np.exp(-4 * p.a0 * cfg.tau0) / (1 - x)) \
            / (2 * p.a0)
        assert abs(pro["delta"] - delta_exact) <= 3 * bound
    sweep = np.linspace(0.0, 0.9 * pro["r_upper_bound"], 16)
    deltas = [sc.prolongation(in_regime_cfg(r=r))["delta"] for r in sweep]
    assert np.all(np.diff(deltas) > 0)


def test_prolongation_bound_enforced():
    cfg = in_regime_cfg()
    too_big = 1.05 * cfg.r_upper_bound
    with pytest.raises(RegimeError):
        sc.prolongation(in_regime_cfg(r=too_big))
    with pytest.raises(RegimeError):
        sc.scattering_observables(in_regime_cfg(r=too_big))


def test_r_from_igc_inversion():
    # closed-form compression sqrt((1-r)/(1+r)) inverts exactly
    assert sc.r_from_igc(1.0, np.sqrt(1.0 / 3.0)) == pytest.approx(
        0.5, abs=1e-15)
    assert sc.r_from_igc(1.0, 1.0) == 0.0
    p = dyn.WavePacketParams(1.0, 0.25, 1.0, 0.0)
    for r in (0.05, 0.3, 0.7):
        cu = float(sc.igc_closed_form(p, 0.0, 3.0))
        cc = float(sc.igc_closed_form(p, r, 3.0))
        assert sc.r_from_igc(cu, cc) == pytest.approx(r, abs=1e-12)
    with pytest.raises(ValueError):
        sc.r_from_igc(1.0, 1.2)


def test_purity_from_igc():
    cfg = in_regime_cfg()
    p = cfg.params
    cu = float(sc.igc_closed_form(p, 0.0, 3.0))
    cc = float(sc.igc_closed_form(p, cfg.r, 3.0))
    eta = (8.0 / 3.0) * cfg.k0 ** 2 * (2 * cfg.k0 ** 2 + cfg.sigma_k0 ** 2) \
        * cfg.r0_separation * cfg.potential_range ** 3
    assert sc.purity_from_igc(cfg, cu, cc) == pytest.approx(
        1.0 - eta * cfg.r, abs=1e-12)
    assert sc.purity_from_igc(cfg, cu, cu) == 1.0


def test_scattering_constant_has_one_home():
    """purity_from_igc, the self-consistent r and the purity round trip
    read the one eta_C of the config, at a point where k0 != 1 would show
    a second spelling of it at round-off."""
    cfg = in_regime_cfg(p0=0.7, sigma0=0.23, r0_separation=7.3,
                        potential_range=0.13)
    eta = (8.0 / 3.0) * cfg.k0 ** 2 * (2 * cfg.k0 ** 2 + cfg.sigma_k0 ** 2) \
        * cfg.r0_separation * cfg.potential_range ** 3
    assert cfg.eta_c == pytest.approx(eta, rel=1e-15)
    assert cfg.m2 == 2 * cfg.k0 ** 2 + cfg.sigma_k0 ** 2
    obs = sc.scattering_observables(cfg)
    assert obs["self_consistent_r"] == cfg.eta_c
    assert sc.purity_from_igc(cfg, 2.0, 1.5) == \
        1.0 - cfg.eta_c * sc.r_from_igc(2.0, 1.5)
    assert 1.0 - obs["purity"] == pytest.approx(cfg.eta_c * cfg.r,
                                                rel=1e-12)


def test_wavepacket_report_full_chain():
    rep = sc.run_wavepacket(in_regime_cfg(), r_sweep=(0.3,))
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert {"ricci_scalar", "weyl_max_abs", "jacobi_intensity_closed_form",
            "igc_ratio_r0.3", "purity_roundtrip",
            "prolongation_monotone"} <= names
    assert rep.observables["closed_form_region_factor"] == pytest.approx(
        2.0, rel=0.02)


def test_wavepacket_chain_consistency():
    """r -> V -> exact phase shift -> a_s -> cross section -> purity agrees
    with the direct low-energy formulas within their truncation order."""
    cfg = in_regime_cfg(r=0.015, potential_range=0.08)
    obs = sc.scattering_observables(cfg)
    theta_exact = sc.exact_phase_shift(cfg)
    a_s_exact = -theta_exact / cfg.k0
    m2 = 2 * cfg.k0 ** 2 + cfg.sigma_k0 ** 2
    purity_exact = 1.0 - 8.0 * m2 * cfg.r0_separation * a_s_exact
    cross_exact = 4 * np.pi * a_s_exact ** 2
    # truncation order of the cubic expansion: O((k0 L)^2) relative
    trunc = (cfg.k0 * cfg.potential_range) ** 2
    assert abs(a_s_exact - obs["a_s"]) / obs["a_s"] < trunc
    assert abs(cross_exact - obs["cross_section"]) / obs["cross_section"] \
        < 3 * trunc
    assert abs(purity_exact - obs["purity"]) < 8 * m2 * cfg.r0_separation \
        * obs["a_s"] * trunc


def test_potential_density_identity_at_self_consistent_r():
    """V / L^3 equals the initial-data form exactly when the correlation
    takes its self-consistent value (the point where r matches r_qm)."""
    base = in_regime_cfg(potential_range=0.06, r=0.0)
    r_star = sc.scattering_observables(base)["self_consistent_r"]
    assert r_star < base.r_upper_bound
    obs = sc.scattering_observables(in_regime_cfg(potential_range=0.06,
                                                  r=r_star))
    assert obs["potential_density"] == pytest.approx(
        obs["potential_density_initial_data_form"], rel=1e-12)
    assert obs["r_qm"] == pytest.approx(r_star, rel=1e-12)


def test_purity_equals_one_minus_r_qm_squared():
    obs = sc.scattering_observables(in_regime_cfg())
    assert obs["purity"] == pytest.approx(1.0 - obs["r_qm"] ** 2, abs=1e-15)


def test_wavepacket_demo_integrator_work(nfev, tmp_path):
    """Right-hand-side evaluations summed over the demo wave-packet run, a
    machine-independent cost of its geodesic and Jacobi flows: 6,446 in
    ten DOP853 solves, none since every flow of the run is on a metric
    with a closed-form flow."""
    config = Path(__file__).parents[1] / "demos/configs/wavepacket.yaml"
    assert cli.main(["scenario", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    assert nfev == []


def test_wavepacket_lyapunov_solves_no_geodesic(monkeypatch):
    """The Lyapunov fields integrate their own carrier."""
    def forbidden(*args, **kwargs):
        raise AssertionError("integrate_geodesic called")

    monkeypatch.setattr(dyn, "integrate_geodesic", forbidden)
    params = in_regime_cfg().params
    for r in (0.0, 0.2, 0.5):
        metric = sc.wavepacket_manifold(params, r)[0]
        value = sc._wavepacket_lyapunov((params, r, metric))
        assert value == pytest.approx(2.0 * params.a0, rel=0.05)


def test_wavepacket_builds_one_metric_per_correlation(monkeypatch):
    """Curvature, branch geodesics, deviation, Lyapunov rates and the
    r sweep share one metric per distinct correlation."""
    built, fishers = [], []
    metric, fisher = sc._wavepacket_metric, sc.md.analytic_fisher
    monkeypatch.setattr(sc, "_wavepacket_metric", lambda params, r:
                        built.append(r) or metric(params, r))
    monkeypatch.setattr(sc.md, "analytic_fisher", lambda model:
                        fishers.append(model) or fisher(model))
    assert sc.run_wavepacket(in_regime_cfg(r=0.01), (0.01, 0.3, 0.5)).passed
    # the curvature at 0.5, cfg.r, the Lyapunov set {0, 0.2, 0.5} and the
    # sweep, which starts at 0; no Fisher metric is built beside them
    assert sorted(built) == [0.0, 0.01, 0.2, 0.3, 0.5]
    assert len(fishers) == len(built)


@pytest.mark.parametrize("r", [0.0, 0.2, 0.5])
def test_wavepacket_two_point_lyapunov_rate_is_the_estimate(r):
    """The rate from the two ends of the window equals
    ``lyapunov_estimate`` of the field on the 257-point grid, bit for
    bit."""
    params = in_regime_cfg().params
    metric, th0, v0 = sc.wavepacket_manifold(params, r)
    a0 = params.a0
    tau_cap = np.arccosh(params.sigma_peak / 1e-7) / a0
    grid = np.linspace(0.0, min(20.0 / a0, tau_cap), 257)
    jac = dyn.integrate_jacobi(metric, th0, v0, grid, np.zeros(3),
                               dyn.normal_direction(metric, th0, v0))
    assert sc._wavepacket_lyapunov((params, r, metric)) \
        == dyn.lyapunov_estimate(jac).value


def test_prolongation_sweep_is_the_scalar_formula():
    """The 24-point prolongation sweep of ``run_wavepacket``, one array
    expression, repeats ``prolongation`` at each correlation to round-off,
    and beyond the regime it names the first correlation out of range."""
    cfg = in_regime_cfg()
    sweep = np.linspace(0.0, 0.9 * sc.prolongation(cfg)["r_upper_bound"], 24)
    deltas = sc._prolongation_delta(cfg.params, sweep)
    assert deltas == pytest.approx(
        [sc.prolongation(in_regime_cfg(r=r))["delta"] for r in sweep],
        rel=1e-12, abs=0.0)
    wide = np.linspace(0.0, 0.99, 12)     # the bound 2 / eta is near 0.02
    with pytest.raises(RegimeError, match=f"r = {wide[1]} "):
        sc._prolongation_delta(cfg.params, wide)
