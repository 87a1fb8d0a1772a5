"""The colliding wave-packet story, end to end.

Two Gaussian wave packets approach, scatter, and leave micro-correlated.
The macrostate manifold carries tanh/cosh geodesics; deviation fields grow
like sinh; the explored statistical volume is compressed by the correlation,
and the compression factor encodes the scattering observables (potential,
phase shift, cross section, purity) and the entanglement duration.

Run:  python demos/wavepacket_collision.py
"""

import numpy as np

from igac import complexity as cx
from igac import dynamics as dyn
from igac import scenarios as sc

np.set_printoptions(precision=6, suppress=True)

cfg = sc.ScatterConfig(p0=1.0, sigma0=0.1, tau0=1.0, r0_separation=10.0,
                       potential_range=0.1, mu_mass=0.5, r=0.01)
params = cfg.params
a0 = params.a0
print(f"initial data: p0 = {cfg.p0}, sigma0 = {cfg.sigma0}, "
      f"tau0 = {cfg.tau0}, r = {cfg.r}")
print(f"derived rate a0 = {a0:.6f}; growth-rate scale lambda = 2 a0 = "
      f"{2 * a0:.6f}\n")

print("-- geodesics against the closed forms ------------------------")
metric, th0, v0 = sc.wavepacket_manifold(params, params.r)
path = dyn.integrate_geodesic(metric, th0, v0, 5.0 / a0, tol=1e-10)
mu1, mu2, sig = dyn.wavepacket_geodesics(params, path.tau_grid, "after")
err = np.max(np.abs(path.theta - np.column_stack([mu1, mu2, sig])))
print(f"max deviation from tanh/cosh forms over [0, 5/a0]: {err:.2e}")
print(f"speed drift: {np.max(np.abs(path.speed / path.speed[0] - 1)):.2e}")

print("\n-- deviation growth ------------------------------------------")
g0 = metric.eval(th0)
w = np.zeros(3)
w[2] = 1.0
w -= (v0 @ g0 @ w) / (v0 @ g0 @ v0) * v0
w /= np.sqrt(w @ g0 @ w)
jac = dyn.integrate_jacobi(metric, th0, v0, path.tau_grid, np.zeros(3), w,
                           rtol=1e-10)
for k in (32, 128, 256, 512):
    t = jac.tau_grid[k]
    print(f"  tau = {t:6.3f}: |J| = {jac.intensity[k]:10.4f}   "
          f"sinh(a0 tau)/a0 = {np.sinh(a0 * t) / a0:10.4f}")
q = dyn.jacobi_q_coefficient(metric, th0, v0)
print(f"reduced-equation coefficient Q = {q:.6f} (= -a0^2, unstable)")

print("\n-- complexity compression ------------------------------------")
lam = 2 * a0
traces = {}
for r in (0.0, 0.3, 0.5):
    m, t0, vv0 = sc.wavepacket_manifold(params, r)
    pth = dyn.integrate_geodesic(m, t0, vv0, 10.0 / lam, tol=1e-10,
                                 n_out=129)
    traces[r] = cx.complexity_trace(m, pth)
k = 96
tau_k = traces[0.0].tau_grid[k]
c_u = traces[0.0].igc[k]
print(f"at tau = {tau_k:.3f}:")
for r in (0.3, 0.5):
    ratio = traces[r].igc[k] / c_u
    print(f"  r = {r}: C_corr/C_uncorr = {ratio:.6f}   "
          f"sqrt((1-r)/(1+r)) = {np.sqrt((1 - r) / (1 + r)):.6f}   "
          f"recovered r = {sc.r_from_igc(c_u, traces[r].igc[k]):.6f}")
gap = traces[0.5].ige[k] - traces[0.0].ige[k]
print(f"entropy gap at r = 0.5: {gap:+.6f}   "
      f"(1/2) ln(1/3) = {0.5 * np.log(1 / 3):+.6f}")

print("\n-- scattering observables from the correlation ---------------")
obs = sc.scattering_observables(cfg)
for key in ("V", "k_r", "theta0_shift", "a_s", "cross_section", "r_qm",
            "purity"):
    print(f"  {key:14s} = {obs[key]:.6e}")
theta_exact = sc.exact_phase_shift(cfg)
print(f"  exact phase shift {theta_exact:.6e} vs cubic "
      f"{obs['theta0_shift']:.6e}")

print("\n-- entanglement duration -------------------------------------")
pro = sc.prolongation(cfg)
print(f"  prolongation delta = {pro['delta']:.6e}")
print(f"  exact crossing tau* - tau0 = "
      f"{pro['tau_star_exact'] - cfg.tau0:.6e}")
print(f"  admissible correlations: r < {pro['r_upper_bound']:.4f}")

print("\n-- purity from complexity ------------------------------------")
cu_cf = float(sc.igc_closed_form(params, 0.0, 3.0))
cc_cf = float(sc.igc_closed_form(params, cfg.r, 3.0))
print(f"  purity via complexity compression: "
      f"{sc.purity_from_igc(cfg, cu_cf, cc_cf):.6f}")
print(f"  purity via scattering length     : {obs['purity']:.6f}")
