"""A tour of the statistical families and their curvature.

Builds each parametric family, evaluates its information metric two ways
(closed form and quadrature), and walks through the curvature objects:
connection coefficients, Riemann/Ricci tensors, sectional curvatures, the
anisotropy tensor and Killing residuals.

Run:  python demos/curvature_tour.py
"""

import numpy as np

from igac import geometry as geo
from igac import models as md

np.set_printoptions(precision=6, suppress=True)


def banner(title):
    print("\n" + "=" * 64)
    print(title)
    print("=" * 64)


banner("1. Families and their Fisher metrics")
gauss = md.gaussian_diag([0.0], [2.0])
print("gaussian pair (mean 0, spread 2):")
print("  closed form :", np.diag(md.analytic_fisher(gauss).eval(gauss.theta)))
print("  quadrature  :",
      np.diag(md.fisher_quadrature(gauss).eval(gauss.theta)))

wd = md.wigner_dyson(1.0)
print("level-repulsion spacing (mean 1): g =",
      md.analytic_fisher(wd).eval(wd.theta)[0, 0], "(closed form 4/mu^2)")

biv = md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=0.5)
print("correlated bivariate Gaussian (r = 0.5):")
print(md.analytic_fisher(biv).eval(biv.theta))

banner("2. Normalization and score identities")
for name, model in [("gaussian", gauss), ("spacing", wd),
                    ("bivariate", biv)]:
    print(f"  {name:10s} |int p - 1| = {md.normalization_residual(model):.2e}"
          f"   |E[score]| = {md.score_expectation_residual(model):.2e}")

banner("3. Curvature of the (mean, spread) plane")
metric = md.analytic_fisher(gauss)
theta = np.array([0.0, 1.0])
gam = geo.christoffel(metric, theta)
print("connection at spread 1: G^s_mm = %.3f, G^m_ms = %.3f, G^s_ss = %.3f"
      % (gam[1, 0, 0], gam[0, 0, 1], gam[1, 1, 1]))
print("scalar curvature:", geo.ricci_scalar(metric, theta),
      " (hyperbolic, R = -1)")
print("sum of sectional curvatures:",
      geo.curvature_report(metric, theta).sectional_sum)

banner("4. Scaling with the number of degrees of freedom")
for l in (1, 2, 3):
    th = np.tile([0.0, 1.0], l)
    m = md.analytic_fisher(md.gaussian_diag(th[0::2], th[1::2]))
    print(f"  l = {l}: R = {geo.ricci_scalar(m, th):+.6f}   (expected -{l})")

banner("5. The correlated wave-packet manifold is isotropic")
for r in (0.1, 0.5, 0.9):
    m = md.analytic_fisher(md.gaussian_bivariate_corr(0.0, 0.0, 1.0, r=r))
    th = np.array([0.2, -0.3, 1.1])
    rep = geo.curvature_report(m, th)
    ks = ", ".join(f"K{p}={k:+.4f}" for p, k in rep.sectional)
    print(f"  r = {r}: R = {rep.scalar:+.4f}  {ks}  max|W| = "
          f"{rep.weyl_max_abs:.1e}")
print("every plane bends the same way (-1/4) and the anisotropy tensor")
print("vanishes: the correlation is a chart change, not new geometry.")

banner("6. Symmetry directions")
grid = [np.array([m_, s]) for m_ in (-0.5, 0.5) for s in (0.8, 1.6)]
# each field is constant, so its derivative is zero
res_mu = geo.killing_residual(
    metric, lambda th: (np.array([1.0, 0.0]), np.zeros((2, 2))), grid)
res_sg = geo.killing_residual(
    metric, lambda th: (np.array([0.0, 1.0]), np.zeros((2, 2))), grid)
print(f"mean translation residual   : {res_mu:.2e}  (isometry)")
print(f"spread translation residual : {res_sg:.2e}  (not an isometry)")
