"""Connection and curvature machinery for metric fields.

Everything is computed pointwise from the exact connection each MetricField
family supplies in closed form: Christoffel symbols and their derivative
and, from them, the Riemann tensor, derived in one place for ``riemann``,
``ricci_scalar``, ``sectional`` and ``curvature_report``.  The report
derives every curvature quantity of a point from one connection jet:
lowered Riemann, Ricci tensor and scalar, sectional curvatures and their
orthonormal-frame sum, projective anisotropy and the metric-compatibility
residual, which checks the connection against the metric's own first jet.
``ricci_scalar`` and ``sectional`` are one-value shortcuts; Killing
residuals, from the caller's field and its exact derivative (K, dK),
complete the set.

Sign conventions: Gamma^a_bc = (1/2) g^ad (d_b g_dc + d_c g_db - d_d g_bc),
R^a_bcd = d_c Gamma^a_bd - d_d Gamma^a_bc + Gamma^a_fc Gamma^f_bd
- Gamma^a_fd Gamma^f_bc, R_ab = R^c_acb.  With these choices the hyperbolic
(mean, spread) Gaussian manifold has scalar curvature -1.  The sectional
curvature is normalized so that the scalar equals the sum of K(e_i, e_j)
over ordered orthonormal pairs i != j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateMetricError, DegeneratePlaneError
from .models import _CHART_FLOOR, MetricField

__all__ = [
    "CurvatureReport",
    "christoffel",
    "riemann",
    "ricci_scalar",
    "sectional",
    "orthonormal_frame",
    "killing_residual",
    "curvature_report",
    "rescaled_chart",
]


def _check_chart(metric: MetricField, theta):
    theta = np.asarray(theta, float)
    if not metric.in_chart(theta):
        raise DegenerateMetricError(
            f"point {theta} has a scale coordinate below the chart floor "
            f"{_CHART_FLOOR}")
    return theta


def _inverse(g, theta) -> np.ndarray:
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(f"singular metric at {theta}") from exc


def christoffel(metric: MetricField, theta) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma^a_bc, symmetric in (b, c)."""
    return metric.connection(_check_chart(metric, theta))


def _riemann_from(gam, dgam) -> np.ndarray:
    return (np.einsum("cabd->abcd", dgam) - np.einsum("dabc->abcd", dgam)
            + np.einsum("afc,fbd->abcd", gam, gam)
            - np.einsum("afd,fbc->abcd", gam, gam))


def _riemann_at(metric: MetricField, theta):
    """(theta, g, Gamma, R^a_bcd) at a chart point: the one derivation of
    the Riemann tensor, from one connection jet."""
    theta = _check_chart(metric, theta)
    gam, dgam = metric.connection(theta, order=2)
    return theta, metric.eval(theta), gam, _riemann_from(gam, dgam)


def riemann(metric: MetricField, theta) -> np.ndarray:
    """Mixed curvature tensor R^a_bcd."""
    return _riemann_at(metric, theta)[3]


def ricci_scalar(metric: MetricField, theta) -> float:
    """R = g^ab R_ab with R_ab = R^c_acb."""
    theta, g, _, rm = _riemann_at(metric, theta)
    ric = np.einsum("cacb->ab", rm)
    return float(np.einsum("ab,ab->", _inverse(g, theta), ric))


def sectional(metric: MetricField, theta, u, v) -> float:
    """Sectional curvature of the plane spanned by u and v.

    K = R_abcd u^a v^b u^c v^d / (<u,u><v,v> - <u,v>^2); invariant under any
    basis change of the plane.
    """
    _, g, _, rm = _riemann_at(metric, theta)
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    uu, vv, uv = u @ g @ u, v @ g @ v, u @ g @ v
    rl = np.einsum("ae,ebcd->abcd", g, rm)
    return float(_plane_ratio(np.einsum("abcd,a,b,c,d->", rl, u, v, u, v),
                              uu * vv - uv * uv))


def _plane_ratio(num, den):
    """Sectional curvatures num / den of planes with Gram determinants
    ``den``; DegeneratePlaneError where one vanishes."""
    if np.any(np.abs(den) < 1e-14):
        raise DegeneratePlaneError("u, v span a degenerate plane")
    return num / den


def orthonormal_frame(g: np.ndarray) -> list:
    """Gram-Schmidt orthonormalization of the coordinate basis, in
    coordinate order."""
    n = g.shape[0]
    frame = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        for b in frame:
            e = e - (b @ g @ e) * b
        norm2 = e @ g @ e
        if norm2 <= 0:
            raise DegenerateMetricError("metric not positive definite")
        frame.append(e / np.sqrt(norm2))
    return frame


def _weyl(g, rl, scal) -> float:
    """max-abs entry of the projective anisotropy tensor
    W_abcd = R_abcd - R / (N(N-1)) (g_bd g_ac - g_bc g_ad), which vanishes
    exactly on constant-curvature (isotropic) manifolds.  A 1-D manifold has
    no 2-planes, so its anisotropy is zero."""
    n = g.shape[0]
    if n < 2:
        return 0.0
    w = rl - scal / (n * (n - 1)) * (
        np.einsum("bd,ac->abcd", g, g) - np.einsum("bc,ad->abcd", g, g))
    return float(np.max(np.abs(w)))


def _compat_residual(g, dg, gam) -> float:
    """max|nabla_c g_ab| relative to max|d_c g_ab|; the absolute residual
    where dg vanishes, which is 0 for a correct connection."""
    nabla = dg - np.einsum("dca,db->cab", gam, g) \
        - np.einsum("dcb,ad->cab", gam, g)
    worst = float(np.max(np.abs(nabla)))
    scale = float(np.max(np.abs(dg)))
    return worst / scale if scale > 0 else worst


def killing_residual(metric: MetricField, k_field: Callable,
                     grid: Sequence) -> float:
    """sup over the grid of max-abs of D_a K_b + D_b K_a.

    ``k_field`` maps theta to ``(K, dK)``: the contravariant components K^a
    and their derivative dK[a, b] = d_a K^b.  The index is lowered exactly,
    d_a K_b = d_a g_bc K^c + d_a K^c g_cb, with the metric's own jet.  Zero
    iff K generates an isometry on the grid.
    """
    worst = 0.0
    for theta in grid:
        theta = _check_chart(metric, theta)
        g, dg = metric.jet(theta)
        k, dk = (np.asarray(part, float) for part in k_field(theta))
        gam = metric.connection(theta)
        # D_a K_b = d_a K_b - Gamma^c_ab K_c
        cov = dg @ k + dk @ g - np.tensordot(g @ k, gam, 1)
        worst = max(worst, float(np.max(np.abs(cov + cov.T))))
    return worst


@dataclass(frozen=True)
class CurvatureReport:
    """All curvature objects evaluated at one chart point."""

    theta: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray            # mixed R^a_bcd
    riemann_lowered: np.ndarray    # R_abcd = g_ae R^e_bcd
    ricci: np.ndarray              # R_ab = R^c_acb
    scalar: float
    sectional: list                # ((i, j) plane, K) over coordinate pairs
    sectional_sum: float           # K over ordered orthonormal pairs i != j
    weyl_max_abs: float
    metric_compat_residual: float


def curvature_report(metric: MetricField, theta) -> CurvatureReport:
    """Every curvature object at one point from a single connection jet;
    the metric's first derivative enters only the compatibility residual,
    which thereby checks the closed-form connection against the metric."""
    theta, g, gam, rm = _riemann_at(metric, theta)
    ginv = _inverse(g, theta)
    rl = np.einsum("ae,ebcd->abcd", g, rm)
    ric = np.einsum("cacb->ab", rm)
    scal = float(np.einsum("ab,ab->", ginv, ric))
    n = metric.dim
    # coordinate planes: R_ijij / (g_ii g_jj - g_ij^2), which the general
    # formula reduces to exactly on unit vectors
    i, j = np.triu_indices(n, 1)
    ks = _plane_ratio(rl[i, j, i, j], g[i, i] * g[j, j] - g[i, j] ** 2)
    sec = [((a, b), k)
           for a, b, k in zip(i.tolist(), j.tolist(), ks.tolist())]
    # equals the scalar: a second route, through the Gram-Schmidt frame,
    # with R(f_i, f_j, f_i, f_j) = (F_ia F_ic) R_acbd (F_jb F_jd)
    frame = np.array(orthonormal_frame(g))
    gram = frame @ g @ frame.T
    pairs = (frame[:, :, None] * frame[:, None, :]).reshape(n, n * n)
    num = pairs @ rl.transpose(0, 2, 1, 3).reshape(n * n, n * n) @ pairs.T
    diag = np.diag(gram)
    off = ~np.eye(n, dtype=bool)
    sec_sum = float(np.sum(_plane_ratio(
        num[off], (np.outer(diag, diag) - gram * gram)[off])))
    return CurvatureReport(
        theta=theta, christoffel=gam, riemann=rm, riemann_lowered=rl,
        ricci=ric, scalar=scal, sectional=sec, sectional_sum=sec_sum,
        weyl_max_abs=_weyl(g, rl, scal),
        metric_compat_residual=_compat_residual(g, metric.jet(theta)[1],
                                                gam))


def rescaled_chart(metric: MetricField, scale) -> MetricField:
    """Pullback of the metric under theta' = diag(scale) theta.

    Every index of g and of its derivatives picks up one factor 1/scale, so
    the jets follow from the base metric's by the chain rule.  So does the
    connection: Gamma'^a_bc(theta') = Gamma^a_bc(theta' / scale) scale_a /
    (scale_b scale_c), and each derivative adds one factor 1/scale.  It
    carries no exact box volume, so that the chart-invariance checks of
    statistical volumes compare two independent computations.  The chart
    floor stays where the base chart sets it: a point is in the rescaled
    chart exactly when its base point theta' / scale, formed as the metric
    forms it, is in the base chart.  Each factor is the base's, rescaled.
    """
    scale = np.asarray(scale, float)
    inv = 1.0 / scale
    # outer product of k copies of 1/scale, for g (k = 2), dg (3), d2g (4)
    factor = {k: reduce(np.multiply.outer, [inv] * k) for k in (2, 3, 4)}

    def mat(thp):
        return metric.eval(np.asarray(thp, float) * inv) * factor[2]

    def jet(thp, order=1):
        return tuple(part * factor[part.ndim]
                     for part in metric.jet(thp * inv, order))

    # scale_a (1/scale_b 1/scale_c), with the (b, c) product formed first so
    # that the pulled-back Gamma stays exactly symmetric
    gam_factor = scale[:, None, None] * factor[2]
    dgam_factor = np.multiply.outer(inv, gam_factor)

    def connection(thp, order=1):
        if order == 1:
            return metric.connection(thp * inv) * gam_factor
        gam, dgam = metric.connection(thp * inv, order)
        return gam * gam_factor, dgam * dgam_factor

    return MetricField(metric.dim, mat, jet_fn=jet, connection_fn=connection,
                       source=metric.source, scale_coords=metric.scale_coords,
                       factors=[(c, lambda c=c: rescaled_chart(
                           metric.block_metric(c), scale[list(c)]))
                           for c in metric.blocks],
                       floor_margin_fn=lambda thp: metric.floor_margin(
                           thp * inv))
