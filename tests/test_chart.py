"""The chart rule: a point is in the chart when every scale coordinate is at
or above the floor ``models._CHART_FLOOR``.  The curvature kernel raises
DegenerateMetricError and the flows raise ChartBoundaryError exactly for
points below it, over every family with scale coordinates.  A rescaled
chart keeps the floor of its base chart: its chart test and its flows read
the floor at the base point."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from igac import dynamics as dyn
from igac import geometry as geo
from igac import models as md
from igac.errors import ChartBoundaryError, DegenerateMetricError

from conftest import factor, macro_corr, means

FLOOR = md._CHART_FLOOR

# spreads on both sides of the floor: the floor itself and its lower
# neighbour, zero and the mirrored chart, and log-uniform draws
below = st.one_of(st.just(np.nextafter(FLOOR, 0.0)), st.just(0.0),
                  st.floats(-12.0, -8.0, exclude_max=True)
                  .map(lambda e: 10.0 ** e),
                  st.floats(-2.0, 0.0, exclude_max=True))
at_or_above = st.one_of(st.just(FLOOR),
                        st.floats(-8.0, np.log10(5.0))
                        .map(lambda e: 10.0 ** e))
near_floor = st.one_of(below, at_or_above)


@st.composite
def scale_metric(draw):
    """(metric, point) over every family with scale coordinates, the
    spreads drawn around the floor."""
    family = draw(st.sampled_from(["fisher", "product", "macro",
                                   "quadrature"]))
    if family == "macro":
        rs = draw(st.lists(macro_corr, min_size=1, max_size=3))
        point = [x for _ in rs for x in (draw(means), draw(near_floor))]
        return md.macro_correlated_metric(rs), np.array(point)
    parts = draw(st.lists(factor(near_floor), min_size=1,
                          max_size=1 if family == "fisher" else 3))
    model = md.product(*[m for m, _ in parts])
    build = md.fisher_quadrature if family == "quadrature" \
        else md.analytic_fisher
    return build(model), np.array([x for _, p in parts for x in p])


@st.composite
def flow_case(draw):
    """(metric, start, velocity) with the velocity scaled by the spreads and
    raising every spread, so that over a short span an in-chart start
    stays in the chart."""
    metric, point = draw(scale_metric())
    spreads = list(metric.scale_coords)
    v = np.abs(point[spreads]).min() * np.array(
        [draw(st.floats(-1.0, 1.0)) for _ in range(metric.dim)])
    v[spreads] = np.abs(point[spreads]) * np.array(
        [draw(st.floats(0.5, 1.0)) for _ in spreads])
    return metric, point, v


def _below_floor(metric, point):
    return bool(np.any(point[list(metric.scale_coords)] < FLOOR))


PAIR = md.analytic_fisher(md.gaussian_diag([0.0], [1.0]))
AT_FLOOR = np.array([0.0, FLOOR])
JUST_BELOW = np.array([0.0, np.nextafter(FLOOR, 0.0)])


@settings(max_examples=60)
@example((PAIR, AT_FLOOR))
@example((PAIR, JUST_BELOW))
@given(scale_metric())
def test_curvature_kernel_rejects_exactly_below_floor(case):
    metric, point = case
    below_floor = _below_floor(metric, point)
    assert metric.in_chart(point) is not below_floor
    for fn in (geo.christoffel, geo.ricci_scalar, geo.curvature_report):
        if below_floor:
            with pytest.raises(DegenerateMetricError):
                fn(metric, point)
        else:
            fn(metric, point)


@settings(max_examples=40)
@example((PAIR, AT_FLOOR, np.array([1e-8, 5e-9])))      # rising off it
@example((PAIR, JUST_BELOW, np.array([1e-8, 5e-9])))
@given(flow_case())
def test_flows_reject_exactly_below_floor(case):
    metric, point, v = case
    below_floor = _below_floor(metric, point)
    spreads = list(metric.scale_coords)
    span = 0.02
    end = point + span * v
    end[spreads] = np.maximum(point[spreads], FLOOR) * (1.0 + span)

    flows = (
        lambda: dyn.integrate_geodesic(metric, point, v, span, n_out=3),
        lambda: dyn.integrate_jacobi(metric, point, v,
                                     np.linspace(0.0, span, 3),
                                     np.zeros(metric.dim), v),
        lambda: dyn.solve_geodesic_bvp(metric, point, end, span),
    )
    for flow in flows:
        if below_floor:
            with pytest.raises(ChartBoundaryError):
                flow()
        else:
            flow()


scale_factor = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


@st.composite
def rescaled_case(draw):
    """(base metric, scale factors, rescaled point), the spreads of the
    base point drawn around the floor and mapped forward."""
    metric, point = draw(scale_metric())
    scale = np.array([draw(scale_factor) for _ in range(metric.dim)])
    return metric, scale, point * scale


@settings(max_examples=80)
@example((PAIR, np.array([1.0, 0.1]), np.array([0.0, 5e-9])))
@example((PAIR, np.array([1.0, 3.0]), AT_FLOOR * 3.0))
@example((PAIR, np.array([1.0, 0.7]), JUST_BELOW * 0.7))
@given(rescaled_case())
def test_rescaled_in_chart_commutes_with_chart_map(case):
    metric, scale, thp = case
    rescaled = geo.rescaled_chart(metric, scale)
    assert rescaled.in_chart(thp) is metric.in_chart(thp * (1.0 / scale))


@pytest.mark.parametrize("s", [1e-3, 0.1, 10.0, 1e3])
def test_rescaled_flow_stops_at_image_of_floor(s):
    # the vertical geodesic sigma0 e^(-tau) of the half plane reaches the
    # base floor at tau = ln 10; the rescaled spread is FLOOR * s there.
    # The crossing time holds at every s only if the absolute tolerance
    # follows the size of the state.
    scaled = geo.rescaled_chart(PAIR, [1.0, s])
    with pytest.raises(ChartBoundaryError) as err:
        dyn.integrate_geodesic(scaled, [0.0, 1e-7 * s], [0.0, -1e-7 * s],
                               5.0)
    tau, theta, _ = err.value.last_state
    assert theta[1] == pytest.approx(FLOOR * s, rel=1e-6)
    assert tau == pytest.approx(np.log(10.0), rel=1e-6)
