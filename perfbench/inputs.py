"""Seeded inputs for the four benchmark workloads.

A workload is an endless stream of rounds.  A round is a fixed mix of
operations whose parameters are drawn from the workload seed, so every round
costs about the same and a run that measures whole rounds is steady across
seeds.  Wave-packet and MrE draws come from scrambled Sobol' sequences,
which cover the sampled box evenly in every block of 2^k points; IHO pairs
are stratified by the frequency ratio that sets their cost; the remaining
parameters come from a seeded numpy Generator.

Inputs lie inside each command's documented domain:

* ``wavepacket``: r and the three r_sweep values lie strictly below the
  prolongation regime bound 2 / eta, eta = exp(2 asinh(p0 / (sqrt(2) sigma0)))
  / 2.
* ``iho``: two frequencies in [0.3, 2].
* ``manifold``: spreads in [0.5, 2], and along every drawn geodesic span a
  spread never falls below its proven lower bound ``min_spread`` (far above
  the 1e-8 chart floor).
* ``mre``: (mean, second moment) targets strictly inside the moment cone of
  the prior's support.

This module does not import igac: the inputs do not depend on the program
under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import qmc

WORKLOADS = ("wavepacket", "iho", "manifold", "mre")

CHART_FLOOR = 1e-8

# wave-packet scenario constants (the demo configuration); only r and the
# r_sweep are drawn
WAVEPACKET = {"p0": 1.0, "sigma0": 0.1, "tau0": 1.0, "R0": 10.0, "L": 0.1,
              "mu_mass": 0.5}
OMEGA_RANGE = (0.3, 2.0)
MRE_DRAWS_PER_PRIOR = 64
MRE_PRIORS = {
    "gaussian": {"family": "gaussian", "mu": 0.0, "sigma": 1.0},
    "exponential": {"family": "exponential", "mu": 1.0},
    "uniform": {"family": "uniform", "lo": -1.0, "hi": 1.0},
}
BVP_TOL = 1e-8


def wavepacket_r_bound() -> float:
    """Prolongation regime bound 2 / eta on the post-collision correlation."""
    a0 = math.asinh(WAVEPACKET["p0"] / (math.sqrt(2.0) * WAVEPACKET["sigma0"])) \
        / WAVEPACKET["tau0"]
    return 2.0 / (0.5 * math.exp(2.0 * a0 * WAVEPACKET["tau0"]))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _sobol(dim: int, seed: int, stream: int) -> qmc.Sobol:
    return qmc.Sobol(dim, scramble=True, seed=_rng(seed, stream))


# ---------------------------------------------------------------------------
# wavepacket: one full scenario run per round
# ---------------------------------------------------------------------------

def _wavepacket_rounds(seed: int, stream: int):
    bound = wavepacket_r_bound()
    sobol = _sobol(4, seed, stream)
    while True:
        u = sobol.random(1)[0]
        # stay 5% inside (0, bound): r = 0 has no recoverable correlation
        r = bound * (0.05 + 0.9 * u[0])
        sweep = [bound * (0.05 + 0.9 * (k + u[k + 1]) / 3.0) for k in range(3)]
        params = dict(WAVEPACKET, r=float(r), r_sweep=[float(s) for s in sweep])
        yield [{
            "kind": "wavepacket",
            "command": "scenario",
            "config": {"scenario": "wavepacket", "parameters": params,
                       "numerics": {"ode_tol": 1e-10, "quad_tol": 1e-7}},
            "domain": {"r": params["r"], "r_sweep": params["r_sweep"],
                       "r_bound": bound},
        }]


# ---------------------------------------------------------------------------
# iho: l = 2 inverted oscillators, cost-balanced frequency pairs
# ---------------------------------------------------------------------------

RHO_MIN = OMEGA_RANGE[0] / OMEGA_RANGE[1]


def iho_pair(rho: float, u: float, swap: bool) -> list:
    """Frequencies in OMEGA_RANGE with ratio min / max = rho; ``u`` places
    the larger one uniformly in its feasible range [0.3 / rho, 2]."""
    lo, hi = OMEGA_RANGE
    w_max = lo / rho + u * (hi - lo / rho)
    pair = [rho * w_max, w_max]
    return pair[::-1] if swap else pair


def _iho_rounds(seed: int, stream: int):
    # The tensor-grid node count grows about linearly with the ratio rho of
    # the two frequencies.  A round takes one rho from each half of
    # [rho_min, 1], with antithetic offsets (u, 1 - u), so every round does
    # about the same work.
    rng = _rng(seed, stream)
    width = (1.0 - RHO_MIN) / 2
    while True:
        u = rng.random()
        offsets = (u, 1.0 - u)
        ops = []
        for k, off in enumerate(offsets):
            omega = [float(w) for w in iho_pair(
                RHO_MIN + (k + off) * width, rng.random(), rng.random() < 0.5)]
            ops.append({
                "kind": "iho",
                "command": "scenario",
                "config": {"scenario": "iho",
                           "parameters": {"l": 2, "omega": omega, "xi": 1.0}},
                "domain": {"omega": omega},
            })
        yield ops


# ---------------------------------------------------------------------------
# manifold: curvature, geodesic, ige and BVP ops over six families
# ---------------------------------------------------------------------------

# Family shapes of dimension 2 to 8.  Each closed-form block has metric
# C / s^2 with s its spread; the entries give the exact Ricci scalar of the
# block as a function of its drawn parameters.
_SHAPES = ("pair", "bivariate", "spacings", "macro", "pairs3", "mixed8")
# the quadrature metric of the 8-D mixed shape costs seconds per curvature
# point, which would crowd every other op out of a round
_QUADRATURE_SHAPES = ("pair", "bivariate", "spacings", "pairs3")


def _gaussian(rng, l):
    return {"kind": "gaussian_diag",
            "means": [float(x) for x in rng.uniform(-1.0, 1.0, l)],
            "sigmas": [float(x) for x in rng.uniform(0.5, 2.0, l)]}


def _bivariate(rng):
    return {"kind": "gaussian_bivariate_corr",
            "mu_x": float(rng.uniform(-1.0, 1.0)),
            "mu_y": float(rng.uniform(-1.0, 1.0)),
            "sigma": float(rng.uniform(0.5, 2.0)),
            "r": float(rng.uniform(-0.8, 0.8))}


def _shape_spec(shape, rng):
    if shape == "pair":
        return _gaussian(rng, 1)
    if shape == "bivariate":
        return _bivariate(rng)
    if shape == "spacings":
        return {"kind": "product", "factors": [
            {"kind": "exponential", "mu": float(rng.uniform(0.5, 2.0))},
            {"kind": "wigner_dyson", "mu": float(rng.uniform(0.5, 2.0))},
            _gaussian(rng, 1)]}
    if shape == "macro":
        return {"kind": "macro_correlated",
                "r": [float(x) for x in rng.uniform(0.0, 0.8, 2)]}
    if shape == "pairs3":
        return _gaussian(rng, 3)
    if shape == "mixed8":
        return {"kind": "product", "factors": [
            _bivariate(rng),
            {"kind": "exponential", "mu": float(rng.uniform(0.5, 2.0))},
            _gaussian(rng, 2)]}
    raise ValueError(shape)


def blocks(spec, rng=None):
    """Closed-form blocks of a manifold spec in chart order.

    Each block is (C, spread index within the block, Ricci scalar, start
    point).  Macro-correlated pairs have no micro model, so their start
    point is drawn here from ``rng``.
    """
    kind = spec["kind"]
    if kind == "gaussian_diag":
        return [(np.diag([1.0, 2.0]), 1, -1.0, [m, s])
                for m, s in zip(spec["means"], spec["sigmas"])]
    if kind == "exponential":
        return [(np.array([[1.0]]), 0, 0.0, [spec["mu"]])]
    if kind == "wigner_dyson":
        return [(np.array([[4.0]]), 0, 0.0, [spec["mu"]])]
    if kind == "gaussian_bivariate_corr":
        r = spec["r"]
        a = 1.0 / (1.0 - r * r)
        c = np.array([[a, -r * a, 0.0], [-r * a, a, 0.0], [0.0, 0.0, 4.0]])
        return [(c, 2, -1.5, [spec["mu_x"], spec["mu_y"], spec["sigma"]])]
    if kind == "macro_correlated":
        # (d mu + r d s)^2 + (2 - r^2) d s^2 over s^2 is a hyperbolic plane
        # of curvature -1 / (2 - r^2)
        out = []
        for r in spec["r"]:
            start = [0.0, 1.0] if rng is None else \
                [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0))]
            out.append((np.array([[1.0, r], [r, 2.0]]), 1,
                        -2.0 / (2.0 - r * r), start))
        return out
    if kind == "product":
        return [b for f in spec["factors"] for b in blocks(f, rng)]
    raise ValueError(kind)


def ricci_scalar(spec) -> float:
    """Exact scalar curvature: the sum over the closed-form blocks."""
    return float(sum(b[2] for b in blocks(spec)))


def _unit_velocity(rng, blk):
    """Random velocity of unit metric speed at the start point, and the
    speed^2 carried by each block."""
    raw = [rng.normal(size=len(b[3])) for b in blk]
    e = [float(v @ b[0] @ v) / b[3][b[1]] ** 2 for v, b in zip(raw, blk)]
    scale = math.sqrt(1.0 / sum(e))
    return [v * scale for v in raw], [x * scale ** 2 for x in e]


def min_spread_bound(blk, energies, tau_end) -> float:
    """Lower bound on every spread along a geodesic of length tau_end.

    Product geodesics split into block geodesics of constant block speed E;
    with g = C / s^2, |d ln s / d tau| <= sqrt(E / lambda_min(C)).
    """
    worst = math.inf
    for b, e in zip(blk, energies):
        lam = float(np.linalg.eigvalsh(b[0])[0])
        worst = min(worst, b[3][b[1]]
                    * math.exp(-tau_end * math.sqrt(e / lam)))
    return worst


def _manifold_ops(rng):
    ops = []
    for shape in _SHAPES:
        for kind in ("curvature", "curvature_quadrature", "geodesic", "ige",
                     "bvp"):
            if kind == "curvature_quadrature" and \
                    shape not in _QUADRATURE_SHAPES:
                continue
            spec = _shape_spec(shape, rng)
            blk = blocks(spec, rng)
            theta = [float(x) for b in blk for x in b[3]]
            op = {"kind": f"{kind}/{shape}", "dim": len(theta)}
            if kind.startswith("curvature"):
                cfg = {"manifold": spec, "theta": theta}
                if kind == "curvature_quadrature":
                    cfg["metric_source"] = "quadrature"
                op.update(command="curvature", config=cfg,
                          expect={"ricci_scalar": ricci_scalar(spec),
                                  "rel_tol": 1e-4 if "quadrature" in kind
                                  else 1e-6})
            elif kind in ("geodesic", "ige"):
                vel, energies = _unit_velocity(rng, blk)
                tau_end = float(rng.uniform(2.0, 6.0) if kind == "geodesic"
                                else rng.uniform(4.0, 8.0))
                cfg = {"manifold": spec, "theta0": theta,
                       "v0": [float(x) for v in vel for x in v],
                       "tau_end": tau_end}
                if kind == "ige":
                    cfg["fit_form"] = "linear"
                op.update(command=kind, config=cfg, domain={
                    "min_spread": min_spread_bound(blk, energies, tau_end)})
            else:
                # on every block the spread along a geodesic arc is lowest
                # at an endpoint (hyperbolic arcs are concave in the spread)
                final, spreads = [], []
                for b in blk:
                    pt = np.array(b[3]) + rng.uniform(-0.5, 0.5, len(b[3]))
                    pt[b[1]] = b[3][b[1]] * math.exp(rng.uniform(-0.5, 0.5))
                    final.extend(float(x) for x in pt)
                    spreads += [b[3][b[1]], float(pt[b[1]])]
                op.update(command=None, bvp={
                    "manifold": spec, "theta_init": theta,
                    "theta_final": final, "tau_span": 1.0, "tol": BVP_TOL},
                    domain={"min_spread": min(spreads)})
            ops.append(op)
    return ops


def _manifold_rounds(seed: int, stream: int):
    rng = _rng(seed, stream)
    while True:
        yield _manifold_ops(rng)


# ---------------------------------------------------------------------------
# mre: two-moment updates with targets inside the moment cone
# ---------------------------------------------------------------------------

def mre_target(family: str, u) -> tuple:
    """(mean, second moment) inside the moment cone, from u in [0, 1)^2."""
    if family == "gaussian":        # N(0, 1) prior on the full line
        mean = -2.0 + 4.0 * u[0]
        var = 0.1 * 40.0 ** u[1]
    elif family == "exponential":   # Exp(1) prior on the half line
        mean = 0.2 * 15.0 ** u[0]
        var = (0.1 * 20.0 ** u[1]) * mean ** 2
    else:                           # Uniform(-1, 1): Bhatia-Davis bound
        mean = -0.9 + 1.8 * u[0]
        var = (0.05 + 0.9 * u[1]) * (1.0 - mean) * (mean + 1.0)
    return float(mean), float(var + mean * mean)


def _mre_rounds(seed: int, stream: int):
    samplers = {fam: _sobol(2, seed, stream * 8 + i)
                for i, fam in enumerate(MRE_PRIORS)}
    while True:
        ops = []
        for fam, sampler in samplers.items():
            for u in sampler.random(MRE_DRAWS_PER_PRIOR):
                mean, second = mre_target(fam, u)
                ops.append({
                    "kind": f"mre/{fam}",
                    "command": "mre",
                    "config": {"mre": {
                        "prior": dict(MRE_PRIORS[fam]),
                        "constraints": [{"f": "identity", "target": mean},
                                        {"f": "square", "target": second}]}},
                    "domain": {"family": fam, "mean": mean,
                               "second": second},
                })
        yield ops


_ROUNDS = {"wavepacket": _wavepacket_rounds, "iho": _iho_rounds,
           "manifold": _manifold_rounds, "mre": _mre_rounds}

# rounds in the traced run: a fixed count, so its counters repeat exactly
TRACE_ROUNDS = {"wavepacket": 1, "iho": 3, "manifold": 1, "mre": 2}

# reference seconds one round takes at the seed commit (perfbench/
# baseline.json); they turn --seconds into a fixed number of rounds
ROUND_REF_S = {"wavepacket": 4.9, "iho": 3.4, "manifold": 4.5, "mre": 0.7}


def measured_rounds(workload: str, seconds: float) -> int:
    """Rounds of a measured run: about ``seconds`` reference seconds of
    work at the seed commit, and the same count whatever the machine does,
    so a seed always yields the same ops and the same failures."""
    return max(1, round(seconds / ROUND_REF_S[workload]))


def rounds(workload: str, seed: int):
    """Endless iterator over the measured rounds of a workload."""
    return _ROUNDS[workload](seed, 1)


def warmup_op(workload: str) -> dict:
    """The untimed warm-up op, the same for every seed so that set-up time
    does not depend on the seed.

    On ``wavepacket`` it is a short ``igac jacobi`` run on the correlated
    wave-packet manifold, which loads the same geodesic and Jacobi paths as
    the scenario in a tenth of its time; on ``manifold`` an ``ige`` op, which
    runs the geodesic IVP, box volumes and fits.
    """
    if workload == "wavepacket":
        return {"kind": "jacobi", "command": "jacobi", "config": {
            "manifold": {"kind": "gaussian_bivariate_corr", "mu_x": 0.0,
                         "mu_y": 0.0, "sigma": 0.7362260859522326, "r": 0.5},
            "theta0": [0.0, 0.0, 0.7362260859522326],
            "v0": [-1.2932713892155, 1.2932713892155, 0.0],
            "tau_end": 1.0}}
    ops = next(_ROUNDS[workload](0, 2))
    return next(op for op in ops if op["kind"].startswith(
        "ige/" if workload == "manifold" else ""))
