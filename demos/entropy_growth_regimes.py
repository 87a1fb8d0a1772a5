"""How entropy growth separates regular from chaotic statistics.

Three stories: the uncorrelated Gaussian model whose entropy slope counts
degrees of freedom, the level-spacing manifolds whose growth form
(logarithmic vs linear) classifies the regime, and the inverted-oscillator
ensemble whose slope is set by the summed frequencies.

Run:  python demos/entropy_growth_regimes.py
"""

from igac import scenarios as sc


def show(report):
    print(f"scenario: {report.scenario}   ->  "
          f"{'all checks pass' if report.passed else 'CHECK FAILURES'}")
    for c in report.checks:
        mark = "ok " if c.passed else "XX "
        print(f"  {mark}{c.name:38s} {c.value:+12.6g}  vs  {c.oracle:+10.6g}"
              f"  (tol {c.tol:g}, {c.mode})")
    for key in ("ige_linear_slope", "ige_slope_doubled", "growth_form",
                "r2_margin", "c_ig", "k_ig", "igc_growth_rate"):
        if key in report.observables:
            print(f"     {key} = {report.observables[key]}")
    print()


print("== entropy slope counts the Gaussian degrees of freedom ==========")
show(sc.run_uncorrelated_gaussian(sc.PairsConfig(1)))

print("== macro-correlations: same growth, curved differently ===========")
rep = sc.run_macro_correlated(sc.PairsConfig(1, [0.5], tau_end=12.0))
show(rep)
print("   kernel curvature  :", rep.observables["ricci_scalar_kernel"])
print("   reference formula :",
      rep.observables["ricci_scalar_reference_form"])
print("   (reported side by side; they agree only as r -> 0)\n")

print("== level statistics: regular (log) vs chaotic (linear) ===========")
show(sc.run_spin_chain(sc.SpinChainConfig("regular")))
show(sc.run_spin_chain(sc.SpinChainConfig("chaotic")))

print("== inverted oscillators: slope proportional to Omega ==============")
show(sc.run_iho(sc.IHOConfig(2, omega=(0.5, 1.5), xi=1.0)))
# odd l: the volume density (1 + sum w^2 x^2 / 2)^(3/2) is not a polynomial
show(sc.run_iho(sc.IHOConfig(3, omega_total=2.0)))
