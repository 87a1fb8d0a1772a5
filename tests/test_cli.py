"""Config validation, deterministic emission and exit-code contract."""

import inspect
import json
import threading
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.stats import norm

from igac import cli
from igac import errors
from igac import models as md
from igac import mre
from igac import scenarios as sc
from igac.errors import ConfigError, ParameterError


_PARSE = cli.parse_config


def _outcome(text, *args, **kwargs):
    """The config dict of parse_config's plan, or the field paths of its
    ConfigError."""
    try:
        return _PARSE(text, *args, **kwargs).config
    except ConfigError as exc:
        return [path for path, _ in exc.failures]


def _parse_pure(text, *args, **kwargs):
    """The same parse through cli's pure-Python loader."""
    loader, cli._LOADER = cli._LOADER, cli._PURE_LOADER
    try:
        return _outcome(text, *args, **kwargs)
    finally:
        cli._LOADER = loader


@pytest.fixture(autouse=True)
def loaders_agree(monkeypatch):
    """Every config this module parses gives the same result through the
    pure-Python loader as through the one cli uses."""
    def checked(text, *args, **kwargs):
        assert _outcome(text, *args, **kwargs) == \
            _parse_pure(text, *args, **kwargs)
        return _PARSE(text, *args, **kwargs)

    monkeypatch.setattr(cli, "parse_config", checked)


DEMO_CONFIGS = sorted((Path(__file__).parents[1] / "demos/configs")
                      .glob("*.yaml"))


@pytest.mark.parametrize("config", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_loads_alike_through_either_loader(config):
    command = config.stem if config.stem in cli._COMMANDS else "scenario"
    cfg = _outcome(config.read_text(), command)
    assert isinstance(cfg, dict)
    assert cfg == _parse_pure(config.read_text(), command)


@pytest.mark.skipif(not yaml.__with_libyaml__,
                    reason="PyYAML built without libyaml")
def test_configs_load_through_libyaml():
    assert issubclass(cli._LOADER, yaml.CSafeLoader)
    assert issubclass(cli._PURE_LOADER, yaml.SafeLoader)
    assert not issubclass(cli._PURE_LOADER, yaml.CSafeLoader)


@pytest.mark.parametrize("loader", ["_LOADER", "_PURE_LOADER"])
def test_yaml_numbers_resolve_as_yaml_1_2_floats(loader):
    # the exponent floats of YAML 1.2 are numbers; every other implicit
    # type keeps its YAML 1.1 rule, and PyYAML's own loaders are untouched
    cases = {"1e-3": 1e-3, "1e3": 1000.0, "1.0e3": 1000.0, "-1E+2": -100.0,
             ".5e3": 500.0, "1.0e+3": 1000.0, "1000": 1000, "0x1F": 31,
             "1_000": 1000, "yes": True, "no": False, "'1e3'": "1e3",
             "1e": "1e", "e3": "e3"}
    text = "".join(f"k{i}: {spelling}\n" for i, spelling in enumerate(cases))
    got = yaml.load(text + "inf: .inf\nnan: .nan\n",
                    Loader=getattr(cli, loader))
    assert [got[f"k{i}"] for i in range(len(cases))] == list(cases.values())
    assert all(type(got[f"k{i}"]) is type(want)
               for i, want in enumerate(cases.values()))
    assert got["inf"] == float("inf") and got["nan"] != got["nan"]
    assert yaml.load("a: 1e3\n", Loader=yaml.SafeLoader) == {"a": "1e3"}


def test_exponent_float_config_runs(tmp_path):
    cfg = tmp_path / "geo.yaml"
    cfg.write_text(GEO_CFG.replace("tau_end: 3.0", "tau_end: 3e0")
                   + f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.parse_config(cfg.read_text(), "geodesic").config[
        "tau_end"] == 3.0
    plan = cli.parse_config("scenario: iho\n"
                            "parameters: {l: 1, omega: [1.0], tau_end: 1e3}\n")
    assert plan.config["parameters"]["tau_end"] == plan.built.tau_end == 1e3
    assert cli.main(["geodesic", "--config", str(cfg)]) == 0


def test_invalid_yaml_exits_1_at_document(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("manifold: [1.0, 2.0\ntheta: [0.0]\n")
    assert cli.main(["curvature", "--config", str(cfg)]) == 1
    assert "config error at <document>: not valid YAML" in \
        capsys.readouterr().err


def test_top_level_list_exits_1_at_document(tmp_path, capsys):
    # no output line can follow a top-level sequence in valid YAML
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("[1, 2]\n")
    assert cli.main(["curvature", "--config", str(cfg)]) == 1
    assert "config error at <document>: top level must be a mapping" in \
        capsys.readouterr().err


def test_integer_past_the_digit_limit_exits_1_at_document(tmp_path,
                                                         capsys):
    # int() refuses a decimal string of more than 4300 digits by default;
    # without that limit the integer overflows float at its field instead
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("mre:\n  prior: {family: uniform}\n"
                   f"  constraints: [{{f: identity, target: {'1' * 5000}}}]\n")
    assert cli.main(["mre", "--config", str(cfg)]) == 1
    assert "config error at " in capsys.readouterr().err


GEO_CFG = """
manifold:
  kind: gaussian_diag
  means: [0.0]
  sigmas: [1.0]
theta0: [0.0, 1.0]
v0: [1.4142135623730951, 0.0]
tau_end: 3.0
"""


def test_defaults_filled():
    cfg = cli.parse_config("scenario: uncorrelated_gaussian\n"
                           "parameters: {l: 1}\n").config
    assert "ode_tol" not in cfg["numerics"]
    assert cfg["numerics"]["fit_window_fraction"] == 0.25
    assert cfg["output"]["formats"] == ["json", "csv"]


def test_out_of_range_correlation_path():
    with pytest.raises(ConfigError) as err:
        cli.parse_config("scenario: wavepacket\nparameters: {r: 1.2}\n")
    assert any(path == "parameters.r" for path, _ in err.value.failures)


def test_missing_regime_path():
    with pytest.raises(ConfigError) as err:
        cli.parse_config("scenario: spin_chain\nparameters: {}\n")
    assert any(path == "parameters.regime" for path, _ in err.value.failures)


def test_unknown_scenario_and_multiple_failures():
    with pytest.raises(ConfigError) as err:
        cli.parse_config("scenario: warp\n"
                         "numerics: {fit_window_fraction: -1}\n")
    paths = {path for path, _ in err.value.failures}
    assert "scenario" in paths and "numerics.fit_window_fraction" in paths


def test_manifold_validation_paths():
    with pytest.raises(ConfigError) as err:
        cli.parse_config("manifold:\n  kind: exponential\n  mu: -2.0\n"
                         "theta: [1.0]\n", command="curvature")
    assert any(path == "manifold.mu" for path, _ in err.value.failures)


def test_cli_exit_codes(tmp_path):
    cfg = tmp_path / "geo.yaml"
    cfg.write_text(GEO_CFG + f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["geodesic", "--config", str(cfg)]) == 0
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: spin_chain\nparameters: {}\n")
    assert cli.main(["scenario", "--config", str(bad)]) == 1
    assert cli.main(["geodesic", "--config", str(tmp_path / "nope.yaml")]) \
        == 1


def test_numeric_failure_exit_code(tmp_path):
    # an over-tight artificial window makes classification inconclusive
    cfg = tmp_path / "spin.yaml"
    cfg.write_text("scenario: spin_chain\n"
                   "parameters: {regime: chaotic, tau_end: 3.0}\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    code = cli.main(["scenario", "--config", str(cfg)])
    assert code == 2


def test_csv_schema_and_determinism(tmp_path):
    cfg = tmp_path / "geo.yaml"
    cfg.write_text(GEO_CFG + f"output: {{directory: '{tmp_path}/a'}}\n")
    assert cli.main(["geodesic", "--config", str(cfg)]) == 0
    cfg2 = tmp_path / "geo2.yaml"
    cfg2.write_text(GEO_CFG + f"output: {{directory: '{tmp_path}/b'}}\n")
    assert cli.main(["geodesic", "--config", str(cfg2)]) == 0
    a = (tmp_path / "a" / "geodesic.csv").read_bytes()
    b = (tmp_path / "b" / "geodesic.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == "tau,theta_1,theta_2,speed"
    assert b"\r" not in a
    # 17 significant digits on a non-terminating value
    assert "1.9999999999999" in a.decode()


def test_csv_cells_are_17_significant_digits(tmp_path):
    vals = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 0.1,
            1.0 / 3.0, 1e22, 2 ** 53 + 1]
    path = tmp_path / "t.csv"
    cli.emit_csv(path, {"tau": vals, "theta": [[v, -v] for v in vals],
                        "speed": vals[::-1]})
    data = path.read_bytes()
    assert b"\r" not in data
    cells = [[format(float(x), ".17g") for x in row]
             for row in zip(vals, vals, [-v for v in vals], vals[::-1])]
    assert data.decode() == "tau,theta_1,theta_2,speed\n" + \
        "".join(",".join(row) + "\n" for row in cells)


JSON_FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e22])
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2 ** 200, 2 ** 200)
               | JSON_FLOATS | JSON_FLOATS.map(np.float64) | st.text())
# every key type json coerces to a string
JSON_KEYS = (st.text() | st.integers(-2 ** 70, 2 ** 70) | JSON_FLOATS
             | st.booleans() | st.none())


@settings(max_examples=300)
@given(obj=st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(JSON_KEYS, inner, max_size=5)
                   | st.lists(JSON_FLOATS, max_size=8)),
    max_leaves=40))
def test_json_writer_matches_indented_json_dumps(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2, allow_nan=True)


@pytest.mark.parametrize("obj", [np.int64(1), [np.bool_(True)],
                                 {"a": np.zeros(2)}, {(1, 2): 0}, {"a": {1}}])
def test_json_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        cli._dumps(obj)


def test_failure_list_on_stderr_is_indented_json(tmp_path, capsys):
    # omega_1 + omega_2 = 0.7 misses the entropy slope's doubling: exit 2
    cfg = tmp_path / "iho.yaml"
    cfg.write_text("scenario: iho\nparameters: {l: 2, omega: [0.3, 0.4]}\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["scenario", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    failures = [c for c in report["checks"] if not c["pass"]]
    assert failures
    assert err == json.dumps({"failures": failures}, indent=2) + "\n"


@pytest.mark.parametrize("config", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_report_has_the_indented_json_dumps_layout(tmp_path, config):
    command = config.stem if config.stem in cli._COMMANDS else "scenario"
    assert cli.main([command, "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    text = (tmp_path / "report.json").read_text()
    assert json.dumps(json.loads(text), indent=2, allow_nan=True) + "\n" \
        == text


def test_constant_geodesic_has_zero_speed_drift(tmp_path):
    # a zero start velocity stays at theta0 with speed 0: no drift, and no
    # 0/0 on the way to it
    cfg = tmp_path / "geo.yaml"
    cfg.write_text(GEO_CFG.replace("v0: [1.4142135623730951, 0.0]",
                                   "v0: [0.0, 0.0]")
                   + f"output: {{directory: '{tmp_path}/out'}}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["geodesic", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    check, = (c for c in report["checks"] if c["name"] == "speed_drift")
    assert check["value"] == 0.0 and check["pass"]


def test_ige_command_emits_full_columns(tmp_path):
    cfg = tmp_path / "ige.yaml"
    cfg.write_text(
        "manifold: {kind: gaussian_bivariate_corr, mu_x: 0.0, mu_y: 0.0,"
        " sigma: 0.736, r: 0.5}\n"
        "theta0: [0.0, 0.0, 0.736]\n"
        "v0: [-1.29, 1.29, 0.0]\n"
        "tau_end: 4.0\n"
        "n_out: 65\n"
        f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["ige", "--config", str(cfg)]) == 0
    csv = (tmp_path / "out" / "ige.csv").read_text()
    header = csv.splitlines()[0]
    assert header == "tau,theta_1,theta_2,theta_3,speed,delta_v,igc,ige"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["observables"]["fit"]["form"] == "linear"


def test_jacobi_command(tmp_path):
    cfg = tmp_path / "jac.yaml"
    cfg.write_text(GEO_CFG + f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["jacobi", "--config", str(cfg)]) == 0
    csv = (tmp_path / "out" / "jacobi.csv").read_text()
    assert csv.splitlines()[0] == "tau,theta_1,theta_2,speed,jacobi_intensity"


def test_jacobi_default_dj0_skips_axis_parallel_to_v0(tmp_path):
    # v0 along coordinate axis 1 leaves no residual there; axis 0 is used
    cfg = tmp_path / "jac.yaml"
    cfg.write_text("manifold: {kind: gaussian_diag, means: [0.0], "
                   "sigmas: [1.0]}\n"
                   "theta0: [0.0, 1.0]\nv0: [0.0, 1.0]\ntau_end: 2.0\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["jacobi", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["inputs"]["dj0"] == pytest.approx([1.0, 0.0])


@pytest.mark.parametrize("manifold,theta0,v0", [
    ("{kind: exponential, mu: 1.0}", "[1.0]", "[0.5]"),
    ("{kind: gaussian_diag, means: [0.0], sigmas: [1.0]}", "[0.0, 1.0]",
     "[0.0, 0.0]"),
])
def test_jacobi_without_normal_direction_exits_2(tmp_path, capsys, manifold,
                                                 theta0, v0):
    cfg = tmp_path / "jac.yaml"
    cfg.write_text(f"manifold: {manifold}\ntheta0: {theta0}\nv0: {v0}\n"
                   f"tau_end: 2.0\noutput: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["jacobi", "--config", str(cfg)]) == 2
    assert "DegeneratePlaneError" in capsys.readouterr().err


def test_jacobi_carrier_leaving_chart_exits_2(tmp_path, capsys):
    # the spread falls as e^(-3 tau) and crosses the chart floor near
    # tau = 6; the Jacobi carrier stops there, as a geodesic solve would
    cfg = tmp_path / "jac.yaml"
    cfg.write_text(f"manifold: {DIAG_2D}\ntheta0: [0.0, 1.0]\n"
                   "v0: [0.0, -3.0]\ntau_end: 20\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["jacobi", "--config", str(cfg)]) == 2
    assert "ChartBoundaryError" in capsys.readouterr().err


def _run_jacobi(tmp_path, name, j0, dj0):
    """The exit code of the demo ``gaussian_diag`` Jacobi run from (j0,
    dj0) into ``tmp_path / name``, every warning raised as an error."""
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(f"manifold: {DIAG_2D}\ntheta0: [0.0, 1.0]\n"
                   f"v0: [1.0, 0.5]\nj0: {j0}\ndj0: {dj0}\ntau_end: 6.0\n"
                   f"output: {{directory: '{tmp_path}/{name}'}}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli.main(["jacobi", "--config", str(cfg)])


def _jacobi_observables(tmp_path, name, j0, dj0):
    assert _run_jacobi(tmp_path, name, j0, dj0) == 0
    report = json.loads((tmp_path / name / "report.json").read_text())
    return report["observables"]


@pytest.mark.parametrize("j0,dj0", [("[1.0e+200, 0.0]", "[0.0, 1.0]"),
                                    ("[1.0e+300, 0.0]", "[0.0, 1.0]"),
                                    ("[1.0e+152, 0.0]", "[1.0e+152, 0.0]"),
                                    ("[0.0, 1.0e+300]", "[0.0, 1.0]")])
def test_jacobi_field_within_the_float_range_exits_0(tmp_path, j0, dj0):
    # squares of these fields leave the float range, the fields do not; the
    # field is linear in (j0, dj0), so the run from both scaled by 2^-600
    # has the same rate and 2^-600 times the intensity
    _assert_jacobi_scales(tmp_path, j0, dj0, -600)


@pytest.mark.parametrize("j0,dj0", [("[1.0e-10, 0.0]", "[0.0, 1.0e+150]"),
                                    ("[1.0e-90, 0.0]", "[0.0, 1.0e+80]")])
def test_jacobi_field_spanning_the_float_range_exits_0(tmp_path, j0, dj0):
    # rows of these fields differ by more than 1e154 and the ratio of the
    # sums of squares overflows; DJ0 is g-orthogonal to J0, so the start's
    # sum is |J0|^2 alone and lambda is above 100 (about 124 and 132)
    assert _assert_jacobi_scales(tmp_path, j0, dj0, -300) > 100.0


def test_jacobi_start_far_below_its_rate_exits_0(tmp_path):
    # J0 lies more than 2^1074 below DJ0, so it flows as 0 in its scaled
    # column; the rate still reads the start (J0, DJ0), and J0 = 0 keeps
    # its own rate
    tiny = _jacobi_observables(tmp_path, "tiny", "[1.0e-200, 0.0]",
                               "[0.0, 1.0e+200]")
    assert tiny["lyapunov_estimate"] == pytest.approx(308.70159439600036,
                                                      rel=1e-12)
    zero = _jacobi_observables(tmp_path, "zero", "[0.0, 0.0]",
                               "[0.0, 1.0e+200]")
    assert zero["lyapunov_estimate"] == 1.5747241333676099


def _assert_jacobi_scales(tmp_path, j0, dj0, exp):
    """The run from (j0, dj0) has the rate of the run from both scaled by
    2^exp and 2^-exp times its final intensity; returns the rate."""
    big = _jacobi_observables(tmp_path, "big", j0, dj0)
    small = _jacobi_observables(tmp_path, "small", *(
        "[" + ", ".join(f"{v * 2.0 ** exp:.17e}" for v in yaml.safe_load(b))
        + "]" for b in (j0, dj0)))
    assert big["lyapunov_estimate"] == pytest.approx(
        small["lyapunov_estimate"], rel=1e-12)
    assert big["final_intensity"] == pytest.approx(
        small["final_intensity"] * 2.0 ** -exp, rel=1e-12)
    return big["lyapunov_estimate"]


@pytest.mark.parametrize("j0,dj0", [("[1.7e+308, 1.7e+308]", "[0.0, 1.0]")])
def test_jacobi_intensity_beyond_the_float_range_exits_2(tmp_path, capsys,
                                                         j0, dj0):
    # Gamma(J, v0) is taken on the column scaled to unit size, so only the
    # field itself leaves the float range; no warning escapes
    assert _run_jacobi(tmp_path, "out", j0, dj0) == 2
    assert "UndefinedRateError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["geodesic", "jacobi"])
@pytest.mark.parametrize("theta0", ["[0.0, -1.0]", "[0.0, 0.0]",
                                    "[0.0, 5.0e-9]"],
                         ids=["mirrored", "zero", "below-floor"])
def test_start_outside_chart_exits_2(tmp_path, capsys, command, theta0):
    # one chart rule for both flows: a spread below the floor, or in the
    # mirrored chart, is rejected before any step is taken
    cfg = tmp_path / "flow.yaml"
    cfg.write_text(f"manifold: {DIAG_2D}\ntheta0: {theta0}\n"
                   "v0: [1.0, 0.0]\ntau_end: 2.0\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main([command, "--config", str(cfg)]) == 2
    assert "ChartBoundaryError" in capsys.readouterr().err


def test_mre_command(tmp_path):
    cfg = tmp_path / "mre.yaml"
    cfg.write_text(
        "mre:\n"
        "  prior: {family: uniform, lo: -20.0, hi: 20.0}\n"
        "  constraints:\n"
        "    - {f: identity, target: 0.0}\n"
        "    - {f: square, target: 1.0}\n"
        f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["mre", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["observables"]["beta"][1] == pytest.approx(-0.5, abs=1e-9)


def test_mre_mean_alone_starts_at_zero(tmp_path):
    # one constraint has no Gaussian start, so Newton starts at beta = 0;
    # N(0, 1) e^(beta x) is N(beta, 1), so the mean 0.1 is beta
    cfg = tmp_path / "mre.yaml"
    cfg.write_text(mre_body("prior: {family: gaussian}")
                   + f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["mre", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["observables"]["beta"] == [pytest.approx(0.1, abs=1e-10)]


@pytest.mark.parametrize("prior,mean,second", [
    ("{family: gaussian}", 1.0, 0.5), ("{family: gaussian}", 1.0, 1.0),
    ("{family: uniform}", 0.5, 0.25)],
    ids=["gaussian-outside", "gaussian-on", "uniform-on"])
def test_mre_targets_off_the_moment_cone_exit_2(tmp_path, capsys, prior,
                                                 mean, second):
    # a second moment at or below the squared mean is named before Newton
    cfg = tmp_path / "mre.yaml"
    cfg.write_text(
        f"mre:\n  prior: {prior}\n  constraints:\n"
        f"    - {{f: identity, target: {mean}}}\n"
        f"    - {{f: square, target: {second}}}\n"
        f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["mre", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "InfeasibleConstraintError" in err
    assert "must exceed the squared mean" in err


def test_mre_demo_report_is_byte_identical(tmp_path):
    config = Path(__file__).parents[1] / "demos/configs/mre.yaml"
    for run in ("a", "b"):
        assert cli.main(["mre", "--config", str(config),
                         "--out", str(tmp_path / run)]) == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()


def test_mre_constraint_validation():
    with pytest.raises(ConfigError) as err:
        cli.parse_config(
            "mre:\n"
            "  prior: {family: uniform}\n"
            "  constraints:\n"
            "    - {f: cube, target: 1.0}\n"
            "    - {f: poly, target: 1.0}\n", command="mre")
    paths = {path for path, _ in err.value.failures}
    assert "mre.constraints[0].f" in paths
    assert "mre.constraints[1].coefficients" in paths


def test_scenario_report_json_roundtrip(tmp_path):
    cfg = tmp_path / "sc.yaml"
    cfg.write_text("scenario: iho\n"
                   "parameters: {l: 2, omega: [0.5, 1.5], xi: 1.0}\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["scenario", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["scenario"] == "iho"
    assert report["pass"] is True
    assert (tmp_path / "out" / "volume.csv").exists()
    # every check entry is self-describing
    for chk in report["checks"]:
        assert {"name", "value", "oracle", "tol", "mode", "source",
                "pass"} <= set(chk)


def test_iho_scenario_at_l4(tmp_path):
    cfg = tmp_path / "sc.yaml"
    cfg.write_text("scenario: iho\n"
                   "parameters: {l: 4, omega_total: 2.0}\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["scenario", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is True
    assert all(chk["pass"] for chk in report["checks"])


def test_iho_scenario_at_l3(tmp_path, monkeypatch):
    from igac import complexity as cx

    monkeypatch.setattr(cx, "integrate_box", lambda *a, **k: pytest.fail(
        "an odd-l oscillator volume went through quadrature"))
    cfg = tmp_path / "sc.yaml"
    cfg.write_text("scenario: iho\n"
                   "parameters: {l: 3, omega: [0.5, 1.0, 1.5]}\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["scenario", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is True
    assert all(chk["pass"] for chk in report["checks"])


def test_custom_manifold_scenario(tmp_path):
    cfg = tmp_path / "cm.yaml"
    cfg.write_text(
        "scenario: custom_manifold\n"
        "parameters:\n"
        "  manifold: {kind: product, factors: ["
        "{kind: wigner_dyson, mu: 1.0}, "
        "{kind: gaussian_diag, means: [0.0], sigmas: [1.0]}]}\n"
        "  theta: [1.0, 0.0, 1.0]\n"
        f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["scenario", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["observables"]["ricci_scalar"] == pytest.approx(-1.0,
                                                                  abs=1e-6)


def test_wavepacket_demo_starts_no_thread(tmp_path, monkeypatch):
    # the r sweeps run on the calling thread
    def refuse(thread):
        pytest.fail(f"{thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    config = next(c for c in DEMO_CONFIGS if c.stem == "wavepacket")
    assert cli.main(["scenario", "--config", str(config),
                     "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("config", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_runs_no_ode_solver(tmp_path, monkeypatch, config):
    # every flow of the demos is closed form, and run_iho evaluates its
    # Newtonian propagator: no ODE tolerance has anything to control
    from igac import dynamics, scenarios

    for module in (dynamics, scenarios):
        monkeypatch.setattr(module, "solve_ivp",
                            lambda *a, _name=module.__name__, **k:
                            pytest.fail(f"{_name}.solve_ivp called"))
    command = config.stem if config.stem in cli._COMMANDS else "scenario"
    assert cli.main([command, "--config", str(config),
                     "--out", str(tmp_path)]) == 0


def _patch_default(monkeypatch, fn, name, value):
    """Give the parameter ``name`` of ``fn`` the default ``value``."""
    defaults = [value if p.name == name else p.default
                for p in inspect.signature(fn).parameters.values()
                if p.default is not p.empty]
    monkeypatch.setattr(fn, "__defaults__", tuple(defaults))


@pytest.mark.parametrize("body,driver,key,value", [
    ("scenario: wavepacket\n", "ScatterConfig", "r_sweep", (0.2, 0.4)),
    ("scenario: wavepacket\n", "ScatterConfig", "r", 0.015),
    ("scenario: iho\nparameters: {l: 2, omega: [0.5, 1.5]}\n", "IHOConfig",
     "xi", 1.25),
], ids=["wavepacket-r-sweep", "wavepacket-r", "iho-xi"])
def test_scenario_default_lives_in_the_driver(monkeypatch, body, driver, key,
                                              value):
    # a key the config leaves out takes the driver's default, whatever it is
    from igac import scenarios as sc

    fn = getattr(sc, driver)
    _patch_default(monkeypatch, fn.__init__ if isinstance(fn, type) else fn,
                   key, value)
    report = cli._run_named_scenario(*cli.parse_config(body))
    assert report.inputs[key] == (list(value) if key == "r_sweep"
                                  else value)


def test_scenario_defaults_forwarded_to_runners(tmp_path):
    # the dispatcher must defer tau_end to the runners' own defaults; the
    # gaussian scenario's slope checks need the long default horizon
    cfg = tmp_path / "ug.yaml"
    cfg.write_text("scenario: uncorrelated_gaussian\n"
                   "parameters: {l: 1}\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["scenario", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    by = {c["name"]: c for c in report["checks"]}
    assert by["ricci_scalar_analytic"]["pass"] is True
    assert abs(by["ricci_scalar_analytic"]["value"] + 1.0) < 1e-6
    assert report["pass"] is True


def test_format_restriction_csv_only(tmp_path):
    cfg = tmp_path / "geo.yaml"
    cfg.write_text(GEO_CFG + f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["geodesic", "--config", str(cfg), "--format", "csv"]) \
        == 0
    assert (tmp_path / "out" / "geodesic.csv").exists()
    assert not (tmp_path / "out" / "report.json").exists()


def test_curvature_on_macro_correlated_manifold(tmp_path):
    cfg = tmp_path / "mc.yaml"
    cfg.write_text("manifold: {kind: macro_correlated, r: [0.5]}\n"
                   "theta: [0.3, 1.2]\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["curvature", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["observables"]["ricci_scalar"] == pytest.approx(
        -2.0 / 1.75, abs=1e-8)


DIAG_2D = "{kind: gaussian_diag, means: [0.0], sigmas: [1.0]}"


def mre_body(prior_line):
    return f"mre:\n  {prior_line}\n" \
        "  constraints: [{f: identity, target: 0.1}]\n"


MRE_UNIFORM = mre_body("prior: {family: uniform}")

IGE_2D = f"manifold: {DIAG_2D}\ntheta0: [0.0, 1.0]\nv0: [1.0, 0.0]\n" \
    "tau_end: 2.0\n"


@pytest.mark.parametrize("command,body,field", [
    ("curvature", "manifold: {kind: gaussian_bivariate_corr, mu_x: 0.0, "
     "mu_y: 0.0, sigma: 1.0, r: abc}\ntheta: [0.0, 0.0, 1.0]\n",
     "manifold.r"),
    ("curvature", "manifold: {kind: gaussian_diag, means: [0.0], "
     "sigmas: [x]}\ntheta: [0.0, 1.0]\n", "manifold.sigmas"),
    ("curvature", f"manifold: {DIAG_2D}\ntheta: [0.0, 1.0]\nnumerics: 5\n",
     "numerics"),
    ("curvature", f"manifold: {DIAG_2D}\ntheta: [0.0, 1.0, 3.0]\n", "theta"),
    ("curvature", f"manifold: {DIAG_2D}\ntheta: [0.0]\n", "theta"),
    ("geodesic", f"manifold: {DIAG_2D}\ntheta0: [0.0, 1.0, 3.0]\n"
     "v0: [1.0, 0.0]\ntau_end: 1.0\n", "theta0"),
    ("geodesic", f"manifold: {DIAG_2D}\ntheta0: [0.0, 1.0]\n"
     "v0: [1.0, 0.0, 0.0]\ntau_end: 1.0\n", "v0"),
    ("jacobi", f"manifold: {DIAG_2D}\ntheta0: [0.0, 1.0]\nv0: [1.0, 0.0]\n"
     "tau_end: 1.0\ndj0: [0.0, 1.0, 0.0]\n", "dj0"),
    ("scenario", "scenario: custom_manifold\nparameters:\n"
     f"  manifold: {DIAG_2D}\n  theta: [0.0, 1.0, 2.0]\n",
     "parameters.theta"),
    ("scenario", "scenario: custom_manifold\nparameters:\n"
     f"  manifold: {DIAG_2D}\n  theta: null\n", "parameters.theta"),
    ("geodesic", f"manifold: {DIAG_2D}\ntheta0: [0.0, 1.0]\nv0: [1.0, 0.0]\n"
     "tau_end: abc\n", "tau_end"),
    ("curvature", "manifold: {kind: product, factors: []}\ntheta: []\n",
     "manifold"),
    ("mre", "mre:\n  prior: {family: uniform}\n"
     "  constraints: [{f: identity, target: abc}]\n",
     "mre.constraints[0].target"),
    ("scenario", "scenario: macro_correlated\nparameters: {l: 1, r: [abc]}\n",
     "parameters.r[0]"),
    ("curvature", f"manifold: {DIAG_2D}\ntheta: [0.0, 1.0]\n"
     "metric_source: quadratur\n", "metric_source"),
    ("mre", f"{MRE_UNIFORM}tol: abc\n", "tol"),
    ("mre", f"{MRE_UNIFORM}tol: -1\n", "tol"),
    ("ige", f"{IGE_2D}fit_form: cubic\n", "fit_form"),
    ("ige", f"{IGE_2D}n_out: abc\n", "n_out"),
    ("mre", mre_body("prior: {family: gaussian, sigma: -1.0}"),
     "mre.prior.sigma"),
    ("mre", mre_body("prior: {family: exponential, mu: abc}"),
     "mre.prior.mu"),
    ("mre", mre_body("prior: {family: gaussian}\n  domain: [0.5]"),
     "mre.domain"),
    ("mre", mre_body("prior: {family: uniform, lo: 1.0, hi: -1.0}"),
     "mre.prior.hi"),
    ("scenario", "scenario: mre_update\nparameters:\n"
     "  prior: {family: gaussian, sigma: -1.0}\n"
     "  constraints: [{f: identity, target: 0.1}]\n",
     "parameters.prior.sigma"),
    ("scenario", "scenario: iho\nparameters: {l: 2, omega_total: -1.0}\n",
     "parameters.omega_total"),
    ("scenario", "scenario: iho\nparameters: {l: 2, omega: [0.5, 0.0]}\n",
     "parameters.omega[1]"),
    ("scenario", "scenario: iho\nparameters: {l: 2, omega: [0.5]}\n",
     "parameters.omega"),
    ("scenario", "scenario: iho\nparameters: {l: 2, omega_total: 2.0, "
     "xi: 0.0}\n", "parameters.xi"),
    ("scenario", "scenario: iho\nparameters: {l: 2, omega_total: 2.0, "
     "tau_end: -5.0}\n", "parameters.tau_end"),
    ("scenario", "scenario: wavepacket\nparameters: {p0: -1.0}\n",
     "parameters.p0"),
    ("scenario", "scenario: wavepacket\nparameters: {sigma0: 0.0}\n",
     "parameters.sigma0"),
    ("scenario", "scenario: wavepacket\nparameters: {tau0: -1.0}\n",
     "parameters.tau0"),
    ("scenario", "scenario: wavepacket\nparameters: {R0: 0}\n",
     "parameters.R0"),
    ("scenario", "scenario: wavepacket\nparameters: {L: -0.1}\n",
     "parameters.L"),
    ("scenario", "scenario: wavepacket\nparameters: {mu_mass: 0.0}\n",
     "parameters.mu_mass"),
    ("scenario", "scenario: uncorrelated_gaussian\nparameters: {l: true}\n",
     "parameters.l"),
    ("scenario", "scenario: iho\nparameters: {l: true, omega_total: 2.0}\n",
     "parameters.l"),
    ("curvature", "manifold: {kind: exponential, mu: true}\ntheta: [1.0]\n",
     "manifold.mu"),
    ("scenario", "scenario: uncorrelated_gaussian\n"
     "parameters: {l: 1, theta0: [0.0, 1.0, 2.0]}\n", "parameters.theta0"),
    ("scenario", "scenario: macro_correlated\n"
     "parameters: {l: 1, r: 0.5, v0: [1.0]}\n", "parameters.v0"),
    ("scenario", "scenario: uncorrelated_gaussian\n"
     "parameters: {l: 1, v0: abc}\n", "parameters.v0"),
    ("scenario", "scenario: spin_chain\n"
     "parameters: {regime: chaotic, theta0: [1.0, 0.0]}\n",
     "parameters.theta0"),
    ("scenario", "scenario: uncorrelated_gaussian\n"
     "parameters: {l: 1, theta0: [0.0, -1.0]}\n", "parameters.theta0[1]"),
    ("scenario", "scenario: spin_chain\n"
     "parameters: {regime: regular, theta0: [-1.0, 1.0]}\n",
     "parameters.theta0[0]"),
    ("scenario", "scenario: uncorrelated_gaussian\n"
     "parameters: {l: 1, tau_end: abc}\n", "parameters.tau_end"),
    ("scenario", "scenario: uncorrelated_gaussian\n"
     "parameters: {l: 1, tau_end: -3.0}\n", "parameters.tau_end"),
    ("scenario", "scenario: macro_correlated\n"
     "parameters: {l: 2, r: [0.1, 0.2, 0.3]}\n", "parameters.r"),
    ("scenario", "scenario: wavepacket\nparameters: {r_sweep: []}\n",
     "parameters.r_sweep"),
    ("scenario", "scenario: wavepacket\nparameters: {r_sweep: 0.1}\n",
     "parameters.r_sweep"),
    ("scenario", "scenario: wavepacket\nparameters: {r_sweep: [abc]}\n",
     "parameters.r_sweep[0]"),
    ("scenario", "scenario: wavepacket\nparameters: {r_sweep: [-0.5]}\n",
     "parameters.r_sweep[0]"),
    ("mre", "mre:\n  prior: {family: gaussian}\n"
     "  constraints: [{f: poly, coefficients: 3, target: 0.1}]\n",
     "mre.constraints[0].coefficients"),
    ("mre", "mre:\n  prior: {family: gaussian}\n"
     "  constraints: [{f: poly, coefficients: [a], target: 0.1}]\n",
     "mre.constraints[0].coefficients"),
    ("scenario", "scenario: iho\nparameters: {l: 2, omega_total: 2.0, "
     "tau_end: 5.0}\n", "parameters.tau_end"),
    ("ige", IGE_2D.replace("tau_end: 2.0", "tau_end: -4.0"), "tau_end"),
    ("ige", IGE_2D.replace("tau_end: 2.0", "tau_end: 0.0"), "tau_end"),
    ("ige", f"{IGE_2D}numerics: {{fit_window_fraction: 1.5}}\n",
     "numerics.fit_window_fraction"),
    ("ige", f"{IGE_2D}numerics: {{fit_window_fraction: 1}}\n",
     "numerics.fit_window_fraction"),
    ("mre", mre_body("prior: {family: [uniform]}"), "mre.prior.family"),
    ("mre", mre_body("prior: {family: {uniform: 1}}"), "mre.prior.family"),
    ("scenario", "scenario: uncorrelated_gaussian\n"
     "parameters: {l: 1, theta0: [0.0, 1.0e-300]}\n", "parameters.theta0[1]"),
    ("curvature", "manifold: {kind: macro_correlated, r: [0.5]}\n"
     "theta: [0.0, 1.0]\nmetric_source: quadrature\n", "metric_source"),
    ("curvature", "manifold: {kind: product, factors: "
     "[{kind: macro_correlated, r: [0.5]}]}\ntheta: [0.0, 1.0]\n",
     "manifold.factors[0].kind"),
    ("curvature", "manifold: {kind: [exponential], mu: 1.0}\ntheta: [1.0]\n",
     "manifold.kind"),
    ("curvature", "manifold: {kind: gaussian_diag, means: [0.0, 1.0], "
     "sigmas: [1.0, -1.0]}\ntheta: [0.0, 1.0, 1.0, 1.0]\n",
     "manifold.sigmas[1]"),
    ("curvature", "manifold: {kind: product, factors: [{kind: exponential, "
     "mu: 1.0}, {kind: wigner_dyson, mu: 0}]}\ntheta: [1.0, 1.0]\n",
     "manifold.factors[1].mu"),
    ("mre", mre_body("prior: {family: uniform, lo: 1.0, hi: 1.0}"),
     "mre.prior.hi"),
    ("mre", mre_body("prior: {family: gaussian}\n  domain: [1.0, 0.0]"),
     "mre.domain"),
    ("ige", f"{IGE_2D}fit_form: [linear]\n", "fit_form"),
    ("ige", f"{IGE_2D}n_out: 1\n", "n_out"),
    ("ige", f"{IGE_2D}n_out: 2.5\n", "n_out"),
    # a sound key's range failure is listed beside another key's failure
    ("scenario", "scenario: iho\nparameters: {l: 2, omega: [x, 1.0], "
     "tau_end: 5.0}\n", "parameters.tau_end"),
    # a section that is no mapping, and a constraint that is none
    ("scenario", "scenario: iho\nparameters: [1, 2]\n", "parameters"),
    ("curvature", "manifold: [gaussian_diag]\ntheta: [1.0]\n", "manifold"),
    ("mre", "mre: [1, 2]\n", "mre"),
    ("mre", "mre:\n  prior: {family: gaussian}\n  constraints: [5]\n",
     "mre.constraints[0]"),
], ids=["r-text", "sigma-text", "numerics-scalar", "theta-long",
        "theta-short", "theta0-long", "v0-long", "dj0-long",
        "custom-theta-long", "custom-theta-null", "tau-end-text",
        "no-coordinates", "target-text", "macro-r-text",
        "metric-source-typo", "mre-tol-text",
        "mre-tol-negative", "ige-fit-form-unknown", "ige-n-out-text",
        "mre-sigma-negative", "mre-mu-text", "mre-domain-short",
        "mre-uniform-reversed", "mre-update-sigma-negative",
        "iho-omega-total-negative", "iho-omega-zero", "iho-omega-short",
        "iho-xi-zero", "iho-tau-end-negative", "wavepacket-p0-negative",
        "wavepacket-sigma0-zero", "wavepacket-tau0-negative",
        "wavepacket-R0-zero", "wavepacket-L-negative",
        "wavepacket-mu-mass-zero", "gaussian-l-bool", "iho-l-bool",
        "exponential-mu-bool", "gaussian-theta0-long", "macro-v0-short",
        "gaussian-v0-text", "chaotic-theta0-short",
        "gaussian-theta0-spread-negative", "regular-theta0-rate-negative",
        "gaussian-tau-end-text", "gaussian-tau-end-negative",
        "macro-r-count", "wavepacket-r-sweep-empty",
        "wavepacket-r-sweep-scalar", "wavepacket-r-sweep-text",
        "wavepacket-r-sweep-negative", "mre-poly-coefficients-scalar",
        "mre-poly-coefficients-text", "iho-tau-end-short",
        "ige-tau-end-negative", "ige-tau-end-zero",
        "ige-fit-window-fraction-above-1", "ige-fit-window-fraction-1",
        "mre-prior-family-list", "mre-prior-family-mapping",
        "gaussian-theta0-spread-below-chart-floor",
        "macro-metric-source-quadrature", "product-macro-factor",
        "manifold-kind-list", "gaussian-sigma-entry-negative",
        "product-wigner-dyson-mu-zero", "mre-uniform-empty",
        "mre-domain-reversed", "ige-fit-form-list", "ige-n-out-one",
        "ige-n-out-float", "iho-tau-end-short-beside-omega-text",
        "parameters-list", "manifold-list", "mre-list",
        "mre-constraint-scalar"])
def test_malformed_config_exits_1_naming_field(tmp_path, capsys, command,
                                               body, field):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(body + f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main([command, "--config", str(cfg)]) == 1
    assert f"config error at {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("formats", ["[[json]]", "[json, {csv: 1}]"],
                         ids=["list", "mapping"])
def test_unhashable_output_format_exits_1_naming_field(tmp_path, capsys,
                                                       formats):
    # the body sets output itself, which the test above appends to its cases
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"{GEO_CFG}output: {{directory: '{tmp_path}/out', "
                   f"formats: {formats}}}\n")
    assert cli.main(["geodesic", "--config", str(cfg)]) == 1
    assert "config error at output.formats:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BAD_TOLERANCES = [".nan", ".inf", "0", "-1"]


def _stub_run(monkeypatch):
    """A tolerance check that fails late would hand the solvers a nan or
    zero tolerance, on which they run for minutes."""
    monkeypatch.setattr(cli, "run", lambda plan, command: pytest.fail(
        f"a solve started with {plan.config['numerics']}"))


# quad_tol and ode_tol are no settings, but configs written with them
# (perfbench/inputs.py still writes both) meet the finiteness walk, which
# rejects their non-finite values at the same path
@pytest.mark.parametrize("value,key", [
    (value, key) for key in sorted(cli._NUMERIC_DEFAULTS)
    for value in BAD_TOLERANCES] + [(".nan", "quad_tol"), (".inf", "quad_tol"),
                                    (".nan", "ode_tol"), (".inf", "ode_tol")])
def test_bad_numerics_value_exits_1(tmp_path, capsys, monkeypatch, key,
                                    value):
    _stub_run(monkeypatch)
    cfg = tmp_path / "geo.yaml"
    cfg.write_text(GEO_CFG + f"numerics: {{{key}: {value}}}\n")
    assert cli.main(["geodesic", "--config", str(cfg)]) == 1
    assert f"config error at numerics.{key}:" in capsys.readouterr().err


def test_config_carrying_quad_tol_runs(tmp_path):
    # quad_tol and ode_tol are no settings any more; configs written with
    # them still run
    cfg = tmp_path / "ige.yaml"
    cfg.write_text(IGE_2D + "n_out: 33\n"
                   "numerics: {quad_tol: 1.0e-7, ode_tol: 1.0e-10}\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["ige", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("value", ["-1", "0"])
def test_unread_quad_tol_meets_only_the_finiteness_walk(tmp_path,
                                                        monkeypatch, value):
    # a finite quad_tol or ode_tol is no config error, whatever its sign
    monkeypatch.setattr(cli, "run", lambda cfg, command: 0)
    cfg = tmp_path / "geo.yaml"
    cfg.write_text(GEO_CFG + f"numerics: {{quad_tol: {value}, "
                   f"ode_tol: {value}}}\n")
    assert cli.main(["geodesic", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("value", BAD_TOLERANCES)
def test_bad_tol_flag_exits_1(tmp_path, capsys, monkeypatch, value):
    # --tol is no option any more: any value of it is a usage error
    _stub_run(monkeypatch)
    cfg = tmp_path / "geo.yaml"
    cfg.write_text(GEO_CFG)
    tol = value.lstrip(".")
    assert cli.main(["geodesic", "--config", str(cfg), f"--tol={tol}"]) == 1
    assert "igac: error: unrecognized arguments: --tol" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["geodesic"], "the following arguments are required: --config"),
    (["bogus", "--config", "x.yaml"],
     "argument command: invalid choice: 'bogus'"),
    (["geodesic", "--config", "x.yaml", "--seed", "3"],
     "unrecognized arguments: --seed 3"),
    (["geodesic", "--config", "x.yaml", "--format", "xml"],
     "argument --format: invalid choice: 'xml'"),
    ([], "the following arguments are required: command, --config"),
], ids=["no-config", "unknown-command", "unknown-flag", "unknown-format",
        "empty"])
def test_usage_error_exits_1(capsys, argv, message):
    # exit status 2 means a failed numeric check; a usage error is 1
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: igac ")
    assert f"igac: error: {message}" in err


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: igac ")


@pytest.mark.parametrize("value", BAD_TOLERANCES)
def test_bad_mre_tol_exits_1(tmp_path, capsys, monkeypatch, value):
    _stub_run(monkeypatch)
    cfg = tmp_path / "mre.yaml"
    cfg.write_text(f"{MRE_UNIFORM}tol: {value}\n")
    assert cli.main(["mre", "--config", str(cfg)]) == 1
    assert "config error at tol:" in capsys.readouterr().err


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_nonfinite_tau_end_exits_1(tmp_path, capsys, monkeypatch, value):
    _stub_run(monkeypatch)
    cfg = tmp_path / "geo.yaml"
    cfg.write_text(f"manifold: {DIAG_2D}\ntheta0: [0.0, 1.0]\n"
                   f"v0: [1.0, 0.0]\ntau_end: {value}\n")
    assert cli.main(["geodesic", "--config", str(cfg)]) == 1
    assert "config error at tau_end:" in capsys.readouterr().err


def _numeric_leaves(node, path=(), name=""):
    """(field path, key path) of every number under a parsed config."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        yield name, path
    elif isinstance(node, dict):
        for key, val in node.items():
            yield from _numeric_leaves(val, path + (key,),
                                       f"{name}.{key}" if name else key)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _numeric_leaves(val, path + (i,), f"{name}[{i}]")


DEMO_LEAVES = [(config, name, path) for config in DEMO_CONFIGS
               for name, path in _numeric_leaves(
                   yaml.safe_load(config.read_text()))]
# wave-packet configs written with the former quad_tol and ode_tol settings
# still carry them
DEMO_LEAVES += [(config, f"numerics.{key}", ("numerics", key))
                for key in ("ode_tol", "quad_tol")
                for config in DEMO_CONFIGS if config.stem == "wavepacket"]


def _main_with_config(tmp_path, command, cfg):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return cli.main([command, "--config", str(path)])


NAN, INF = float("nan"), float("inf")
BIG_INT = "1" + "0" * 400       # a 401-digit integer; float() overflows


@pytest.mark.parametrize("value", [NAN, INF, -INF],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("config,name,path", DEMO_LEAVES,
                         ids=[f"{c.stem}-{n}" for c, n, _ in DEMO_LEAVES])
def test_nonfinite_demo_leaf_exits_1_at_its_path(tmp_path, capsys,
                                                 monkeypatch, config, name,
                                                 path, value):
    _stub_run(monkeypatch)
    cfg = yaml.safe_load(config.read_text())
    cfg.setdefault("numerics", {})      # for the former settings above
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    command = config.stem if config.stem in cli._COMMANDS else "scenario"
    assert _main_with_config(tmp_path, command, cfg) == 1
    assert f"config error at {name}: must be finite" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command,body,field", [
    ("geodesic", IGE_2D.replace("sigmas: [1.0]", "sigmas: [.nan]"),
     "manifold.sigmas[0]"),
    ("geodesic", IGE_2D.replace("theta0: [0.0", "theta0: [.nan"),
     "theta0[0]"),
    ("geodesic", IGE_2D.replace("v0: [1.0", "v0: [.inf"), "v0[0]"),
    ("curvature", "manifold: {kind: exponential, mu: .nan}\ntheta: [1.0]\n",
     "manifold.mu"),
    ("curvature", "manifold: {kind: gaussian_bivariate_corr, mu_x: 0.0, "
     "mu_y: 0.0, sigma: .nan}\ntheta: [0.0, 0.0, 1.0]\n", "manifold.sigma"),
    ("curvature", "manifold: {kind: gaussian_diag, means: [.inf], "
     "sigmas: [1.0]}\ntheta: [0.0, 1.0]\n", "manifold.means[0]"),
    ("mre", "mre:\n  prior: {family: uniform}\n"
     "  constraints: [{f: identity, target: .inf}]\n",
     "mre.constraints[0].target"),
    ("mre", "mre:\n  prior: {family: uniform}\n  constraints: [{f: poly, "
     "coefficients: [0.0, .nan], target: 0.1}]\n",
     "mre.constraints[0].coefficients[1]"),
    ("scenario", "scenario: iho\nparameters: {l: 2, omega: [.nan, 1.0]}\n",
     "parameters.omega[0]"),
    ("scenario", "scenario: iho\nparameters: {l: 2, omega: [0.5, 1.5], "
     "xi: .inf}\n", "parameters.xi"),
    ("scenario", "scenario: wavepacket\nparameters: {p0: .nan}\n",
     "parameters.p0"),
    ("scenario", "scenario: wavepacket\nparameters: {r_sweep: [.nan, 0.3]}\n",
     "parameters.r_sweep[0]"),
    ("scenario", "scenario: uncorrelated_gaussian\n"
     "parameters: {l: 1, theta0: [.nan, 1.0]}\n", "parameters.theta0[0]"),
    ("scenario", "scenario: macro_correlated\n"
     "parameters: {l: 1, r: [0.5], tau_end: .inf}\n", "parameters.tau_end"),
    ("scenario", "scenario: custom_manifold\nparameters:\n"
     "  manifold: {kind: exponential, mu: 1.0}\n  theta: [.nan]\n",
     "parameters.theta[0]"),
    ("mre", "mre:\n  prior: {family: uniform}\n"
     f"  constraints: [{{f: identity, target: {BIG_INT}}}]\n",
     "mre.constraints[0].target"),
    ("geodesic", IGE_2D.replace("tau_end: 2.0", f"tau_end: {BIG_INT}"),
     "tau_end"),
    ("geodesic", IGE_2D.replace("theta0: [0.0", f"theta0: [-{BIG_INT}"),
     "theta0[0]"),
], ids=["sigmas", "theta0", "v0", "exponential-mu", "bivariate-sigma",
        "means", "mre-target", "poly-coefficient", "iho-omega", "iho-xi",
        "wavepacket-p0", "wavepacket-r-sweep", "uncorrelated-theta0",
        "macro-tau-end", "custom-theta", "mre-target-big-int",
        "tau-end-big-int", "theta0-big-int"])
def test_nonfinite_field_exits_1_naming_it(tmp_path, capsys, monkeypatch,
                                           command, body, field):
    _stub_run(monkeypatch)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(body)
    assert cli.main([command, "--config", str(cfg)]) == 1
    assert f"config error at {field}: must be finite" in \
        capsys.readouterr().err


GAUSSIAN_MRE = {"prior": {"family": "gaussian"},
                "constraints": [{"f": "identity", "target": 0.3}]}


@pytest.mark.parametrize("end", [0, 1])
def test_nan_mre_domain_end_exits_1(tmp_path, capsys, monkeypatch, end):
    _stub_run(monkeypatch)
    domain = [-INF, INF]
    domain[end] = NAN
    cfg = {"mre": {**GAUSSIAN_MRE, "domain": domain}}
    assert _main_with_config(tmp_path, "mre", cfg) == 1
    assert f"config error at mre.domain[{end}]: must be finite" in \
        capsys.readouterr().err


def test_infinite_domain_ends_only_in_mre_update(tmp_path, capsys,
                                                 monkeypatch):
    _stub_run(monkeypatch)
    cfg = {"scenario": "wavepacket", "parameters": {"domain": [0.0, INF]}}
    assert _main_with_config(tmp_path, "scenario", cfg) == 1
    assert "config error at parameters.domain[1]: must be finite" in \
        capsys.readouterr().err
    cfg = {"scenario": "mre_update", "parameters": {**GAUSSIAN_MRE,
                                                    "domain": [0.0, INF]}}
    assert cli.parse_config(yaml.safe_dump(cfg)).config["parameters"][
        "domain"] == [0.0, INF]


def test_open_mre_domain_matches_the_prior_support(tmp_path):
    # the report echoes its inputs, so the two differ by the domain alone
    reports = []
    for name, extra in (("open", {"domain": [-INF, INF]}),
                        ("omitted", {})):
        cfg = {"mre": {**GAUSSIAN_MRE, **extra},
               "output": {"directory": str(tmp_path / name)}}
        assert _main_with_config(tmp_path, "mre", cfg) == 0
        reports.append(json.loads(
            (tmp_path / name / "report.json").read_text()))
    assert reports[0]["inputs"]["mre"].pop("domain") == [-INF, INF]
    assert reports[0] == reports[1]


def test_mre_domain_conditions_the_prior(tmp_path):
    # N(0,1) on x > 0 tilted by e^(beta x) has mean
    # beta + phi(beta) / Phi(beta); here beta = 1
    mean = float(1.0 + norm.pdf(1.0) / norm.cdf(1.0))
    cfg = {"mre": {"prior": {"family": "gaussian"}, "domain": [0.0, INF],
                   "constraints": [{"f": "identity", "target": mean}]},
           "output": {"directory": str(tmp_path / "out")}}
    assert _main_with_config(tmp_path, "mre", cfg) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["observables"]["beta"][0] == pytest.approx(1.0, abs=1e-10)


def test_curvature_on_one_dimensional_manifold(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("manifold: {kind: exponential, mu: 1.0}\ntheta: [1.0]\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["curvature", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["observables"]["ricci_scalar"] == 0.0
    assert report["observables"]["sectional"] == []
    assert report["observables"]["weyl_max_abs"] == 0.0


@pytest.mark.parametrize("body,scalar", [
    ("manifold: {kind: gaussian_bivariate_corr, mu_x: 0.0, mu_y: 0.0, "
     "sigma: 1.0, r: 0.5}\ntheta: [0.2, -0.3, 0.001]\n", -1.5),
    ("manifold: {kind: macro_correlated, r: [0.5]}\ntheta: [0.2, 0.001]\n",
     -2.0 / 1.75),
], ids=["bivariate", "macro"])
def test_curvature_near_chart_edge_passes_compatibility(tmp_path, body,
                                                        scalar):
    # at spread 1e-3 the metric derivative reaches 4e9-8e9, so the
    # compatibility residual is read relative to it: roundoff of order 1e-7
    # in the absolute residual must not exit 2
    cfg = tmp_path / "edge.yaml"
    cfg.write_text(body + f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["curvature", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    check, = (c for c in report["checks"]
              if c["name"] == "metric_compatibility")
    assert check["pass"] and check["tol"] == 1e-8
    assert report["observables"]["ricci_scalar"] == pytest.approx(
        scalar, rel=1e-12)


def test_curvature_op_expands_riemann_once(tmp_path, monkeypatch):
    from igac import geometry as geo

    calls = []
    expand = geo._riemann_from
    monkeypatch.setattr(geo, "_riemann_from",
                        lambda *a: calls.append(1) or expand(*a))
    cfg = tmp_path / "q.yaml"
    cfg.write_text(f"manifold: {DIAG_2D}\ntheta: [0.0, 1.0]\n"
                   "metric_source: quadrature\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["curvature", "--config", str(cfg)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("config", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_outputs_are_byte_identical(tmp_path, config):
    # every file a demo writes repeats byte for byte on a second run
    command = config.stem if config.stem in cli._COMMANDS else "scenario"
    for run in ("a", "b"):
        assert cli.main([command, "--config", str(config),
                         "--out", str(tmp_path / run)]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names and names == sorted(p.name for p in
                                     (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


# one run of each demo config and of two scenarios that wrap a command
BUILD_CONFIGS = {
    **{p.stem: p for p in DEMO_CONFIGS},
    "custom_manifold": "scenario: custom_manifold\nparameters:\n"
                       "  manifold: {kind: exponential, mu: 1.5}\n"
                       "  theta: [1.5]\n",
    "mre_update": "scenario: mre_update\nparameters:\n"
                  "  prior: {family: uniform, lo: -5.0, hi: 5.0}\n"
                  "  constraints: [{f: identity, target: 0.5}]\n"}
# the builds each run makes: its manifold's model, its prior with the grid
# of a uniform one, and its scenario config, each once.  The second
# IHOConfig is run_iho's doubled-frequency ensemble
BUILDS = {"curvature": {"build_model": 1}, "geodesic": {"build_model": 1},
          "ige": {"build_model": 1}, "custom_manifold": {"build_model": 1},
          "mre": {"_build_prior": 1, "_composite_grid": 1},
          "mre_update": {"_build_prior": 1, "_composite_grid": 1},
          "iho": {"IHOConfig": 2}, "wavepacket": {"ScatterConfig": 1},
          "macro_correlated": {"PairsConfig": 1},
          "spin_chain_chaotic": {"SpinChainConfig": 1},
          "uncorrelated_gaussian": {"PairsConfig": 1}}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_command_builds_its_model_prior_and_config_once(tmp_path,
                                                        monkeypatch, name):
    # the plan of parse_config carries what validation built to the run
    from igac import scenarios as sc

    monkeypatch.setattr(cli, "parse_config", _PARSE)   # one parse per run
    counts = Counter()

    def spy(owner, attr, key):
        fn = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *a, **k:
                            counts.update([key]) or fn(*a, **k))

    spy(cli, "build_model", "build_model")
    spy(cli, "_build_prior", "_build_prior")
    spy(mre, "_composite_grid", "_composite_grid")
    # dataclasses.replace bypasses the module name: count in __post_init__
    for cls in (sc.PairsConfig, sc.SpinChainConfig, sc.IHOConfig,
                sc.ScatterConfig):
        spy(cls, "__post_init__", cls.__name__)
    config = BUILD_CONFIGS[name]
    if isinstance(config, str):
        config = tmp_path / "cfg.yaml"
        config.write_text(BUILD_CONFIGS[name])
    command = name if name in cli._COMMANDS else "scenario"
    assert cli.main([command, "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
    assert counts == BUILDS[name]


def test_mre_update_scenario_matches_mre_command(tmp_path):
    # the scenario route runs the same solve as `igac mre` on one problem
    problem = {"prior": {"family": "uniform", "lo": -20.0, "hi": 20.0},
               "constraints": [{"f": "identity", "target": 0.0},
                               {"f": "square", "target": 1.0}]}
    reports = {}
    for command, cfg in (("mre", {"mre": problem}),
                         ("scenario", {"scenario": "mre_update",
                                       "parameters": problem})):
        cfg["output"] = {"directory": str(tmp_path / command)}
        assert _main_with_config(tmp_path, command, cfg) == 0
        reports[command] = json.loads(
            (tmp_path / command / "report.json").read_text())
    mre_report, scenario_report = reports["mre"], reports["scenario"]
    assert scenario_report["pass"] is True
    assert scenario_report["checks"] == mre_report["checks"]
    assert scenario_report["observables"] == mre_report["observables"]


def test_jacobi_config_dj0_is_used(tmp_path):
    # the field is linear in (J0, DJ0): doubling dj0 doubles the intensity
    finals = []
    for scale in (0.5, 1.0):
        cfg = {"manifold": yaml.safe_load(DIAG_2D), "theta0": [0.0, 1.0],
               "v0": [1.0, 0.0], "tau_end": 2.0, "dj0": [0.0, scale],
               "output": {"directory": str(tmp_path / str(scale))}}
        assert _main_with_config(tmp_path, "jacobi", cfg) == 0
        report = json.loads(
            (tmp_path / str(scale) / "report.json").read_text())
        assert report["inputs"]["dj0"] == [0.0, scale]
        finals.append(report["observables"]["final_intensity"])
    assert finals[1] == pytest.approx(2.0 * finals[0], rel=1e-12)


def test_wavepacket_sweep_stays_in_the_prolongation_domain(tmp_path):
    # p0 = 0.5, sigma0 = 1 give eta = 1: the sweep runs to 0.9 * 2/eta =
    # 1.8, past r* = 1 - (1 + 1/eta)^-2 = 0.75 where Delta's logarithm
    # loses its argument; the points from r* on are left out
    cfg = tmp_path / "wp.yaml"
    cfg.write_text("scenario: wavepacket\n"
                   "parameters: {p0: 0.5, sigma0: 1.0, r: 0.01}\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    with pytest.warns(UserWarning, match="sigma0/p0 above 0.3"):
        assert cli.main(["scenario", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is True
    assert all(chk["pass"] for chk in report["checks"])
    assert report["observables"]["prolongation"]["eta_delta"] == \
        pytest.approx(1.0)


@pytest.mark.parametrize("body,key", [
    ("scenario: macro_correlated\nparameters: {l: 1, r: null}\n", "r"),
    ("scenario: wavepacket\nparameters: {r_sweep: null}\n", "r_sweep"),
    ("scenario: wavepacket\nparameters: {p0: null}\n", "p0"),
    ("scenario: iho\nparameters: {l: 2, omega_total: 2.0, xi: null}\n", "xi"),
    ("scenario: spin_chain\nparameters: {regime: regular, tau_end: null}\n",
     "tau_end"),
], ids=["macro-r", "wavepacket-r-sweep", "wavepacket-p0", "iho-xi",
        "spin-tau-end"])
def test_null_scenario_key_exits_1_at_its_path(tmp_path, capsys, body, key):
    # the drivers read None as unset; a null in a config is no value
    cfg = tmp_path / "null.yaml"
    cfg.write_text(body + f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["scenario", "--config", str(cfg)]) == 1
    assert f"config error at parameters.{key}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning",
                            "ignore:k0 L exceeds 0.3")
@pytest.mark.parametrize("body,error", [
    ("scenario: iho\nparameters: {l: 2, omega: [1.0e+300, 1.5]}\n",
     "FitFailureError"),
    ("scenario: iho\nparameters: {l: 2, omega_total: 1.0e+300}\n",
     "FitFailureError"),
    ("scenario: wavepacket\nparameters: {p0: 1.0e+300}\n",
     "DegenerateMetricError"),
    ("scenario: wavepacket\nparameters: {sigma0: 1.0e+300}\n",
     "DegenerateMetricError"),
    # at odd l the box volume overflows to inf as at even l
    ("scenario: iho\nparameters: {l: 3, omega_total: 1.0e+300}\n",
     "FitFailureError"),
    ("scenario: iho\nparameters: {l: 3, omega_total: 1.0, xi: 1.0e+300}\n",
     "FitFailureError"),
    # cubing L overflows to an infinite scattering length
    ("scenario: wavepacket\nparameters: {L: 1.0e+300}\n", "RegimeError"),
    ("scenario: wavepacket\nparameters: {L: 1.0e+300, r: 0.0}\n",
     "RegimeError"),
], ids=["iho-omega", "iho-omega-total", "wavepacket-p0", "wavepacket-sigma0",
        "iho-l3-omega-total", "iho-l3-xi", "wavepacket-L", "wavepacket-L-r0"])
def test_huge_finite_scale_exits_2_naming_its_error(tmp_path, capsys, body,
                                                    error):
    # each value is finite and in range, so the config parses; squaring it
    # overflows to inf, and the run stops at a named error
    cfg = tmp_path / "huge.yaml"
    cfg.write_text(body + f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["scenario", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"{error}: ")
    assert not (tmp_path / "out").exists()


# Every scenario range lives in the library: parse_config rejects a config
# exactly when the scenario's config class rejects its parameters, and
# reports each of the library's failures at the field's config path.

def _library_failures(check, keys=None):
    """(config path, message) of each failure of a library check, a field
    renamed through ``keys``."""
    keys = keys or {}
    try:
        check()
    except ParameterError as exc:
        return [(f"parameters.{keys.get(field, field)}", msg)
                for field, msg in exc.failures]
    return []


def _parse_failures(scenario, params):
    try:
        cli.parse_config(yaml.safe_dump({"scenario": scenario,
                                         "parameters": params}))
    except ConfigError as exc:
        return exc.failures
    return []


def _optional(values):
    return st.none() | values


# zero, negatives, the slope-fit start and the upper end of a correlation
SIGNED = st.sampled_from([0, 0.0, -1, -0.5, 1, sc._IHO_FIT_START]) \
    | st.floats(-2.0, 80.0)
CORRELATION = st.sampled_from([0.0, 0.5, 1.0, 1, -0.1]) \
    | st.floats(-0.5, 1.5)
# the autouse loader fixture holds no state between examples
ONE_HOME = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@ONE_HOME
@given(l=st.integers(-1, 4), omega=_optional(st.lists(SIGNED, max_size=5)),
       omega_total=_optional(SIGNED), xi=_optional(SIGNED),
       tau_end=_optional(SIGNED))
def test_iho_ranges_live_in_the_library(l, omega, omega_total, xi, tau_end):
    params = {key: val for key, val in
              (("l", l), ("omega", omega), ("omega_total", omega_total),
               ("xi", xi), ("tau_end", tau_end)) if val is not None}
    expected = _library_failures(lambda: sc.IHOConfig(**params))
    assert sorted(_parse_failures("iho", params)) == sorted(expected)


@pytest.mark.filterwarnings("ignore:k0 L exceeds 0.3")
@ONE_HOME
@given(p0=_optional(SIGNED), sigma0=_optional(SIGNED),
       tau0=_optional(SIGNED), R0=_optional(SIGNED), L=_optional(SIGNED),
       mu_mass=_optional(SIGNED), r=_optional(CORRELATION),
       r_sweep=_optional(st.lists(CORRELATION, max_size=3)))
def test_wavepacket_ranges_live_in_the_library(p0, sigma0, tau0, R0, L,
                                               mu_mass, r, r_sweep):
    fields = {"p0": p0, "sigma0": sigma0, "tau0": tau0, "r0_separation": R0,
              "potential_range": L, "mu_mass": mu_mass, "r": r,
              "r_sweep": r_sweep}
    fields = {key: val for key, val in fields.items() if val is not None}
    keys = {"r0_separation": "R0", "potential_range": "L"}
    params = {keys.get(key, key): val for key, val in fields.items()}
    expected = _library_failures(lambda: sc.ScatterConfig(**fields), keys)
    assert sorted(_parse_failures("wavepacket", params)) == sorted(expected)


@ONE_HOME
@given(scenario=st.sampled_from(["uncorrelated_gaussian", "macro_correlated",
                                 "spin_chain"]),
       l=st.integers(-1, 3),
       r=CORRELATION | st.lists(CORRELATION, max_size=4),
       regime=st.sampled_from(["regular", "chaotic", "mixed"]),
       theta0=_optional(st.lists(SIGNED, max_size=7)),
       v0=_optional(st.lists(SIGNED, max_size=7)), tau_end=_optional(SIGNED))
def test_geodesic_ranges_live_in_the_library(scenario, l, r, regime, theta0,
                                             v0, tau_end):
    # every draw passes the structure checks: l an integer, regime a
    # string, theta0 and v0 lists of numbers, the macro r given
    params = {key: val for key, val in
              (("theta0", theta0), ("v0", v0), ("tau_end", tau_end))
              if val is not None}
    if scenario == "spin_chain":
        params["regime"] = regime
        cls = sc.SpinChainConfig
    else:
        params["l"] = l
        if scenario == "macro_correlated":
            params["r"] = r
        cls = sc.PairsConfig
    expected = _library_failures(lambda: cls(**params))
    assert sorted(_parse_failures(scenario, params)) == sorted(expected)



# Every manifold, prior and constraint range lives in its constructor:
# parse_config rejects a spec exactly when the constructors do, at the
# config path of each of their failures.  A bool meets the structure check
# first, which rejects it at its key (at the list, for a list entry) and
# leaves its model or prior unbuilt.

def _raised(check, path, fields=None):
    """The config path ``path.field`` of each failure of a library check,
    a field renamed through ``fields``."""
    try:
        check()
    except ParameterError as exc:
        return [f"{path}.{(fields or {}).get(field, field)}"
                for field, _ in exc.failures]
    return []


def _leaf_failures(build, args, path, fields=None):
    """Where parse_config rejects a model or prior: at each key holding a
    bool, or else where its constructor fails."""
    return [f"{path}.{key}" for key, val in args.items()
            if isinstance(val, bool) or isinstance(val, list)
            and any(isinstance(x, bool) for x in val)] or \
        _raised(lambda: build(**args), path, fields)


MODEL_CONSTRUCTORS = {"gaussian_diag": md.gaussian_diag,
                      "exponential": md.exponential,
                      "wigner_dyson": md.wigner_dyson,
                      "gaussian_bivariate_corr": md.gaussian_bivariate_corr}


def _manifold_failures(spec, path):
    """(config paths of the library's failures, dimension) of a spec."""
    kind = spec["kind"]
    if kind == "product":
        parts = [_manifold_failures(sub, f"{path}.factors[{i}]")
                 for i, sub in enumerate(spec["factors"])]
        return [p for fails, _ in parts for p in fails], \
            sum(dim for _, dim in parts)
    if kind == "macro_correlated":
        r = spec["r"]
        fails = [f"{path}.r"] if isinstance(r, bool) else \
            _raised(lambda: md.macro_correlated_metric(r), path)
        return fails, 2 * len(np.atleast_1d(r))
    build = MODEL_CONSTRUCTORS[kind]
    args = {key: val for key, val in spec.items() if key != "kind"}
    fails = _leaf_failures(build, args, path)
    return fails, 0 if fails else build(**args).param_dim


def _config_failures(cfg, command):
    try:
        cli.parse_config(yaml.safe_dump(cfg), command)
    except ConfigError as exc:
        return sorted(path for path, _ in exc.failures)
    return []


# zero, negatives, bools, the ends of a correlation and valid values
EDGE = st.sampled_from([0, 0.0, -1, -0.5, 0.5, 1, 1.0, -1.0, 2.0, True,
                        False]) | st.floats(-2.0, 2.0)
EDGES = st.lists(EDGE, min_size=1, max_size=3)
MODEL_LEAVES = st.one_of(
    st.fixed_dictionaries({"kind": st.just("gaussian_diag"), "means": EDGES,
                           "sigmas": EDGES}),
    st.fixed_dictionaries({"kind": st.sampled_from(["exponential",
                                                    "wigner_dyson"]),
                           "mu": EDGE}),
    st.fixed_dictionaries({"kind": st.just("gaussian_bivariate_corr"),
                           "mu_x": EDGE, "mu_y": EDGE, "sigma": EDGE},
                          optional={"r": EDGE}))
MODEL_SPECS = st.recursive(MODEL_LEAVES, lambda factors: st.fixed_dictionaries(
    {"kind": st.just("product"),
     "factors": st.lists(factors, min_size=1, max_size=3)}), max_leaves=5)
MANIFOLD_SPECS = MODEL_SPECS | st.fixed_dictionaries(
    {"kind": st.just("macro_correlated"), "r": EDGE | EDGES})


@ONE_HOME
@given(spec=MANIFOLD_SPECS)
def test_manifold_ranges_live_in_the_library(spec):
    expected, dim = _manifold_failures(spec, "manifold")
    # the length of theta is checked against a valid manifold only
    theta = [1.0] * (dim or 1)
    assert _config_failures({"manifold": spec, "theta": theta},
                            "curvature") == sorted(expected)


PRIOR_BUILDERS = {"exponential": md.exponential,
                  "gaussian": lambda mu, sigma: md.gaussian_diag([mu],
                                                                 [sigma]),
                  "uniform": mre.uniform_prior}
PRIORS = st.one_of(
    st.fixed_dictionaries({"family": st.just("exponential"), "mu": EDGE}),
    st.fixed_dictionaries({"family": st.just("gaussian"), "mu": EDGE,
                           "sigma": EDGE}),
    st.fixed_dictionaries({"family": st.just("uniform"), "lo": EDGE,
                           "hi": EDGE}))
CONSTRAINTS = st.fixed_dictionaries(
    {"f": st.sampled_from(["identity", "square", "abs", "poly", "cube",
                           True]),
     "target": st.floats(-1.0, 1.0)},
    optional={"coefficients": st.none() | EDGE
              | st.lists(EDGE, max_size=3)})


@ONE_HOME
@given(prior=PRIORS, domain=st.none() | st.lists(EDGE, min_size=2,
                                                  max_size=2),
       constraints=st.lists(CONSTRAINTS, min_size=1, max_size=3))
def test_prior_and_constraint_ranges_live_in_the_library(prior, domain,
                                                         constraints):
    problem = {"prior": prior, "constraints": constraints}
    args = {key: val for key, val in prior.items() if key != "family"}
    expected = _leaf_failures(PRIOR_BUILDERS[prior["family"]], args,
                              "mre.prior", {"sigmas[0]": "sigma"})
    if domain is not None:
        problem["domain"] = domain
        expected += _raised(lambda: mre.MrEProblem(
            md.exponential(1.0), (), domain=domain), "mre")
    for i, c in enumerate(constraints):
        expected += _raised(lambda: mre.constraint_function(
            c["f"], c.get("coefficients")), f"mre.constraints[{i}]")
    assert _config_failures({"mre": problem}, "mre") == sorted(expected)


def test_flat_mean_at_r0_exits_2_at_the_linear_fit(tmp_path, capsys):
    # r = 0 and a start whose second pair only spreads: every entropy entry
    # is -inf in both traces, which the degeneration check counts as equal;
    # the run then stops at the linear fit, which has no finite point
    cfg = tmp_path / "macro.yaml"
    cfg.write_text("scenario: macro_correlated\n"
                   "parameters: {l: 2, r: 0, v0: [1.0, 0.0, 0.0, 1.0]}\n"
                   f"output: {{directory: '{tmp_path}/out'}}\n")
    assert cli.main(["scenario", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        "FitFailureError: only 0 usable points in window")


@pytest.mark.parametrize("source,code", [("quadrature", 0), ("exact", 1)])
def test_custom_manifold_reads_its_metric_source(tmp_path, capsys,
                                                 monkeypatch, source, code):
    # the scenario is igac curvature on the mapping at parameters
    monkeypatch.setattr(cli, "parse_config", _PARSE)   # one parse per run
    built = Counter()
    quadrature = md.fisher_quadrature
    monkeypatch.setattr(md, "fisher_quadrature", lambda model: built.update(
        ["quadrature"]) or quadrature(model))
    cfg = {"scenario": "custom_manifold",
           "parameters": {"manifold": {"kind": "exponential", "mu": 1.5},
                          "theta": [1.5], "metric_source": source},
           "output": {"directory": str(tmp_path / "out")}}
    assert _main_with_config(tmp_path, "scenario", cfg) == code
    if code:
        assert capsys.readouterr().err == (
            "config error at parameters.metric_source: must be one of "
            "('analytic', 'quadrature')\n")
    else:
        assert built == {"quadrature": 1}


def _config_nodes(node, path=(), name=""):
    """(field path, key path) of every value under a parsed config that is
    no mapping: each leaf, each list and each list entry."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _config_nodes(val, path + (key,),
                                     f"{name}.{key}" if name else key)
        return
    yield name, path
    if isinstance(node, list):
        for i, val in enumerate(node):
            yield from _config_nodes(val, path + (i,), f"{name}[{i}]")


CONTRACT_NODES = [(config, name, path) for config in DEMO_CONFIGS
                  for name, path in _config_nodes(
                      yaml.safe_load(config.read_text()))]
_REMOVE = object()
MUTATIONS = {"remove": _REMOVE, "null": None, "string": "x", "bool": True,
             "-1": -1, "0": 0, "nan": NAN, "inf": INF, "1e300": 1e300,
             "1e-300": 1e-300, "5e-324": 5e-324, "empty-list": []}
IGAC_ERRORS = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.IgacError)}


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
@pytest.mark.parametrize("config,name,path", CONTRACT_NODES,
                         ids=[f"{c.stem}-{n}" for c, n, _ in CONTRACT_NODES])
def test_mutated_demo_config_keeps_the_cli_contract(tmp_path, capsys, config,
                                                    name, path):
    # the CLI contract: exit 0 with a report, exit 1 naming a config path,
    # or exit 2 naming an IgacError or the checks that failed; never a
    # traceback
    command = config.stem if config.stem in cli._COMMANDS else "scenario"
    broken = []
    for label, value in MUTATIONS.items():
        cfg = yaml.safe_load(config.read_text())
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if value is _REMOVE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        cfg_path = tmp_path / f"{label}.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        try:
            code = cli.main([command, "--config", str(cfg_path),
                             "--out", str(tmp_path / label)])
        except Exception as exc:
            broken.append(f"{label}: raised {type(exc).__name__}: {exc}")
            continue
        err = capsys.readouterr().err
        if code == 1:
            kept = err.startswith("config error at ")
        elif code == 2:
            kept = err.partition(":")[0] in IGAC_ERRORS or \
                err.startswith('{\n  "failures": [')
        else:
            kept = code == 0
        if not kept:
            broken.append(f"{label}: exit {code}: {err[:200]!r}")
    assert not broken, "\n".join(broken)
