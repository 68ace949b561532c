import glob
import math
import os
import tempfile
import warnings

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from difflab import cli
from difflab.config import (
    build_config,
    config_tree,
    emit,
    parse_config,
    parse_config_text,
    parse_overrides,
)
from difflab.errors import ConfigError, InstabilityError, UnknownKeyError

PRESET_DIR = os.path.join(os.path.dirname(__file__), "..", "presets")
PRESETS = sorted(glob.glob(os.path.join(PRESET_DIR, "*.cfg")))
COMPARE_CFG = os.path.join(PRESET_DIR, "compare.cfg")

SMALL_CFG = """
graph: {nodes: 5, avg_degree: 3, seed: 3}
signal:
  h: [0.4, 0.7, -0.3, 0.5]
  input_variance: 1.0
  observation_variance: 0.1
noise:
  x: {sigma_a2: 0.04}
  y: {sigma_a2: 0.04}
  phi: {sigma_a2: 0.04}
simulation: {iterations: 50, runs: 4, seed: 7}
algorithms:
  - {name: dlms, step_size: 0.1}
  - {name: ac-dlms, adaptive_combination: true, share_weights: false,
     step_size: 0.1}
"""


@pytest.fixture
def small_cfg_path(tmp_path):
    p = tmp_path / "small.cfg"
    p.write_text(SMALL_CFG)
    return str(p)


def test_presets_exist():
    assert len(PRESETS) >= 6


@pytest.mark.parametrize("path", PRESETS, ids=os.path.basename)
def test_emit_round_trip_on_presets(path):
    cfg = parse_config(path)
    assert parse_config_text(emit(cfg)) == cfg


def test_small_config_parses():
    cfg = parse_config_text(SMALL_CFG)
    assert cfg.n_nodes == 5
    assert cfg.monte_carlo_runs == 4
    assert cfg.noise.x.sigma_a2 == 0.04
    assert cfg.algorithms[1].adaptive_combination
    assert parse_config_text(emit(cfg)) == cfg


def test_unknown_keys_rejected():
    with pytest.raises(UnknownKeyError):
        parse_config_text(SMALL_CFG + "\nbogus: 1\n")
    with pytest.raises(UnknownKeyError):
        parse_config_text(SMALL_CFG.replace("seed: 3", "seed: 3, extra: 1"))
    with pytest.raises(UnknownKeyError):
        parse_config_text(SMALL_CFG.replace("name: dlms",
                                            "name: dlms, turbo: true"))


def test_missing_sections_and_empty_file():
    with pytest.raises(ConfigError):
        parse_config_text("")
    with pytest.raises(ConfigError):
        parse_config_text("graph: {nodes: 5}")
    with pytest.raises(ConfigError):
        parse_config_text("- a\n- b\n")


def test_yaml_syntax_error_carries_position():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("graph: {nodes: 5\nsignal: oops")
    assert exc.value.line is not None
    assert exc.value.column is not None


def test_bad_values_are_config_errors():
    with pytest.raises(ConfigError):
        parse_config_text(SMALL_CFG.replace("sigma_a2: 0.04",
                                            "sigma_a2: -1"))
    with pytest.raises(ConfigError):
        parse_config_text(SMALL_CFG.replace("step_size: 0.1",
                                            "step_size: 0"))
    with pytest.raises(ConfigError):
        parse_config_text(SMALL_CFG.replace("iterations: 50",
                                            "iterations: 0"))


def test_overrides():
    pairs = parse_overrides(["runs=50", "algorithms.0.step_size=0.2",
                             "graph.nodes=8"])
    cfg = parse_config_text(SMALL_CFG, pairs)
    assert cfg.monte_carlo_runs == 50
    assert cfg.algorithms[0].step_size == 0.2
    assert cfg.n_nodes == 8
    with pytest.raises(ConfigError):
        parse_overrides(["runs50"])
    with pytest.raises(UnknownKeyError):
        parse_config_text(SMALL_CFG, [("algorithms.9.step_size", 0.2)])
    with pytest.raises(UnknownKeyError):
        parse_config_text(SMALL_CFG, [("nosuch.key", 1)])


def test_sweep_spec(tmp_path):
    p = tmp_path / "sweep.cfg"
    p.write_text(SMALL_CFG + "\nsweep: {parameter: sigma_a2, values: [0.01, 0.04]}\n")
    cfg = parse_config(str(p))
    assert cfg.sweep == ("sigma_a2", (0.01, 0.04))
    assert parse_config_text(emit(cfg)) == cfg
    q = tmp_path / "nosweep.cfg"
    q.write_text(SMALL_CFG)
    assert parse_config(str(q)).sweep is None
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG + "\nsweep: {parameter: mu, values: [1]}\n")
    with pytest.raises(ConfigError):
        parse_config(str(bad))


def test_config_tree_matches_build(small_cfg_path):
    cfg = parse_config(small_cfg_path)
    assert build_config(config_tree(cfg)) == cfg


_POSITIVE = st.floats(1e-6, 1e6)
_NONNEGATIVE = st.floats(0.0, 10.0)
_GMM_TREES = st.fixed_dictionaries({}, optional={
    "c": st.floats(0.0, 1.0), "sigma_a2": _NONNEGATIVE,
    "sigma_b2": _NONNEGATIVE})
_SCHEDULE_TREES = st.one_of(_POSITIVE, st.fixed_dictionaries(
    {"initial": _POSITIVE, "final": _POSITIVE},
    optional={"switch_iteration": st.integers(0, 10**6)}))


def _one_or_list(values):
    return st.one_of(values, st.lists(values, min_size=1, max_size=4))


def _algorithm_trees(name):
    # mtc needs a zeta2 schedule and mcc a kernel schedule; lms may be
    # left to the default estimator
    def tree(estimator):
        required = {"name": st.just(name)}
        optional = {
            "share_data": st.booleans(), "share_weights": st.booleans(),
            "adaptive_combination": st.booleans(),
            "step_size": _one_or_list(_POSITIVE), "chi": st.floats(1e-3, 1.0),
            "epsilon": _POSITIVE, "zeta2": _SCHEDULE_TREES,
            "mcc_kernel2": _SCHEDULE_TREES,
        }
        for key in {"mtc": ["zeta2"], "mcc": ["mcc_kernel2"]}.get(estimator, []):
            required[key] = optional.pop(key)
        if estimator == "lms":
            optional["estimator"] = st.just(estimator)
        else:
            required["estimator"] = st.just(estimator)
        return st.fixed_dictionaries(required, optional=optional)
    return st.sampled_from(["lms", "mcc", "mtc", "gdtls"]).flatmap(tree)


_CONFIG_TREES = st.fixed_dictionaries({
    "graph": st.fixed_dictionaries({}, optional={
        "nodes": st.integers(2, 100), "avg_degree": _POSITIVE,
        "seed": st.integers(0, 2**63), "edge_list": st.just("net.edges")}),
    "signal": st.fixed_dictionaries(
        {"h": st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4)},
        optional={"input_variance": _POSITIVE,
                  "observation_variance": _one_or_list(_NONNEGATIVE)}),
    "noise": st.fixed_dictionaries({}, optional={
        "x": _GMM_TREES, "y": _GMM_TREES, "phi": _GMM_TREES,
        "after": st.fixed_dictionaries(
            {"switch_iteration": st.integers(0, 10**6)},
            optional={"x": _GMM_TREES, "y": _GMM_TREES, "phi": _GMM_TREES})}),
    "algorithms": st.integers(1, 3).flatmap(lambda n: st.tuples(
        *(_algorithm_trees(f"a{i}") for i in range(n))).map(list)),
}, optional={
    "simulation": st.fixed_dictionaries({}, optional={
        "iterations": st.integers(1, 10**6), "runs": st.integers(1, 10**4),
        "seed": st.integers(0, 2**63), "per_node_msd": st.booleans()}),
    "sweep": st.fixed_dictionaries({
        "parameter": st.sampled_from(["sigma_a2", "sigma_b2", "zeta2"]),
        "values": st.lists(_POSITIVE, min_size=1, max_size=4)}),
})


@settings(max_examples=200, deadline=None)
@given(_CONFIG_TREES)
def test_schema_round_trip(tree):
    cfg = build_config(tree)
    assert parse_config_text(emit(cfg)) == cfg
    assert build_config(config_tree(cfg)) == cfg


@pytest.mark.parametrize("override", [
    'algorithms.0.share_data="false"',
    "algorithms.0.adaptive_combination=[0]",
    "simulation.runs=true",
    "simulation.runs=2.5",
    "graph.nodes=10.9",
    "algorithms.0.zeta2.switch_iteration=1.5",
    "signal.observation_variance=.nan",
    "signal.input_variance=.nan",
    "signal.input_variance=.inf",
    "signal.h=[.nan,1]",
    "algorithms.0.epsilon=.nan",
    "graph.seed=-1",
    "simulation.seed=-1",
])
def test_cli_strict_casts_are_config_errors(override, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["theory", "--config", COMPARE_CFG, "--out", str(out),
                     "--set", override])
    assert code == cli.EXIT_PARSE
    assert override.partition("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path", PRESETS, ids=os.path.basename)
def test_cli_validate_presets(path, capsys):
    assert cli.main(["validate", "--config", path]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("ok:")


def test_cli_missing_config_is_parse_error(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "nope.cfg")])
    assert code == cli.EXIT_PARSE


def test_cli_validation_error(small_cfg_path):
    code = cli.main(["validate", "--config", small_cfg_path,
                     "--set", "graph.nodes=1"])
    assert code == cli.EXIT_VALIDATION


def test_cli_run_writes_curve_csv(small_cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", small_cfg_path, "--out", str(out),
                     "--gnuplot"])
    assert code == cli.EXIT_OK
    csv = (out / "learning_curve.csv").read_text().splitlines()
    assert csv[0] == "iteration,dlms_msd_db,ac-dlms_msd_db"
    assert len(csv) == 51
    first = csv[1].split(",")
    assert first[0] == "1" or first[0] == "0"
    float(first[1])  # numeric cells
    assert (out / "learning_curve.gp").exists()


def test_cli_run_per_node_csv(small_cfg_path, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", small_cfg_path, "--out", str(out),
                     "--per-node-msd", "--runs", "2"])
    assert code == cli.EXIT_OK
    pn = (out / "dlms_per_node.csv").read_text().splitlines()
    assert pn[0] == "iteration," + ",".join(
        f"node{k}_msd_db" for k in range(5))
    assert len(pn) == 51


def test_cli_run_failure_leaves_no_partial_files(small_cfg_path, tmp_path,
                                                 capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", small_cfg_path, "--out", str(out),
                     "--set", "algorithms.0.step_size=50",
                     "--set", "iterations=80"])
    assert code == cli.EXIT_NUMERICAL
    assert not (out / "learning_curve.csv").exists()
    assert not list(out.glob("*.tmp")) if out.exists() else True


def test_cli_sweep(small_cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", small_cfg_path, "--out", str(out),
                     "--param", "sigma_a2", "--values", "0.01,0.04",
                     "--set", "iterations=30", "--runs", "2"])
    assert code == cli.EXIT_OK
    csv = (out / "sweep_sigma_a2.csv").read_text().splitlines()
    assert csv[0] == "param_value,dlms_steady_db,ac-dlms_steady_db"
    assert len(csv) == 3
    assert csv[1].startswith("0.01,")


def test_cli_sweep_without_spec_fails(small_cfg_path, capsys):
    code = cli.main(["sweep", "--config", small_cfg_path])
    assert code == cli.EXIT_VALIDATION


def test_cli_theory_report(small_cfg_path, tmp_path, capsys):
    # SMALL_CFG plus a total-correntropy algorithm, which the closed form
    # models; dlms shares data over LMS cross links, which it does not
    p = tmp_path / "theory.cfg"
    p.write_text(SMALL_CFG + "  - {name: dmtc, estimator: mtc, step_size: 0.045,"
                 " zeta2: 0.2}\n")
    out = tmp_path / "out"
    code = cli.main(["theory", "--config", str(p), "--out", str(out)])
    assert code == cli.EXIT_OK
    text = (out / "theory_report.txt").read_text()
    assert "dmtc.rho=" in text
    assert "dmtc.mu_bound.node0=" in text
    assert "dlms.skipped=cross_link_estimator\n" in text
    assert "dlms.rho=" not in text
    assert "ac-dlms.skipped=adaptive_combination" in text


def test_cli_theory_fig1_skips_unmodeled_estimators(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["theory", "--config", os.path.join(PRESET_DIR, "fig1.cfg"),
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = (out / "theory_report.txt").read_text().splitlines()
    assert "dlms.skipped=cross_link_estimator" in lines
    assert "dmcc.skipped=cross_link_estimator" in lines
    assert not [ln for ln in lines
                if ln.startswith(("dlms.", "dmcc.")) and "skipped" not in ln]
    # the modeled algorithms print what they printed before the gate
    for line in ("noncoop-lms.mu_bound.node0=2", "noncoop-lms.rho=0.9",
                 "noncoop-lms.msd_db=-16.766936",
                 "dmtc-ds.mu_bound.node0=2.04465", "dmtc-ds.rho=0.95992983",
                 "dmtc-ds.msd_db=-32.108252"):
        assert line in lines


def test_cli_theory_skips_phase_one_mixture_noise(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["theory", "--config",
                     os.path.join(PRESET_DIR, "compare.cfg"), "--out", str(out),
                     "--set", "noise.y.c=1", "--set", "noise.y.sigma_b2=1.0"])
    assert code == cli.EXIT_OK
    assert (out / "theory_report.txt").read_text() == \
        "dmtc.skipped=mixture_link_noise\n"


def test_cli_theory_takes_the_limit_at_huge_link_noise(tmp_path, capsys):
    # at 1e308 gamma is past the float range; the cross-link factors take
    # their u -> inf limit, which 1e300 already reaches
    def msd_line(sigma_a2):
        out = tmp_path / sigma_a2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["theory", "--config", COMPARE_CFG, "--out",
                             str(out), "--set", f"noise.y.sigma_a2={sigma_a2}"])
        assert code == cli.EXIT_OK
        assert not [w for w in caught if w.category is RuntimeWarning]
        return (out / "theory_report.txt").read_text().splitlines()[-1]
    assert msd_line("1e308") == msd_line("1e300") == "dmtc.msd_db=-8.040837"


@pytest.mark.parametrize("zeta2", ["1.0e-300", "5e-324"])
def test_cli_theory_is_finite_at_tiny_zeta2(tmp_path, zeta2):
    # p grows as zeta2^-1/2: finite, although zeta2^2 underflows to 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["theory", "--config", COMPARE_CFG, "--out",
                         str(tmp_path), "--set", f"algorithms.0.zeta2={zeta2}"])
    assert code == cli.EXIT_OK
    assert not [w for w in caught if w.category is RuntimeWarning]
    key, _, value = (tmp_path / "theory_report.txt").read_text() \
        .splitlines()[-1].partition("=")
    assert key == "dmtc.msd_db"
    assert math.isfinite(float(value))


@pytest.mark.parametrize("sets, code, words", [
    # |h|^2 past the float range
    (["signal.h=[1.0e+300,1]"], cli.EXIT_PARSE, "signal.h"),
    # the reciprocal of the summed Hessian's spectral radius overflows
    (["signal.input_variance=1.1125369292536007e-308"], cli.EXIT_VALIDATION,
     "step-size bound"),
    # u = gamma underflows in u^2, so p = 0 * inf
    (["noise.x.sigma_a2=1.0e+300", "signal.h=[0.0]"], cli.EXIT_NUMERICAL,
     "link factor"),
])
def test_cli_theory_refuses_past_the_float_range(tmp_path, capsys, sets,
                                                 code, words):
    args = [arg for kv in sets for arg in ("--set", kv)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["theory", "--config", COMPARE_CFG, "--out",
                         str(tmp_path), *args]) == code
    assert not [w for w in caught if w.category is RuntimeWarning]
    assert words in capsys.readouterr().err


def test_cli_theory_computes_rho_once_per_algorithm(tmp_path, monkeypatch,
                                                     capsys):
    from difflab import theory
    calls = []
    radius = theory.spectral_radius

    def counting(m, *args, **kwargs):
        calls.append(m.shape)
        return radius(m, *args, **kwargs)
    monkeypatch.setattr(theory, "spectral_radius", counting)
    code = cli.main(["theory", "--config",
                     os.path.join(PRESET_DIR, "compare.cfg"),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert calls == [(40, 40)]


def test_cli_compare(tmp_path, capsys):
    cfg = SMALL_CFG.replace(
        "- {name: dlms, step_size: 0.1}",
        "- {name: dmtc, estimator: mtc, step_size: 0.045,\n"
        "     zeta2: {initial: 10000, final: 0.2, switch_iteration: 100}}",
    )
    p = tmp_path / "cmp.cfg"
    p.write_text(cfg)
    out = tmp_path / "out"
    code = cli.main(["compare", "--config", str(p), "--out", str(out),
                     "--algo", "dmtc", "--runs", "10",
                     "--set", "iterations=600"])
    assert code == cli.EXIT_OK
    text = (out / "compare_report.txt").read_text()
    assert text.startswith("algorithm=dmtc")
    assert "gap_db=" in text


def test_cli_compare_refuses_all_outlier_link_noise(tmp_path, capsys):
    # c = 1 draws every link sample at sigma_b2, which the Gaussian
    # analysis (evaluated at sigma_a2) does not model
    sets = []
    for ch in ("x", "y", "phi"):
        sets += ["--set", f"noise.{ch}.c=1", "--set", f"noise.{ch}.sigma_b2=1.0"]
    code = cli.main(["compare", "--config",
                     os.path.join(PRESET_DIR, "compare.cfg"),
                     "--out", str(tmp_path / "out"), "--runs", "2", *sets])
    assert code == cli.EXIT_VALIDATION
    assert "pure Gaussian" in capsys.readouterr().err
    assert not (tmp_path / "out" / "compare_report.txt").exists()


@pytest.mark.parametrize("override, reason", [
    ("algorithms.0.estimator=lms", "cross_link_estimator"),
    ("noise.x.sigma_a2=0", "noiseless_input_channel"),
    ("noise.after={switch_iteration: 100, x: {sigma_a2: 0.3},"
     " y: {sigma_a2: 0.3}, phi: {sigma_a2: 0.3}}", "noise_after"),
], ids=["lms", "noiseless_x", "gaussian_after"])
def test_cli_compare_refuses_unmodeled_cases(override, reason, tmp_path,
                                            capsys):
    code = cli.main(["compare", "--config",
                     os.path.join(PRESET_DIR, "compare.cfg"),
                     "--out", str(tmp_path / "out"), "--runs", "2",
                     "--set", override])
    assert code == cli.EXIT_VALIDATION
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "out" / "compare_report.txt").exists()


def test_cli_instability_exit_code(small_cfg_path, monkeypatch, capsys):
    def boom(*a, **k):
        raise InstabilityError("unstable")
    monkeypatch.setattr(cli, "monte_carlo_msd", boom)
    code = cli.main(["run", "--config", small_cfg_path])
    assert code == cli.EXIT_INSTABILITY


def test_cli_non_numeric_override_is_parse_error(small_cfg_path, capsys):
    code = cli.main(["validate", "--config", small_cfg_path,
                     "--set", "graph.nodes=abc"])
    assert code == cli.EXIT_PARSE
    assert "graph.nodes" in capsys.readouterr().err


def test_cli_bad_edge_list_header_is_validation_error(small_cfg_path,
                                                      tmp_path):
    edges = tmp_path / "bad.edges"
    edges.write_text("N x\n0 1\n")
    for path in (edges, tmp_path / "missing.edges"):
        code = cli.main(["validate", "--config", small_cfg_path,
                         "--set", f"graph.edge_list={path}"])
        assert code == cli.EXIT_VALIDATION


def test_cli_observation_variance_length_is_validation_error(tmp_path,
                                                              capsys):
    code = cli.main(["run", "--config", os.path.join(PRESET_DIR, "compare.cfg"),
                     "--out", str(tmp_path / "out"),
                     "--set", "signal.observation_variance=[0.1,0.2]"])
    assert code == cli.EXIT_VALIDATION
    assert "observation variances" in capsys.readouterr().err


def test_cli_empty_h_is_parse_error(tmp_path, capsys):
    code = cli.main(["run", "--config", os.path.join(PRESET_DIR, "compare.cfg"),
                     "--out", str(tmp_path / "out"), "--set", "signal.h=[]"])
    assert code == cli.EXIT_PARSE
    assert "signal.h" in capsys.readouterr().err


def test_cli_sweep_section_takes_overrides(tmp_path, capsys):
    fig3 = os.path.join(PRESET_DIR, "fig3.cfg")
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", fig3, "--out", str(out),
                     "--runs", "1", "--set", "iterations=20",
                     "--set", "sweep.values=[0.5]"])
    assert code == cli.EXIT_OK
    rows = (out / "sweep_zeta2.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0.5"]
    code = cli.main(["sweep", "--config", fig3, "--out", str(out),
                     "--set", "sweep.bogus=1"])
    assert code == cli.EXIT_PARSE
    assert "sweep.bogus" in capsys.readouterr().err


# floats as YAML scalars (.nan, .inf, 1.0e+300), as --set reads them
_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 2.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324,
                     1e-300, 1e300]),
).map(lambda v: yaml.safe_dump(v).partition("\n")[0])
_THEORY_OVERRIDES = st.one_of(
    st.tuples(st.sampled_from([f"noise.{ch}.{key}" for ch in ("x", "y", "phi")
                               for key in ("c", "sigma_a2", "sigma_b2")]),
              _ANY_FLOAT),
    st.tuples(st.just("algorithms.0.estimator"),
              st.sampled_from(["lms", "mcc", "mtc", "gdtls", "bogus"])),
    st.tuples(st.sampled_from(["algorithms.0.share_data",
                               "algorithms.0.share_weights",
                               "algorithms.0.adaptive_combination"]),
              st.sampled_from(["true", "false", '"false"', "[0]", "0", "1",
                               "null"])),
    st.tuples(st.sampled_from(["algorithms.0.step_size", "algorithms.0.zeta2",
                               "algorithms.0.chi", "algorithms.0.epsilon",
                               "signal.input_variance",
                               "signal.observation_variance"]),
              _ANY_FLOAT),
    st.tuples(st.just("signal.h"), st.lists(_ANY_FLOAT, max_size=3).map(
        lambda values: "[" + ",".join(values) + "]")),
    st.tuples(st.sampled_from(["simulation.runs", "graph.nodes", "graph.seed",
                               "algorithms.0.zeta2.switch_iteration"]),
              st.sampled_from(["2.5", "10.9", "true", '"10"', "-1", "12.0",
                               "[10]"])),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_THEORY_OVERRIDES, max_size=6))
def test_cli_theory_random_overrides_exit_cleanly(overrides):
    # whatever the overrides, theory either reports or refuses with a
    # documented exit code; no exception escapes
    sets = [arg for key, value in overrides
            for arg in ("--set", f"{key}={value}")]
    with tempfile.TemporaryDirectory() as out:
        code = cli.main(["theory", "--config",
                         os.path.join(PRESET_DIR, "compare.cfg"),
                         "--out", out, *sets])
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION,
                    cli.EXIT_NUMERICAL, cli.EXIT_INSTABILITY)
