import errno
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
    ExperimentConfig,
    build_config,
    config_tree,
    emit,
    parse_config,
    parse_config_text,
    parse_overrides,
)
from difflab.errors import ConfigError, InstabilityError, UnknownKeyError
from difflab.topology import load_edge_list

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
    (start, noise), = cfg.noise_phases
    assert start == 0 and noise.x.sigma_a2 == 0.04
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
    # per-node MSD is `run --per-node-msd`, not a config key
    with pytest.raises(UnknownKeyError):
        parse_config_text(SMALL_CFG.replace("seed: 7}",
                                            "seed: 7, per_node_msd: true}"))


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
    # mtc needs a zeta2 schedule and mcc a kernel schedule, and no other
    # estimator takes either; lms may be left to the default estimator
    def tree(estimator):
        required = {"name": st.just(name)}
        optional = {
            "share_data": st.booleans(), "share_weights": st.booleans(),
            "adaptive_combination": st.booleans(),
            "step_size": _one_or_list(_POSITIVE), "chi": st.floats(1e-3, 1.0),
            "epsilon": _POSITIVE,
        }
        schedule = {"mtc": "zeta2", "mcc": "mcc_kernel2"}.get(estimator)
        if schedule:
            required[schedule] = _SCHEDULE_TREES
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
        "seed": st.integers(0, 2**63)}),
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


@pytest.mark.parametrize("jobs", ["0", "-4"])
@pytest.mark.parametrize("command", ["run", "theory", "validate"])
def test_cli_jobs_below_one_is_validation_error(small_cfg_path, tmp_path,
                                                command, jobs, capsys):
    out = tmp_path / "out"
    code = cli.main([command, "--config", small_cfg_path, "--out", str(out),
                     "--jobs", jobs])
    assert code == cli.EXIT_VALIDATION
    assert "jobs" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv", [
    ["theory", "--gnuplot"], ["theory", "--per-node-msd"],
    ["sweep", "--per-node-msd"], ["compare", "--per-node-msd"],
    ["validate", "--gnuplot"]], ids=" ".join)
def test_cli_refuses_a_flag_the_command_does_not_read(small_cfg_path, argv,
                                                      capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", small_cfg_path])
    assert exc.value.code == cli.EXIT_PARSE


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


def test_cli_sweep_gnuplot_lists_its_script(small_cfg_path, tmp_path,
                                            capsys):
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", small_cfg_path, "--out", str(out),
                     "--param", "zeta2", "--values", "0.2", "--gnuplot",
                     "--set", "iterations=10", "--runs", "1"])
    assert code == cli.EXIT_OK
    script = (out / "sweep_zeta2.gp").read_text()
    assert "'sweep_zeta2.csv' using 1:2 with lines title 'dlms'" in script
    assert "'sweep_zeta2.csv' using 1:3 with lines title 'ac-dlms'" in script
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"wrote {out / 'sweep_zeta2.csv'}", f"wrote {out / 'sweep_zeta2.gp'}"]


# The argument lists of every writing command, on compare.cfg.
_WRITERS = {
    "run": ["run"],
    "sweep": ["sweep", "--param", "sigma_a2", "--values", "0.1"],
    "theory": ["theory"],
    "compare": ["compare"],
}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", list(_WRITERS))
def test_cli_refuses_an_unwritable_out_before_any_work(
        command, under, tmp_path, monkeypatch, capsys):
    # --out is an existing file, or a path under one: exit 3 that names
    # it, before the scenario is built or anything simulated
    def never(*args, **kwargs):
        raise AssertionError("work began before --out was created")
    monkeypatch.setattr(cli, "monte_carlo_msd", never)
    monkeypatch.setattr(ExperimentConfig, "build_problem", never)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if under else taken
    code = cli.main([*_WRITERS[command], "--config", COMPARE_CFG,
                     "--out", str(out), "--runs", "1"])
    assert code == cli.EXIT_VALIDATION
    assert f"cannot write {out}: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["taken"]
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["run", "theory"])
def test_cli_failed_write_is_validation_error(command, tmp_path,
                                              monkeypatch, capsys):
    # the disk fills up: exit 3 that names the file, and no file or temp
    # file is left in --out
    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(tempfile, "mkstemp", full)
    out = tmp_path / "out"
    code = cli.main([command, "--config", COMPARE_CFG, "--out", str(out),
                     "--runs", "1", "--set", "iterations=5",
                     *(["--gnuplot"] if command == "run" else [])])
    assert code == cli.EXIT_VALIDATION
    name = "learning_curve.csv" if command == "run" else "theory_report.txt"
    assert f"cannot write {out / name}: No space left" in \
        capsys.readouterr().err
    assert os.listdir(out) == []


def test_cli_failed_write_keeps_the_old_outputs(tmp_path, monkeypatch,
                                               capsys):
    # the disk fills up at the second file: exit 3 that names it, the old
    # learning curve is kept byte for byte, and no temp file is left
    made = []
    mkstemp = tempfile.mkstemp

    def second_full(*args, **kwargs):
        made.append(None)
        if len(made) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return mkstemp(*args, **kwargs)
    monkeypatch.setattr(tempfile, "mkstemp", second_full)
    out = tmp_path / "out"
    out.mkdir()
    (out / "learning_curve.csv").write_bytes(b"old,curve\n")
    code = cli.main(["run", "--config", COMPARE_CFG, "--out", str(out),
                     "--runs", "1", "--set", "iterations=5", "--gnuplot"])
    assert code == cli.EXIT_VALIDATION
    assert f"cannot write {out / 'learning_curve.gp'}: No space left" in \
        capsys.readouterr().err
    assert os.listdir(out) == ["learning_curve.csv"]
    assert (out / "learning_curve.csv").read_bytes() == b"old,curve\n"


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
    # the modeled algorithms' bounds and predictions; dmtc-ds shares no
    # weights, so its mean recursion combines with C = I
    for line in ("noncoop-lms.mu_bound.node0=2", "noncoop-lms.rho=0.9",
                 "noncoop-lms.msd_db=-16.766936",
                 "dmtc-ds.mu_bound.node0=2.04465", "dmtc-ds.rho=0.96196371",
                 "dmtc-ds.msd_db=-23.606570"):
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
    # steady_state_msd computes rho; nothing else solves for it
    from difflab import harness
    calls = []
    solve = harness.steady_state_msd

    def counting(ti, *args, **kwargs):
        calls.append(ti.n_nodes)
        return solve(ti, *args, **kwargs)
    monkeypatch.setattr(harness, "steady_state_msd", counting)
    code = cli.main(["theory", "--config",
                     os.path.join(PRESET_DIR, "compare.cfg"),
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert calls == [10]


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


@pytest.mark.parametrize("share_data, share_weights", [
    ("true", "true"), ("true", "false"), ("false", "true"),
    ("false", "false")])
def test_cli_compare_gap_over_sharing_patterns(share_data, share_weights,
                                               tmp_path, capsys):
    # the closed form adapts with A and combines with C, as the simulator
    # does: at 32 runs of compare.cfg every pattern is within criterion
    # 6's 2 dB, also where A and C differ (data only, weights only)
    out = tmp_path / "out"
    code = cli.main(["compare", "--config", COMPARE_CFG, "--out", str(out),
                     "--runs", "32", "--jobs", "2",
                     "--set", f"algorithms.0.share_data={share_data}",
                     "--set", f"algorithms.0.share_weights={share_weights}"])
    assert code == cli.EXIT_OK
    report = dict(line.split("=", 1) for line in
                  (out / "compare_report.txt").read_text().splitlines())
    assert report["diverged_runs"] == "0"
    assert abs(float(report["gap_db"])) <= 2.0


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
    # lms reads no zeta2 schedule, so the whole block is replaced
    ("algorithms.0={name: dmtc, estimator: lms, step_size: 0.0449}",
     "cross_link_estimator"),
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


@pytest.mark.parametrize("command", ["run", "sweep", "theory", "compare",
                                     "validate"])
def test_cli_step_size_length_is_validation_error(command, tmp_path, capsys):
    # the sweep section is what `sweep` sweeps; the other commands ignore it
    out = tmp_path / "out"
    code = cli.main([command, "--config", COMPARE_CFG, "--out", str(out),
                     "--runs", "2", "--set", "iterations=10",
                     "--set", "algorithms.0.step_size=[0.1,0.2]",
                     "--set", "sweep={parameter: zeta2, values: [0.2]}"])
    assert code == cli.EXIT_VALIDATION
    assert "dmtc: 2 step sizes for 10 nodes" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("switch", [-5, 0])
@pytest.mark.parametrize("command", ["run", "sweep", "theory", "compare",
                                     "validate"])
def test_cli_noise_switch_before_iteration_one_is_validation_error(
        command, switch, tmp_path, capsys):
    # a second phase from iteration 0 or earlier would replace the first
    # from the start; the problem refuses it, naming the start
    out = tmp_path / "out"
    phase = "{c: 0.0, sigma_a2: 0.5, sigma_b2: 0.0}"
    code = cli.main([command, "--config", COMPARE_CFG, "--out", str(out),
                     "--runs", "2", "--set", "iterations=10",
                     "--set", f"noise.after={{switch_iteration: {switch}, "
                              f"x: {phase}, y: {phase}, phi: {phase}}}",
                     "--set", "sweep={parameter: zeta2, values: [0.2]}"])
    assert code == cli.EXIT_VALIDATION
    assert f"starting at iteration {switch}" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("override, named", [
    ("algorithms.1.zeta2=0.2", "algorithms.1: zeta2"),
    ("algorithms.5.mcc_kernel2=0.9", "algorithms.5: mcc_kernel2")])
def test_cli_schedule_on_an_estimator_that_ignores_it_is_config_error(
        override, named, tmp_path, capsys):
    # fig1's dlms (1) reads no zeta2 and its dmtc-ds (5) no mcc_kernel2;
    # a zeta2 sweep would rescale the step size of an lms that has one
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", os.path.join(PRESET_DIR, "fig1.cfg"),
                     "--out", str(out), "--set", override])
    assert code == cli.EXIT_PARSE
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_cli_edge_list_counts_a_repeated_edge_once(small_cfg_path, tmp_path,
                                                   capsys):
    repeated, plain = tmp_path / "repeated.edges", tmp_path / "plain.edges"
    repeated.write_text("N 3\n0 1\n1 0\n1 2\n")
    plain.write_text("N 3\n0 1\n1 2\n")
    assert load_edge_list(repeated) == load_edge_list(plain)
    code = cli.main(["validate", "--config", small_cfg_path,
                     "--set", f"graph.edge_list={repeated}"])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("ok: 3 nodes, 2 edges,")


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


def _yaml_scalar(value):
    """A float as a YAML scalar (.nan, .inf, 1.0e+300), as --set reads it."""
    return yaml.safe_dump(value).partition("\n")[0]


def _yaml_list(values):
    return "[" + ",".join(values) + "]"


# Any float at all, and floats that most keys take: in [0, 1], or an
# extreme that the simulator must survive.
_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 2.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324,
                     1e-300, 1e300]),
).map(_yaml_scalar)
_TAKEN_FLOAT = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, 2.0, 5e-324, 1e-300, 1e300]),
).map(_yaml_scalar)
_PHASE_KEYS = [f"noise.{ch}.{key}" for ch in ("x", "y", "phi")
               for key in ("c", "sigma_a2", "sigma_b2")]
_AFTER_KEYS = [key.replace("noise.", "noise.after.") for key in _PHASE_KEYS]
_FLAG_KEYS = ["algorithms.0.share_data", "algorithms.0.share_weights",
              "algorithms.0.adaptive_combination"]
_REAL_KEYS = ["algorithms.0.step_size", "algorithms.0.zeta2",
              "algorithms.0.chi", "algorithms.0.epsilon",
              "signal.input_variance", "signal.observation_variance"]
_INTEGER_KEYS = ["simulation.runs", "graph.nodes", "graph.seed",
                 "algorithms.0.zeta2.switch_iteration"]


def _estimator_swap(estimator):
    """Overrides that give algorithm 0 this estimator and the kernel
    schedule it reads: mcc gets an mcc_kernel2, lms and gdtls drop the
    zeta2 that compare.cfg's mtc carries, and mtc keeps its own."""
    pairs = [("algorithms.0.estimator", estimator)]
    if estimator in ("lms", "mcc", "gdtls"):
        pairs.append(("algorithms.0.zeta2", "null"))
    if estimator == "mcc":
        pairs.append(("algorithms.0.mcc_kernel2", "0.9"))
    return pairs


def _overrides(noise_keys, floats, estimators, flags, integers, h_min):
    """Lists of (key, YAML value) pairs, one branch per kind of key; all
    but the estimator swap give one pair."""
    def one(pairs):
        return pairs.map(lambda pair: [pair])
    return st.one_of(
        one(st.tuples(st.sampled_from(noise_keys), floats)),
        st.sampled_from(estimators).map(_estimator_swap),
        one(st.tuples(st.sampled_from(_FLAG_KEYS), st.sampled_from(flags))),
        one(st.tuples(st.sampled_from(_REAL_KEYS), floats)),
        one(st.tuples(st.just("algorithms.0.step_size"), st.lists(
            st.floats(1e-6, 2.0).map(_yaml_scalar), min_size=1,
            max_size=12).map(_yaml_list))),
        one(st.tuples(st.just("signal.h"), st.lists(
            floats, min_size=h_min, max_size=3).map(_yaml_list))),
        one(st.tuples(st.sampled_from(_INTEGER_KEYS),
                      st.sampled_from(integers))),
    )


# Every override the property tests can make, bad casts (exit 2) among
# them: non-finite floats, quoted or numeric booleans, an unknown
# estimator, non-integral integers, an empty h, a missing noise phase.
_ANY_OVERRIDE = _overrides(
    _PHASE_KEYS + _AFTER_KEYS, _ANY_FLOAT,
    ["lms", "mcc", "mtc", "gdtls", "bogus"],
    ["true", "false", '"false"', "[0]", "0", "1", "null"],
    ["2.5", "10.9", "true", '"10"', "-1", "12.0", "[10]"], 0)


def _preset_overrides(noise_keys):
    """Lists of overrides for a preset with these noise keys. One
    override in ten comes from _ANY_OVERRIDE; the rest take values that
    the casts accept and that are mostly in range, so that most examples
    get past parsing and reach the simulator."""
    taken = _overrides(noise_keys, _TAKEN_FLOAT, ["lms", "mcc", "gdtls"],
                       ["true", "false", "null"], ["12", "12.0"], 1)
    return st.lists(st.integers(0, 9).flatmap(
        lambda k: _ANY_OVERRIDE if k == 0 else taken), max_size=6).map(
            lambda groups: [pair for group in groups for pair in group])


@settings(max_examples=150, deadline=None)
@given(_preset_overrides(_PHASE_KEYS))
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


_RUN_OVERRIDES = {"compare.cfg": _preset_overrides(_PHASE_KEYS)}
for _name in ("fig1.cfg", "fig3.cfg", "fig2a.cfg"):
    _RUN_OVERRIDES[_name] = _preset_overrides(_PHASE_KEYS + _AFTER_KEYS)
# swept values: valid ones with 0 and repeats, or any float at all
_SWEPT = ["sigma_a2", "sigma_b2", "zeta2"]
_SWEEP_VALUES = st.one_of(
    st.lists(st.sampled_from(["0", "0.01", "0.04", "0.2", "1", "25"]),
             min_size=1, max_size=4),
    st.lists(st.one_of(_ANY_FLOAT, st.sampled_from(["0", "-1", ".nan"])),
             min_size=1, max_size=4),
).map(_yaml_list)


@pytest.mark.parametrize("preset, command", [
    ("compare.cfg", "run"), ("fig1.cfg", "run"), ("fig3.cfg", "sweep"),
    ("fig2a.cfg", "sweep"), ("compare.cfg", "compare"),
], ids=["compare.cfg", "fig1.cfg", "fig3.cfg", "fig2a.cfg", "compare"])
@settings(max_examples=100, deadline=None)
@given(data=st.data(), runs=st.integers(1, 4), iterations=st.integers(1, 30),
       switch=st.integers(0, 30))
def test_cli_run_random_overrides_exit_cleanly(preset, command, data, runs,
                                               iterations, switch):
    # the same inputs through the simulator: run, sweep on the presets
    # with a sweep section (over a random parameter and values), and
    # compare either write their output or refuse with a documented exit
    # code. The size is set last, so it wins; the mixture phase starts
    # inside the run.
    sets = ([f"noise.after.switch_iteration={switch}"]
            if preset != "compare.cfg" else [])
    sets += [f"{key}={value}"
             for key, value in data.draw(_RUN_OVERRIDES[preset])]
    if command == "sweep":
        sets += [f"sweep.parameter={data.draw(st.sampled_from(_SWEPT))}",
                 f"sweep.values={data.draw(_SWEEP_VALUES)}"]
    sets += [f"simulation.runs={runs}", f"simulation.iterations={iterations}"]
    with tempfile.TemporaryDirectory() as out:
        code = cli.main([command, "--config",
                         os.path.join(PRESET_DIR, preset), "--out", out,
                         "--jobs", "1",
                         *(arg for s in sets for arg in ("--set", s))])
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION,
                    cli.EXIT_NUMERICAL, cli.EXIT_INSTABILITY)
