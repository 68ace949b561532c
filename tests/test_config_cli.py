import glob
import os

import pytest

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
    out = tmp_path / "out"
    code = cli.main(["theory", "--config", small_cfg_path, "--out", str(out)])
    assert code == cli.EXIT_OK
    text = (out / "theory_report.txt").read_text()
    assert "dlms.rho=" in text
    assert "dlms.mu_bound.node0=" in text
    assert "ac-dlms.skipped=adaptive_combination" in text


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


def test_cli_non_integer_threads_is_validation_error(small_cfg_path, tmp_path,
                                                      monkeypatch):
    monkeypatch.setenv("DIFFLAB_THREADS", "abc")
    code = cli.main(["run", "--config", small_cfg_path,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_VALIDATION
    assert not (tmp_path / "out").exists()


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
