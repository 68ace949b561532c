"""Experiment config files: parse, validate, override, emit.

The on-disk format is a YAML key tree with fixed sections:

    graph:       nodes, avg_degree, seed | edge_list
    signal:      h, input_variance, observation_variance
    noise:       x / y / phi channel specs, optional `after` phase
    simulation:  iterations, runs, seed, per_node_msd
    algorithms:  list of per-algorithm blocks
    sweep:       optional parameter and values for the `sweep` command

Unknown keys anywhere are hard errors, and `parse_config(emit(cfg))`
reproduces `cfg` exactly. Overrides are dotted paths into the same tree
(`simulation.runs=50`, `algorithms.0.step_size=0.1`); the bare names
`runs`, `seed` and `iterations` are accepted as shorthand for the
corresponding `simulation.*` keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from .engine import AlgorithmSpec, ESTIMATORS, KernelSchedule
from .errors import ConfigError, InvalidArgumentError, UnknownKeyError
from .noise import GmmSpec, LinkNoiseSpec
from .simulate import NetworkProblem
from .topology import generate_random_graph, load_edge_list, metropolis_weights

_GMM_KEYS = {"c", "sigma_a2", "sigma_b2"}
_SCHEDULE_KEYS = {"initial", "final", "switch_iteration"}
_GRAPH_KEYS = {"nodes", "avg_degree", "seed", "edge_list"}
_SIGNAL_KEYS = {"h", "input_variance", "observation_variance"}
_NOISE_KEYS = {"x", "y", "phi", "after"}
_AFTER_KEYS = {"x", "y", "phi", "switch_iteration"}
_SIM_KEYS = {"iterations", "runs", "seed", "per_node_msd"}
_ALGO_KEYS = {
    "name", "estimator", "share_data", "share_weights",
    "adaptive_combination", "step_size", "zeta2", "mcc_kernel2",
    "chi", "epsilon",
}
_TOP_KEYS = {"graph", "signal", "noise", "simulation", "algorithms", "sweep"}
_SWEEP_KEYS = {"parameter", "values"}
_SWEEP_PARAMS = ("sigma_a2", "sigma_b2", "zeta2")

_SHORTHAND = {
    "runs": "simulation.runs",
    "seed": "simulation.seed",
    "iterations": "simulation.iterations",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation experiment."""

    n_nodes: int
    h: tuple
    algorithms: tuple            # AlgorithmSpec, order preserved in outputs
    noise: LinkNoiseSpec         # phase-one link noise + observation noise
    noise_after: LinkNoiseSpec = None   # optional second phase
    noise_switch_iteration: int = 0
    avg_degree: float = 3.0
    graph_seed: int = 7
    edge_list_path: str = None
    input_variance: float = 1.0
    iterations: int = 1000
    monte_carlo_runs: int = 100
    seed: int = 2024
    per_node_msd: bool = False
    sweep: tuple = None          # (parameter, values) of the sweep section

    def __post_init__(self):
        if self.iterations < 1:
            raise InvalidArgumentError("iterations must be >= 1")
        if self.monte_carlo_runs < 1:
            raise InvalidArgumentError("monte_carlo_runs must be >= 1")
        if not self.algorithms:
            raise InvalidArgumentError("at least one algorithm is required")
        names = [a.name for a in self.algorithms]
        if len(set(names)) != len(names):
            raise InvalidArgumentError("algorithm names must be unique")

    def build_graph(self):
        if self.edge_list_path:
            return load_edge_list(self.edge_list_path)
        return generate_random_graph(self.n_nodes, self.avg_degree,
                                     self.graph_seed)

    def noise_phases(self):
        phases = [(0, self.noise)]
        if self.noise_after is not None:
            phases.append((self.noise_switch_iteration, self.noise_after))
        return tuple(phases)

    def build_problem(self):
        graph = self.build_graph()
        weights = metropolis_weights(graph)
        return NetworkProblem(
            graph=graph,
            h=np.asarray(self.h, dtype=float),
            adaptation=weights,
            combination=weights,
            noise_phases=self.noise_phases(),
            input_variance=self.input_variance,
            seed=self.seed,
        )


def _check_keys(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section {where!r} must be a mapping")
    for key in mapping:
        if key not in allowed:
            raise UnknownKeyError(f"unknown key {where}.{key}")


def _number(cast, value, where):
    """cast(value), with a value cast cannot read reported as a ConfigError."""
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from exc


def _gmm(node, where):
    if node is None:
        return GmmSpec()
    _check_keys(node, _GMM_KEYS, where)
    try:
        return GmmSpec(
            c=float(node.get("c", 0.0)),
            sigma_a2=float(node.get("sigma_a2", 0.0)),
            sigma_b2=float(node.get("sigma_b2", 0.0)),
        )
    except (TypeError, ValueError, InvalidArgumentError) as exc:
        raise ConfigError(f"bad noise channel at {where}: {exc}") from exc


def _schedule(node, where):
    if node is None:
        return None
    if isinstance(node, (int, float)):
        return KernelSchedule(float(node), float(node), 0)
    _check_keys(node, _SCHEDULE_KEYS, where)
    missing = {"initial", "final"} - set(node)
    if missing:
        raise ConfigError(f"{where} needs keys {sorted(missing)}")
    try:
        return KernelSchedule(
            initial=float(node["initial"]),
            final=float(node["final"]),
            switch_iteration=int(node.get("switch_iteration", 100)),
        )
    except (TypeError, ValueError, InvalidArgumentError) as exc:
        raise ConfigError(f"bad kernel schedule at {where}: {exc}") from exc


def _algorithm(node, index):
    where = f"algorithms.{index}"
    _check_keys(node, _ALGO_KEYS, where)
    if "name" not in node:
        raise ConfigError(f"{where} needs a name")
    est = node.get("estimator", "lms")
    if est not in ESTIMATORS:
        raise ConfigError(f"{where}.estimator must be one of {ESTIMATORS}")
    step = node.get("step_size", 0.05)
    if isinstance(step, list):
        step = tuple(_number(float, s, f"{where}.step_size") for s in step)
    else:
        step = _number(float, step, f"{where}.step_size")
    try:
        return AlgorithmSpec(
            name=str(node["name"]),
            estimator=est,
            share_data=bool(node.get("share_data", True)),
            share_weights=bool(node.get("share_weights", True)),
            adaptive_combination=bool(node.get("adaptive_combination", False)),
            step_size=step,
            zeta2=_schedule(node.get("zeta2"), f"{where}.zeta2"),
            mcc_kernel2=_schedule(node.get("mcc_kernel2"),
                                  f"{where}.mcc_kernel2"),
            chi=float(node.get("chi", 0.05)),
            epsilon=float(node.get("epsilon", 1e-6)),
        )
    except (TypeError, ValueError, InvalidArgumentError) as exc:
        raise ConfigError(f"bad algorithm at {where}: {exc}") from exc


def _phase(node, obs_var, where):
    return LinkNoiseSpec(
        x=_gmm(node.get("x"), f"{where}.x"),
        y=_gmm(node.get("y"), f"{where}.y"),
        phi=_gmm(node.get("phi"), f"{where}.phi"),
        obs_var=obs_var,
    )


def _sweep(node):
    if node is None:
        return None
    _check_keys(node, _SWEEP_KEYS, "sweep")
    param = node.get("parameter")
    if param not in _SWEEP_PARAMS:
        raise ConfigError(f"sweep.parameter must be one of {_SWEEP_PARAMS}")
    values = node.get("values")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values must be a non-empty list")
    return param, tuple(_number(float, v, "sweep.values") for v in values)


def build_config(tree):
    """Turn a parsed key tree into a validated ExperimentConfig."""
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(tree, _TOP_KEYS, "<root>")
    for section in ("graph", "signal", "noise", "algorithms"):
        if section not in tree:
            raise ConfigError(f"missing section {section!r}")

    graph = tree["graph"]
    _check_keys(graph, _GRAPH_KEYS, "graph")
    signal = tree["signal"]
    _check_keys(signal, _SIGNAL_KEYS, "signal")
    if "h" not in signal:
        raise ConfigError("signal.h is required")
    if not isinstance(signal["h"], list) or not signal["h"]:
        raise ConfigError("signal.h must be a non-empty list")
    h = tuple(_number(float, v, "signal.h") for v in signal["h"])

    obs = signal.get("observation_variance", 0.0)
    obs_var = np.atleast_1d(_number(lambda v: np.asarray(v, dtype=float), obs,
                                    "signal.observation_variance"))

    noise = tree["noise"]
    _check_keys(noise, _NOISE_KEYS, "noise")
    phase_one = _phase(noise, obs_var, "noise")
    noise_after = None
    switch = 0
    if noise.get("after") is not None:
        after = noise["after"]
        _check_keys(after, _AFTER_KEYS, "noise.after")
        if "switch_iteration" not in after:
            raise ConfigError("noise.after.switch_iteration is required")
        switch = _number(int, after["switch_iteration"],
                         "noise.after.switch_iteration")
        noise_after = _phase(after, obs_var, "noise.after")

    sim = tree.get("simulation") or {}
    _check_keys(sim, _SIM_KEYS, "simulation")

    algos = tree["algorithms"]
    if not isinstance(algos, list) or not algos:
        raise ConfigError("algorithms must be a non-empty list")

    try:
        return ExperimentConfig(
            n_nodes=_number(int, graph.get("nodes", 0), "graph.nodes"),
            h=h,
            algorithms=tuple(_algorithm(a, i) for i, a in enumerate(algos)),
            noise=phase_one,
            noise_after=noise_after,
            noise_switch_iteration=switch,
            avg_degree=_number(float, graph.get("avg_degree", 3.0),
                               "graph.avg_degree"),
            graph_seed=_number(int, graph.get("seed", 7), "graph.seed"),
            edge_list_path=graph.get("edge_list"),
            input_variance=_number(float, signal.get("input_variance", 1.0),
                                   "signal.input_variance"),
            iterations=_number(int, sim.get("iterations", 1000),
                               "simulation.iterations"),
            monte_carlo_runs=_number(int, sim.get("runs", 100),
                                     "simulation.runs"),
            seed=_number(int, sim.get("seed", 2024), "simulation.seed"),
            per_node_msd=bool(sim.get("per_node_msd", False)),
            sweep=_sweep(tree.get("sweep")),
        )
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc


def _apply_override(tree, path, value):
    path = _SHORTHAND.get(path, path)
    parts = path.split(".")
    node = tree
    for i, part in enumerate(parts[:-1]):
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError) as exc:
                raise UnknownKeyError(
                    f"override path {path!r}: bad list index {part!r}"
                ) from exc
        elif isinstance(node, dict):
            if part not in node:
                raise UnknownKeyError(
                    f"override path {path!r}: no key {part!r}")
            node = node[part]
        else:
            raise UnknownKeyError(
                f"override path {path!r}: {'.'.join(parts[:i])} is a leaf")
    last = parts[-1]
    if isinstance(node, list):
        try:
            node[int(last)] = value
        except (ValueError, IndexError) as exc:
            raise UnknownKeyError(
                f"override path {path!r}: bad list index {last!r}") from exc
    elif isinstance(node, dict):
        # the key must already exist somewhere legal in the schema; new
        # keys are only allowed where the section schema defines them
        node[last] = value
    else:
        raise UnknownKeyError(f"override path {path!r} targets a leaf")


def parse_overrides(pairs):
    """Split `key=value` strings; values parse as YAML scalars."""
    out = []
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        key, _, raw = pair.partition("=")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override value {raw!r}: {exc}") from exc
        out.append((key.strip(), value))
    return out


def parse_config(path, overrides=()):
    """Load, override, and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, overrides)


def parse_config_text(text, overrides=()):
    try:
        tree = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark or exc.context_mark
        line = mark.line + 1 if mark else None
        col = mark.column + 1 if mark else None
        raise ConfigError(f"config parse error: {exc.problem}",
                          line=line, column=col) from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if tree is None:
        raise ConfigError("config file is empty")
    for key, value in (overrides if not isinstance(overrides, dict)
                       else overrides.items()):
        _apply_override(tree, key, value)
    return build_config(tree)


def _gmm_tree(g):
    return {"c": float(g.c), "sigma_a2": float(g.sigma_a2),
            "sigma_b2": float(g.sigma_b2)}


def _schedule_tree(s):
    if s is None:
        return None
    return {"initial": float(s.initial), "final": float(s.final),
            "switch_iteration": int(s.switch_iteration)}


def _algo_tree(a):
    out = {
        "name": a.name,
        "estimator": a.estimator,
        "share_data": bool(a.share_data),
        "share_weights": bool(a.share_weights),
        "adaptive_combination": bool(a.adaptive_combination),
        "step_size": (list(a.step_size) if isinstance(a.step_size, tuple)
                      else float(a.step_size)),
        "chi": float(a.chi),
        "epsilon": float(a.epsilon),
    }
    if a.zeta2 is not None:
        out["zeta2"] = _schedule_tree(a.zeta2)
    if a.mcc_kernel2 is not None:
        out["mcc_kernel2"] = _schedule_tree(a.mcc_kernel2)
    return out


def config_tree(config):
    """The canonical key tree of an ExperimentConfig."""
    obs = config.noise.obs_var
    obs_out = float(obs[0]) if obs.size == 1 else [float(v) for v in obs]
    graph = {"nodes": int(config.n_nodes),
             "avg_degree": float(config.avg_degree),
             "seed": int(config.graph_seed)}
    if config.edge_list_path:
        graph["edge_list"] = config.edge_list_path
    noise = {
        "x": _gmm_tree(config.noise.x),
        "y": _gmm_tree(config.noise.y),
        "phi": _gmm_tree(config.noise.phi),
    }
    if config.noise_after is not None:
        noise["after"] = {
            "switch_iteration": int(config.noise_switch_iteration),
            "x": _gmm_tree(config.noise_after.x),
            "y": _gmm_tree(config.noise_after.y),
            "phi": _gmm_tree(config.noise_after.phi),
        }
    tree = {
        "graph": graph,
        "signal": {
            "h": [float(v) for v in config.h],
            "input_variance": float(config.input_variance),
            "observation_variance": obs_out,
        },
        "noise": noise,
        "simulation": {
            "iterations": int(config.iterations),
            "runs": int(config.monte_carlo_runs),
            "seed": int(config.seed),
            "per_node_msd": bool(config.per_node_msd),
        },
        "algorithms": [_algo_tree(a) for a in config.algorithms],
    }
    if config.sweep is not None:
        param, values = config.sweep
        tree["sweep"] = {"parameter": param,
                         "values": [float(v) for v in values]}
    return tree


def emit(config):
    """Serialize a config so parse_config_text(emit(cfg)) == cfg."""
    return yaml.safe_dump(config_tree(config), sort_keys=False,
                          default_flow_style=False)
