"""Experiment config files: parse, validate, override, emit.

The on-disk format is a YAML key tree with fixed sections:

    graph:       nodes, avg_degree, seed | edge_list
    signal:      h, input_variance, observation_variance
    noise:       x / y / phi channel specs, optional `after` phase
    simulation:  iterations, runs, seed
    algorithms:  list of per-algorithm blocks
    sweep:       optional parameter and values for the `sweep` command

The schema tables below are the one place that lists the keys. Each maps
a key to its cast (for the graph, signal and simulation sections, to the
ExperimentConfig field it sets and its cast); `build_config` reads a
tree through them and `config_tree` writes one back, so
`parse_config(emit(cfg))` reproduces `cfg` exactly. A key left out, or
given as null, takes its dataclass default. Unknown keys anywhere are
hard errors, and so is a value that its cast refuses: every number must
be finite, booleans must be `true` or `false`, and integers integral.
Overrides are dotted paths into the same tree (`simulation.runs=50`,
`algorithms.0.step_size=0.1`); the bare names `runs`, `seed` and
`iterations` are accepted as shorthand for the corresponding
`simulation.*` keys.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np
import yaml

from .engine import AlgorithmSpec, KernelSchedule
from .errors import ConfigError, InvalidArgumentError, UnknownKeyError
from .noise import GmmSpec, LinkNoiseSpec
from .simulate import NetworkProblem
from .topology import generate_random_graph, load_edge_list, metropolis_weights

_TOP_KEYS = {"graph", "signal", "noise", "simulation", "algorithms", "sweep"}
_SWEEP_PARAMS = ("sigma_a2", "sigma_b2", "zeta2")

_SHORTHAND = {
    "runs": "simulation.runs",
    "seed": "simulation.seed",
    "iterations": "simulation.iterations",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation experiment."""

    h: tuple
    algorithms: tuple            # AlgorithmSpec, order preserved in outputs
    noise_phases: tuple          # (start, LinkNoiseSpec) pairs from 0
    n_nodes: int = 0             # random-graph size; unused with edge_list_path
    avg_degree: float = 3.0
    graph_seed: int = 7
    edge_list_path: str = None
    input_variance: float = 1.0
    observation_variance: float | tuple = 0.0   # one, or one per node
    iterations: int = 1000
    monte_carlo_runs: int = 100
    seed: int = 2024
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

    def build_problem(self):
        """The NetworkProblem of this config; every algorithm's step sizes
        must fit its graph."""
        graph = self.build_graph()
        for algo in self.algorithms:
            algo.step_sizes(graph.n_nodes)
        return NetworkProblem(
            graph=graph,
            h=np.asarray(self.h, dtype=float),
            weights=metropolis_weights(graph),
            noise_phases=self.noise_phases,
            input_variance=self.input_variance,
            obs_var=self.observation_variance,
            seed=self.seed,
        )


# Casts: cast(value, where) returns the field value or raises a
# ConfigError that names the key.

def _real(value, where):
    """A finite float; a numeric string counts (YAML reads 1e-6 as one)."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number):
            return number
    raise ConfigError(f"{where}: expected a finite number, got {value!r}")


def _reals(value, where):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list")
    return tuple(_real(v, where) for v in value)


def _vector(value, where):
    """A non-empty list of finite floats whose squared norm is finite too."""
    v = _reals(value, where)
    if not math.isfinite(sum(x * x for x in v)):
        raise ConfigError(f"{where}: squared norm is past the float range")
    return v


def _real_or_reals(value, where):
    """One finite float, or a list of them (one per node) as a tuple."""
    return (_reals if isinstance(value, list) else _real)(value, where)


def _integer(value, where):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{where}: expected an integer, got {value!r}")


def _seed(value, where):
    seed = _integer(value, where)
    if seed < 0:
        raise ConfigError(f"{where}: expected a seed >= 0, got {value!r}")
    return seed


def _flag(value, where):
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _text(value, where):
    return str(value)


def _gmm(value, where):
    return _make(GmmSpec, value, _GMM, where)


def _schedule(value, where):
    """A KernelSchedule; a bare number v is the constant schedule (v, v, 0)."""
    if not isinstance(value, dict):
        value = {"initial": value, "final": value, "switch_iteration": 0}
    return _make(KernelSchedule, value, _SCHEDULE, where)


def _after(value, where):
    """(switch_iteration, LinkNoiseSpec) of the noise.after section."""
    kwargs = _read(value, {**_PHASE, "switch_iteration": _integer}, where)
    if "switch_iteration" not in kwargs:
        raise ConfigError(f"{where}.switch_iteration is required")
    return kwargs.pop("switch_iteration"), LinkNoiseSpec(**kwargs)


# Schema tables. For specs whose fields are the keys: key -> cast.
_GMM = {"c": _real, "sigma_a2": _real, "sigma_b2": _real}
_SCHEDULE = {"initial": _real, "final": _real, "switch_iteration": _integer}
_PHASE = {"x": _gmm, "y": _gmm, "phi": _gmm}
_ALGORITHM = {
    "name": _text, "estimator": _text, "share_data": _flag,
    "share_weights": _flag, "adaptive_combination": _flag,
    "step_size": _real_or_reals, "chi": _real, "epsilon": _real,
    "zeta2": _schedule, "mcc_kernel2": _schedule,
}
# ExperimentConfig sections: key -> (field, cast).
_SECTIONS = {
    "graph": {
        "nodes": ("n_nodes", _integer),
        "avg_degree": ("avg_degree", _real),
        "seed": ("graph_seed", _seed),
        "edge_list": ("edge_list_path", _text),
    },
    "signal": {
        "h": ("h", _vector),
        "input_variance": ("input_variance", _real),
        "observation_variance": ("observation_variance", _real_or_reals),
    },
    "simulation": {
        "iterations": ("iterations", _integer),
        "runs": ("monte_carlo_runs", _integer),
        "seed": ("seed", _seed),
    },
}
# The sweep section: key -> cast, in the order of ExperimentConfig.sweep.
_SWEEP = {"parameter": _text, "values": _reals}
_SPEC_TABLES = {GmmSpec: _GMM, KernelSchedule: _SCHEDULE}


def _entry(key, entry):
    """(field, cast) of a table entry; a bare cast sets the field `key`."""
    return entry if isinstance(entry, tuple) else (key, entry)


def _read(node, table, where):
    """{field: cast value} for the keys that a mapping gives; null is left out."""
    if not isinstance(node, dict):
        raise ConfigError(f"section {where!r} must be a mapping")
    out = {}
    for key, value in node.items():
        if key not in table:
            raise UnknownKeyError(f"unknown key {where}.{key}")
        if value is not None:
            field, cast = _entry(key, table[key])
            out[field] = cast(value, f"{where}.{key}")
    return out


def _make(cls, node, table, where):
    """cls built from the keys of node; its refusals are ConfigErrors."""
    kwargs = _read(node, table, where)
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.name not in kwargs]
    if missing:
        raise ConfigError(f"{where} needs keys {missing}")
    try:
        return cls(**kwargs)
    except InvalidArgumentError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _sweep(node):
    kwargs = _read(node, _SWEEP, "sweep")
    if kwargs.get("parameter") not in _SWEEP_PARAMS:
        raise ConfigError(f"sweep.parameter must be one of {_SWEEP_PARAMS}")
    if "values" not in kwargs:
        raise ConfigError("sweep.values must be a non-empty list")
    return kwargs["parameter"], kwargs["values"]


def build_config(tree):
    """Turn a parsed key tree into a validated ExperimentConfig."""
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a mapping")
    for key in tree:
        if key not in _TOP_KEYS:
            raise UnknownKeyError(f"unknown key <root>.{key}")
    tree = {key: value for key, value in tree.items() if value is not None}
    for section in ("graph", "signal", "noise", "algorithms"):
        if section not in tree:
            raise ConfigError(f"missing section {section!r}")
    kwargs = {}
    for section, table in _SECTIONS.items():
        kwargs.update(_read(tree.get(section, {}), table, section))
    if "h" not in kwargs:
        raise ConfigError("signal.h is required")
    noise = _read(tree["noise"], {**_PHASE, "after": _after}, "noise")
    after = noise.pop("after", None)
    kwargs["noise_phases"] = ((0, LinkNoiseSpec(**noise)),) + (
        (after,) if after else ())
    algos = tree["algorithms"]
    if not isinstance(algos, list) or not algos:
        raise ConfigError("algorithms must be a non-empty list")
    kwargs["algorithms"] = tuple(_make(AlgorithmSpec, a, _ALGORITHM,
                                       f"algorithms.{i}")
                                 for i, a in enumerate(algos))
    if "sweep" in tree:
        kwargs["sweep"] = _sweep(tree["sweep"])
    try:
        return ExperimentConfig(**kwargs)
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
    for key, value in overrides:
        _apply_override(tree, key, value)
    return build_config(tree)


def _write(obj, table):
    """The key tree of obj under table; a field that is None is left out."""
    out = {}
    for key, entry in table.items():
        value = getattr(obj, _entry(key, entry)[0])
        if value is not None:
            out[key] = _plain(value)
    return out


def _plain(value):
    """A field value as YAML data: specs as key trees, tuples as lists."""
    table = _SPEC_TABLES.get(type(value))
    if table is not None:
        return _write(value, table)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


def config_tree(config):
    """The canonical key tree of an ExperimentConfig."""
    graph, signal, simulation = (_write(config, table)
                                 for table in _SECTIONS.values())
    (_, first), *after = config.noise_phases
    noise = _write(first, _PHASE)
    if after:
        (start, spec), = after
        noise["after"] = {"switch_iteration": start, **_write(spec, _PHASE)}
    tree = {"graph": graph, "signal": signal, "noise": noise,
            "simulation": simulation,
            "algorithms": [_write(a, _ALGORITHM) for a in config.algorithms]}
    if config.sweep is not None:
        tree["sweep"] = {key: _plain(value)
                         for key, value in zip(_SWEEP, config.sweep)}
    return tree


def emit(config):
    """Serialize a config so parse_config_text(emit(cfg)) == cfg."""
    return yaml.safe_dump(config_tree(config), sort_keys=False,
                          default_flow_style=False)
