"""Network graphs and Metropolis weight matrices.

A network is an undirected connected graph over estimation nodes. Each
node's neighborhood includes itself. One (N, N) weight matrix serves for
both adaptation (A) and combination (C): entry [l, k] is the weight node
k applies to data received from node l, nonzero only on neighborhood
links, and every node's received weights form a convex combination
(columns sum to one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationFailureError, InvalidArgumentError

STOCHASTIC_TOL = 1e-12


@dataclass(frozen=True)
class NetworkGraph:
    """Undirected connected graph of estimation nodes.

    closed is the read-only (N, N) boolean matrix of the closed
    neighborhoods, built once from edges: closed[l, k] is True when l is
    in N_k. It is symmetric and its diagonal is set.
    """

    n_nodes: int
    edges: tuple  # tuple of (u, v) with u < v
    closed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_nodes < 2:
            raise InvalidArgumentError("graph needs at least 2 nodes")
        for u, v in self.edges:
            if u == v:
                raise InvalidArgumentError(f"self-loop on node {u}")
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise InvalidArgumentError(f"edge ({u},{v}) out of range")
        closed = _closed(self.n_nodes,
                         *np.array(self.edges, dtype=int).reshape(-1, 2).T)
        closed.setflags(write=False)
        object.__setattr__(self, "closed", closed)
        if not self.is_connected():
            raise InvalidArgumentError("graph is not connected")

    def degrees(self):
        """(N,) neighbor counts, self excluded."""
        return self.closed.sum(axis=0) - 1

    def is_connected(self):
        return _connected(self.closed)


def _closed(n_nodes, u, v):
    """The closed-neighborhood matrix of the edges (u[i], v[i])."""
    closed = np.eye(n_nodes, dtype=bool)
    closed[u, v] = closed[v, u] = True
    return closed


def _connected(closed):
    """True when every node reaches node 0 over the symmetric boolean
    matrix closed, whose diagonal is set."""
    links = closed.astype(float)
    reached, count = links[0], 0
    while np.count_nonzero(reached) > count:
        count = np.count_nonzero(reached)
        reached = np.minimum(links @ reached, 1.0)
    return count == len(closed)


def generate_random_graph(n_nodes, avg_degree, seed):
    """Sample a connected Erdos-Renyi graph with the given mean degree.

    Edges are sampled independently with probability
    avg_degree / (n_nodes - 1); disconnected samples are rejected and
    redrawn (budget 1000). Deterministic for a fixed seed.
    """
    if n_nodes < 2:
        raise InvalidArgumentError("n_nodes must be >= 2")
    if not 0 < avg_degree <= n_nodes - 1:
        raise InvalidArgumentError("avg_degree must be in (0, n_nodes - 1]")
    p = avg_degree / (n_nodes - 1)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    iu, ju = np.triu_indices(n_nodes, k=1)
    for _ in range(1000):
        mask = rng.random(iu.size) < p
        u, v = iu[mask], ju[mask]
        if _connected(_closed(n_nodes, u, v)):
            return NetworkGraph(n_nodes, tuple(zip(u.tolist(), v.tolist())))
    raise GenerationFailureError(
        f"no connected graph after 1000 attempts (n={n_nodes}, p={p:.3g})"
    )


def metropolis_weights(graph):
    """Metropolis-Hastings weights: symmetric and doubly stochastic.

    Off-diagonal weight on edge (l, k) is 1/max(deg_l, deg_k); the
    diagonal absorbs the remainder.
    """
    deg = graph.degrees()
    w = np.where(graph.closed, 1.0 / np.maximum.outer(deg, deg), 0.0)
    np.fill_diagonal(w, 0.0)
    # the residue can come out a hair below zero when the off-diagonal
    # weights sum to exactly one in real arithmetic
    np.fill_diagonal(w, np.maximum(1.0 - w.sum(axis=0), 0.0))
    return w


def validate_combination_matrix(matrix, graph):
    """Check sparsity, nonnegativity, range and per-node convexity.

    matrix is an (N, N) array. The first violated constraint raises
    InvalidArgumentError naming it and its offending indices.
    """
    e = np.asarray(matrix, dtype=float)
    n = graph.n_nodes
    if e.shape != (n, n):
        raise InvalidArgumentError(
            f"matrix is {e.shape}, graph has {n} nodes"
        )
    for constraint, bad in (("sparsity", (e != 0) & ~graph.closed),
                            ("range", ~((e >= 0) & (e <= 1))),  # NaN too
                            ("column-sum",
                             np.abs(e.sum(axis=0) - 1.0) > STOCHASTIC_TOL)):
        if bad.any():
            at = tuple(int(i) for i in np.argwhere(bad)[0])
            raise InvalidArgumentError(f"weights violate {constraint} at {at}")


def _edge_list_int(path, token):
    try:
        return int(token)
    except ValueError as exc:
        raise InvalidArgumentError(
            f"{path}: {token!r} is not an integer") from exc


def load_edge_list(path):
    """Parse an edge list, 'N <n_nodes>' then a '<u> <v>' line per edge;
    blank lines, and repeats of an edge either way round, add nothing."""
    try:
        with open(path) as fh:
            lines = [ln.split() for ln in fh if ln.strip()]
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read edge list: {exc}") from exc
    if not lines or lines[0][0] != "N" or len(lines[0]) != 2:
        raise InvalidArgumentError(f"{path}: first line must be 'N <n_nodes>'")
    n = _edge_list_int(path, lines[0][1])
    edges = []
    for parts in lines[1:]:
        if len(parts) != 2:
            raise InvalidArgumentError(f"{path}: malformed edge line {parts}")
        u, v = _edge_list_int(path, parts[0]), _edge_list_int(path, parts[1])
        edges.append((min(u, v), max(u, v)))
    return NetworkGraph(n, tuple(sorted(set(edges))))
