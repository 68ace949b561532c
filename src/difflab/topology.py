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

    Adjacency stores no self-loops; self-membership in each neighborhood
    is implicit.
    """

    n_nodes: int
    edges: tuple  # tuple of (u, v) with u < v
    _adj: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_nodes < 2:
            raise InvalidArgumentError("graph needs at least 2 nodes")
        adj = [set() for _ in range(self.n_nodes)]
        for u, v in self.edges:
            if u == v:
                raise InvalidArgumentError(f"self-loop on node {u}")
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise InvalidArgumentError(f"edge ({u},{v}) out of range")
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", tuple(frozenset(s) for s in adj))
        if not self.is_connected():
            raise InvalidArgumentError("graph is not connected")

    def neighborhood(self, k):
        """Closed neighborhood N_k: the neighbors of k plus k, sorted."""
        return sorted(self._adj[k] | {k})

    def degree(self, k):
        """Neighbor count excluding self."""
        return len(self._adj[k])

    def is_connected(self):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n_nodes

    def adjacency_matrix(self):
        m = np.zeros((self.n_nodes, self.n_nodes), dtype=bool)
        for u, v in self.edges:
            m[u, v] = m[v, u] = True
        return m


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_combination_matrix."""

    ok: bool
    constraint: str = ""
    indices: tuple = ()


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
        edges = tuple(zip(iu[mask].tolist(), ju[mask].tolist()))
        try:
            return NetworkGraph(n_nodes, edges)
        except InvalidArgumentError:
            continue
    raise GenerationFailureError(
        f"no connected graph after 1000 attempts (n={n_nodes}, p={p:.3g})"
    )


def metropolis_weights(graph):
    """Metropolis-Hastings weights: symmetric and doubly stochastic.

    Off-diagonal weight on edge (l, k) is 1/max(deg_l, deg_k); the
    diagonal absorbs the remainder.
    """
    n = graph.n_nodes
    w = np.zeros((n, n))
    for u, v in graph.edges:
        w[u, v] = w[v, u] = 1.0 / max(graph.degree(u), graph.degree(v))
    # the residue can come out a hair below zero when the off-diagonal
    # weights sum to exactly one in real arithmetic
    w[np.diag_indices(n)] = np.maximum(1.0 - w.sum(axis=0), 0.0)
    return w


def validate_combination_matrix(matrix, graph):
    """Check sparsity, nonnegativity, range and per-node convexity.

    matrix is an (N, N) array. Returns a ValidationReport; the first
    violated constraint is named with its offending indices.
    """
    e = np.asarray(matrix, dtype=float)
    n = graph.n_nodes
    if e.shape != (n, n):
        raise InvalidArgumentError(
            f"matrix is {e.shape}, graph has {n} nodes"
        )
    allowed = graph.adjacency_matrix() | np.eye(n, dtype=bool)
    bad = (e != 0) & ~allowed
    if bad.any():
        l, k = np.argwhere(bad)[0]
        return ValidationReport(False, "sparsity", (int(l), int(k)))
    out = (e < 0) | (e > 1)
    if out.any():
        l, k = np.argwhere(out)[0]
        return ValidationReport(False, "range", (int(l), int(k)))
    col = e.sum(axis=0)
    off = np.abs(col - 1.0) > STOCHASTIC_TOL
    if off.any():
        k = int(np.argmax(off))
        return ValidationReport(False, "column-sum", (k,))
    return ValidationReport(True)


def save_edge_list(graph, path):
    """Write the plain-text edge-list format: 'N <n>' then '<u> <v>' lines."""
    with open(path, "w") as fh:
        fh.write(f"N {graph.n_nodes}\n")
        for u, v in sorted(graph.edges):
            fh.write(f"{u} {v}\n")


def _edge_list_int(path, token):
    try:
        return int(token)
    except ValueError as exc:
        raise InvalidArgumentError(
            f"{path}: {token!r} is not an integer") from exc


def load_edge_list(path):
    """Parse the edge-list format written by save_edge_list."""
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
    return NetworkGraph(n, tuple(edges))
