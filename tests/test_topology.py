import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difflab.errors import InvalidArgumentError
from difflab.simulate import LinkStructure
from difflab.topology import (
    NetworkGraph,
    generate_random_graph,
    load_edge_list,
    metropolis_weights,
    validate_combination_matrix,
)
from reference import neighborhood


def save_edge_list(graph, path):
    """Write graph in the format load_edge_list reads: 'N <n>', then one
    '<u> <v>' line per edge."""
    with open(path, "w") as fh:
        fh.write(f"N {graph.n_nodes}\n")
        for u, v in sorted(graph.edges):
            fh.write(f"{u} {v}\n")


def test_two_node_graph_is_single_edge():
    g = generate_random_graph(2, 1, seed=123)
    assert g.n_nodes == 2
    assert g.edges == ((0, 1),)


def test_single_node_rejected():
    with pytest.raises(InvalidArgumentError):
        generate_random_graph(1, 1, seed=0)


def test_degenerate_avg_degree_rejected():
    with pytest.raises(InvalidArgumentError):
        generate_random_graph(5, 0, seed=0)
    with pytest.raises(InvalidArgumentError):
        generate_random_graph(5, 5, seed=0)


def test_generation_reproducible():
    a = generate_random_graph(20, 3, seed=7)
    b = generate_random_graph(20, 3, seed=7)
    assert a.edges == b.edges


def test_mean_degree_matches_target():
    # sample-mean oracle: ER with p = 3/19 has mean degree 3
    total = 0.0
    for seed in range(1000):
        g = generate_random_graph(20, 3, seed=seed)
        assert g.is_connected()
        total += 2 * len(g.edges) / g.n_nodes
    assert abs(total / 1000 - 3.0) < 0.3


def test_neighborhood_includes_self():
    g = generate_random_graph(10, 3, seed=1)
    for k in range(10):
        nb = neighborhood(g, k)
        assert k in nb
        assert set(nb) == set(np.flatnonzero(g.closed[k]).tolist())


def test_metropolis_two_node():
    g = NetworkGraph(2, ((0, 1),))
    w = metropolis_weights(g)
    # both degrees are 1, so the cross weight is 1/max(1,1) = 1
    assert np.allclose(w, [[0.0, 1.0], [1.0, 0.0]])


def test_metropolis_path_graph():
    g = NetworkGraph(3, ((0, 1), (1, 2)))
    w = metropolis_weights(g)
    assert w[0, 1] == w[1, 0] == 0.5
    assert w[1, 2] == w[2, 1] == 0.5
    assert w[0, 0] == 0.5 and w[1, 1] == 0.0 and w[2, 2] == 0.5


def test_metropolis_star_graph():
    g = NetworkGraph(3, ((0, 1), (0, 2)))  # node 0 is the hub
    w = metropolis_weights(g)
    assert w[0, 1] == w[0, 2] == 0.5
    assert w[0, 0] == 0.0
    assert w[1, 1] == w[2, 2] == 0.5


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 24))
def test_metropolis_symmetric_doubly_stochastic(seed, n):
    g = generate_random_graph(n, 3, seed=seed)
    w = metropolis_weights(g)
    assert np.abs(w - w.T).max() < 1e-15
    assert np.abs(w.sum(axis=0) - 1).max() < 1e-12
    assert np.abs(w.sum(axis=1) - 1).max() < 1e-12
    validate_combination_matrix(metropolis_weights(g), g)


def test_identity_matrix_validates():
    g = generate_random_graph(8, 3, seed=4)
    validate_combination_matrix(np.eye(8), g)


def test_sparsity_violation_reported():
    g = NetworkGraph(3, ((0, 1), (1, 2)))
    bad = np.eye(3)
    bad[0, 2] = 0.1
    bad[2, 2] = 0.9
    with pytest.raises(InvalidArgumentError, match=r"sparsity at \(0, 2\)"):
        validate_combination_matrix(bad, g)


def test_column_sum_violation_reported():
    g = NetworkGraph(2, ((0, 1),))
    bad = np.full((2, 2), 0.4)
    with pytest.raises(InvalidArgumentError, match=r"column-sum at \(0,\)"):
        validate_combination_matrix(bad, g)


@pytest.mark.parametrize("first", [1.5, np.nan])
def test_range_violation_reported_before_column_sum(first):
    g = NetworkGraph(2, ((0, 1),))
    bad = np.array([[first, 0.0], [-0.5, 1.0]])
    with pytest.raises(InvalidArgumentError, match=r"range at \(0, 0\)"):
        validate_combination_matrix(bad, g)


def test_dimension_mismatch():
    g = NetworkGraph(2, ((0, 1),))
    with pytest.raises(InvalidArgumentError):
        validate_combination_matrix(np.eye(3), g)


def test_disconnected_graph_rejected():
    with pytest.raises(InvalidArgumentError):
        NetworkGraph(4, ((0, 1), (2, 3)))


def test_edge_list_round_trip(tmp_path):
    g = generate_random_graph(12, 3, seed=99)
    path = tmp_path / "graph.edges"
    save_edge_list(g, path)
    back = load_edge_list(path)
    assert back.n_nodes == g.n_nodes
    assert back.edges == g.edges


@st.composite
def _edge_list_files(draw):
    """(n, edges, text) of a connected graph: a random spanning tree plus
    extra edges, each written one to three times, either way round, in
    a shuffled order."""
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(min(u, v), max(u, v))
              for u, v in draw(st.lists(pairs, max_size=2 * n)) if u != v}
    lines = [(u, v) if draw(st.booleans()) else (v, u)
             for u, v in sorted(edges) for _ in range(draw(st.integers(1, 3)))]
    lines = draw(st.permutations(lines))
    text = f"N {n}\n" + "".join(f"{u} {v}\n" for u, v in lines)
    return n, tuple(sorted(edges)), text


def _load_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.edges")
        with open(path, "w") as fh:
            fh.write(text)
        return load_edge_list(path)


def _check_closed_against_edges(g):
    n = g.n_nodes
    directed = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
    assert not g.closed.flags.writeable
    assert g.closed.shape == (n, n) and g.closed.dtype == bool
    assert (g.closed == g.closed.T).all() and g.closed.diagonal().all()
    off = g.closed & ~np.eye(n, dtype=bool)
    assert set(zip(*(i.tolist() for i in np.nonzero(off)))) == directed
    for k in range(n):
        nbrs = sorted({l for l, m in directed if m == k} | {k})
        assert neighborhood(g, k) == nbrs
        assert g.degrees()[k] == len(nbrs) - 1
    links = LinkStructure.from_graph(g)
    pairs = list(zip(links.dst.tolist(), links.src.tolist()))
    assert pairs == sorted(directed | {(k, k) for k in range(n)})


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_closed_matches_generated_edges(data):
    n = data.draw(st.integers(2, 30))
    degree = data.draw(st.floats(min(3.0, n - 1), n - 1))
    _check_closed_against_edges(
        generate_random_graph(n, degree, seed=data.draw(st.integers(0, 999))))


@settings(max_examples=50, deadline=None)
@given(_edge_list_files())
def test_closed_matches_loaded_edges(case):
    n, edges, text = case
    g = _load_text(text)
    assert (g.n_nodes, g.edges) == (n, edges)
    _check_closed_against_edges(g)
