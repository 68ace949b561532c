import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difflab.errors import InvalidArgumentError
from difflab.topology import (
    NetworkGraph,
    generate_random_graph,
    load_edge_list,
    metropolis_weights,
    save_edge_list,
    validate_combination_matrix,
)


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
    adj = g.adjacency_matrix()
    for k in range(10):
        nb = g.neighborhood(k)
        assert k in nb
        assert set(nb) - {k} == set(np.flatnonzero(adj[k]).tolist())


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
    assert validate_combination_matrix(metropolis_weights(g), g).ok


def test_identity_matrix_validates():
    g = generate_random_graph(8, 3, seed=4)
    assert validate_combination_matrix(np.eye(8), g).ok


def test_sparsity_violation_reported():
    g = NetworkGraph(3, ((0, 1), (1, 2)))
    bad = np.eye(3)
    bad[0, 2] = 0.1
    bad[2, 2] = 0.9
    report = validate_combination_matrix(bad, g)
    assert not report.ok
    assert report.constraint == "sparsity"
    assert report.indices == (0, 2)


def test_column_sum_violation_reported():
    g = NetworkGraph(2, ((0, 1),))
    bad = np.full((2, 2), 0.4)
    report = validate_combination_matrix(bad, g)
    assert not report.ok
    assert report.constraint == "column-sum"


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
