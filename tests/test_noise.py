import numpy as np
import pytest

from difflab.errors import InvalidArgumentError
from difflab.noise import GmmSpec, LinkNoiseSpec, gamma_lk, mixture_draws
from difflab.simulate import NetworkProblem, _Drawer, _PhaseParams
from difflab.topology import generate_random_graph, metropolis_weights


def total_variance(spec):
    return (1.0 - spec.c) * spec.sigma_a2 + spec.c * spec.sigma_b2


def test_gmm_spec_validation():
    with pytest.raises(InvalidArgumentError):
        GmmSpec(c=-0.1, sigma_a2=1)
    with pytest.raises(InvalidArgumentError):
        GmmSpec(c=0.5, sigma_a2=-1)
    assert total_variance(GmmSpec(0.01, 0.04, 10.0)) == pytest.approx(
        0.99 * 0.04 + 0.01 * 10.0)


def sample(spec, rng, size):
    """Mixture samples through the simulator's scaling primitive."""
    return mixture_draws(rng.standard_normal(size), np.sqrt(spec.sigma_a2),
                         [(slice(None), rng.random(size), spec.c,
                           np.sqrt(spec.sigma_b2))])


def test_degenerate_mixtures():
    rng = np.random.default_rng(0)
    pure_a = sample(GmmSpec(0.0, 0.04, 10.0), rng, 200_000)
    assert np.var(pure_a) == pytest.approx(0.04, rel=0.03)
    pure_b = sample(GmmSpec(1.0, 0.04, 10.0), rng, 200_000)
    assert np.var(pure_b) == pytest.approx(10.0, rel=0.03)


def test_mixture_variance_and_mean():
    spec = GmmSpec(0.01, 0.04, 10.0)
    rng = np.random.default_rng(42)
    x = sample(spec, rng, 1_000_000)
    assert np.var(x) == pytest.approx(total_variance(spec), rel=0.03)
    assert abs(np.mean(x)) < 4 * np.sqrt(total_variance(spec)) / 1e3


def test_mixture_heavy_tails():
    spec = GmmSpec(0.05, 0.04, 10.0)
    rng = np.random.default_rng(3)
    x = sample(spec, rng, 500_000)
    kurt = np.mean((x - x.mean()) ** 4) / np.var(x) ** 2
    assert kurt > 3.0


def test_drawer_self_links_noiseless():
    graph = generate_random_graph(6, 3, seed=1)
    w = metropolis_weights(graph)
    mixed = GmmSpec(0.3, 0.04, 10.0)
    spec = LinkNoiseSpec(x=mixed, y=mixed, phi=mixed)
    problem = NetworkProblem(graph, np.ones(3), w, ((0, spec),), obs_var=0.1)
    ls = problem.links
    phase = _PhaseParams.build(0, spec, problem)
    rngs = [problem.run_rng(r) for r in range(4)]
    d, = _Drawer(problem).draw(rngs, [phase])
    for noise in (d.nx, d.ny, d.nphi):
        assert (noise[:, ls.self_idx] == 0.0).all()
        assert (noise[:, ls.cross_idx] != 0.0).all()


def test_mixture_draws_per_link_scales():
    rng = np.random.default_rng(5)
    std = np.array([0.2, 0.5, 1.0, 0.0])
    draws = mixture_draws(rng.standard_normal((250_000, 4)), std)
    assert np.allclose(draws.var(axis=0), std ** 2, rtol=0.03)
    assert (draws[:, 3] == 0.0).all()


def test_gamma_lk_values():
    assert gamma_lk(0.1, 0.04, 0.04) == pytest.approx(3.5)
    assert gamma_lk(0.0, 0.0, 1.0) == 0.0
    with pytest.raises(InvalidArgumentError):
        gamma_lk(0.1, 0.04, 0.0)
    with pytest.raises(InvalidArgumentError):
        gamma_lk(-0.1, 0.04, 1.0)


def test_link_noise_spec_channels():
    spec = LinkNoiseSpec(
        x=GmmSpec(0, 0.04, 0), y=GmmSpec(0, 0.02, 0),
        phi=GmmSpec(0.01, 0.04, 10.0))
    assert spec.phi.c == 0.01
    assert spec.y.sigma_a2 == 0.02
    assert LinkNoiseSpec().x == GmmSpec()


def test_link_noise_spec_equality():
    a = LinkNoiseSpec(x=GmmSpec(0, 0.04, 0))
    b = LinkNoiseSpec(x=GmmSpec(0, 0.04, 0))
    c = LinkNoiseSpec(x=GmmSpec(0, 0.02, 0))
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
