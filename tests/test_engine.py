import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from difflab.engine import (
    AlgorithmSpec,
    KernelSchedule,
    gdtls_gradient,
    lms_gradient,
    mcc_gradient,
    mtc_gradient,
)
from difflab.errors import InvalidArgumentError
from reference import (
    ReceivedSample,
    SharedSample,
    adapt_step,
    adaptive_beta_update,
    combine_step,
    cross_gradient,
    local_one_step,
    mtc_cost,
)


def fd_gradient(f, w, step=1e-6):
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = step
        g[i] = (f(w + e) - f(w - e)) / (2 * step)
    return g


def test_lms_gradient_examples():
    s = SharedSample(np.array([1.0, 0, 0, 0]), 1.0)
    assert np.allclose(lms_gradient(np.zeros(4), s.x, s.y), [1, 0, 0, 0])
    w = np.array([0.4, 0.7, -0.3, 0.5])
    s2 = SharedSample(np.ones(4), 2.0)
    assert np.allclose(lms_gradient(w, s2.x, s2.y), 0.7 * np.ones(4))
    s3 = SharedSample(np.array([2.0, 1, 0, 0]), float(w @ [2, 1, 0, 0]))
    assert np.allclose(lms_gradient(w, s3.x, s3.y), 0)


def test_lms_dimension_mismatch():
    with pytest.raises(InvalidArgumentError):
        lms_gradient(np.zeros(3), np.zeros(4), 0.0)


def test_mcc_gradient_examples():
    s = SharedSample(np.array([1.0, 0, 0, 0]), 10.0)
    g = mcc_gradient(np.zeros(4), s.x, s.y, 1.0)
    assert np.linalg.norm(g) == pytest.approx(10 * np.exp(-50), rel=1e-12)
    big = mcc_gradient(np.zeros(4), s.x, s.y, 1e12)
    assert np.allclose(big, lms_gradient(np.zeros(4), s.x, s.y), rtol=1e-9)


def test_mtc_cost_examples():
    s = SharedSample(np.array([1.0, 0, 0, 0]), 2.0)
    w = np.array([1.0, 0, 0, 0])
    assert mtc_cost(w, s, 1.0, 1.0) == pytest.approx(np.exp(-0.25))
    exact = SharedSample(np.array([1.0, 0, 0, 0]), 1.0)
    assert mtc_cost(w, exact, 1.0, 1.0) == 1.0
    with pytest.raises(InvalidArgumentError):
        mtc_cost(np.zeros(4), s, 1.0, 0.0)


def test_mtc_gradient_is_cost_gradient():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.standard_normal(4)
        s = SharedSample(rng.standard_normal(4), float(rng.standard_normal()))
        zeta2, gamma = float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5))
        g = mtc_gradient(w, s.x, s.y, zeta2, gamma)
        ref = fd_gradient(lambda v: mtc_cost(v, s, zeta2, gamma), w)
        assert np.linalg.norm(g - ref) < 1e-5 * max(np.linalg.norm(ref), 1e-12)


def test_gdtls_gradient_is_half_neg_tls_gradient():
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = rng.standard_normal(4)
        s = SharedSample(rng.standard_normal(4), float(rng.standard_normal()))
        gamma = float(rng.uniform(0.1, 5))

        def tls(v):
            e = s.y - v @ s.x
            return e * e / (v @ v + gamma)

        g = gdtls_gradient(w, s.x, s.y, gamma)
        ref = -0.5 * fd_gradient(tls, w)
        assert np.linalg.norm(g - ref) < 1e-5 * max(np.linalg.norm(ref), 1e-12)


def test_mtc_limit_is_gdtls():
    rng = np.random.default_rng(2)
    w = rng.standard_normal(4)
    s = SharedSample(rng.standard_normal(4), 1.3)
    got = 1e10 * mtc_gradient(w, s.x, s.y, 1e10, 2.0)
    want = gdtls_gradient(w, s.x, s.y, 2.0)
    assert np.linalg.norm(got - want) < 1e-6 * np.linalg.norm(want)


def test_gradients_broadcast_over_leading_axes():
    # a (runs, links, L) batch gives, row by row, the single-vector result
    rng = np.random.default_rng(4)
    w = rng.standard_normal((3, 5, 4))
    x = rng.standard_normal((3, 5, 4))
    y = rng.standard_normal((3, 5))
    gamma = rng.uniform(0.5, 2.0, 5)
    batched = {
        "lms": lms_gradient(w, x, y),
        "mcc": mcc_gradient(w, x, y, 0.7),
        "mtc": mtc_gradient(w, x, y, 0.3, gamma),
        "gdtls": gdtls_gradient(w, x, y, gamma),
    }
    for r in range(3):
        for e in range(5):
            args = (w[r, e], x[r, e], y[r, e])
            single = {
                "lms": lms_gradient(*args),
                "mcc": mcc_gradient(*args, 0.7),
                "mtc": mtc_gradient(*args, 0.3, gamma[e]),
                "gdtls": gdtls_gradient(*args, gamma[e]),
            }
            for name, g in single.items():
                assert g.shape == (4,)
                assert np.allclose(batched[name][r, e], g, rtol=1e-14,
                                   atol=0.0)


def test_mtc_gradient_bounded_in_residual():
    # outlier rejection: gradient magnitude peaks at moderate residuals
    # and decreases beyond
    w = np.array([1.0, -0.5])
    x = np.array([0.3, 0.8])
    norms = []
    for e in np.logspace(-3, 6, 40):
        s = SharedSample(x, float(w @ x + e))
        norms.append(np.linalg.norm(mtc_gradient(w, s.x, s.y, 0.5, 2.0)))
    norms = np.array(norms)
    assert np.isfinite(norms).all()
    peak = int(np.argmax(norms))
    assert 0 < peak < len(norms) - 1
    assert (np.diff(norms[peak:]) <= 1e-12).all()


def test_mtc_cost_in_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = rng.standard_normal(3)
        s = SharedSample(rng.standard_normal(3), float(rng.standard_normal()))
        c = mtc_cost(w, s, float(rng.uniform(0.01, 10)), 1.0)
        assert 0 < c <= 1


def test_adapt_step_weights_must_sum_to_one():
    s = SharedSample(np.ones(2), 1.0, self_link=True)
    with pytest.raises(InvalidArgumentError):
        adapt_step(np.zeros(2), [ReceivedSample(s, 0.5)], "lms", 0.1)


def test_adapt_step_no_sharing_is_lms():
    w = np.array([0.1, 0.2])
    s = SharedSample(np.array([1.0, -1.0]), 0.5, self_link=True)
    phi = adapt_step(w, [ReceivedSample(s, 1.0)], "lms", 0.1)
    assert np.allclose(phi, w + 0.1 * lms_gradient(w, s.x, s.y))


def test_adapt_step_two_neighbor_mtc_hand_eval():
    w = np.array([0.5, -0.25])
    self_s = SharedSample(np.array([1.0, 2.0]), 0.4, self_link=True)
    cross_s = SharedSample(np.array([-1.0, 0.5]), 1.1, source=1)
    rec = [
        ReceivedSample(self_s, 0.6),
        ReceivedSample(cross_s, 0.4, gamma=3.5, zeta2=0.2),
    ]
    phi = adapt_step(w, rec, "mtc", 0.05)
    manual = w + 0.05 * (
        0.6 * lms_gradient(w, self_s.x, self_s.y)
        + 0.4 * mtc_gradient(w, cross_s.x, cross_s.y, 0.2, 3.5)
    )
    assert np.allclose(phi, manual, atol=1e-15)


def test_cross_gradient_self_link_always_lms():
    s = SharedSample(np.array([1.0, 0.0]), 2.0, self_link=True)
    r = ReceivedSample(s, 1.0, gamma=1.0, zeta2=0.1)
    assert np.allclose(cross_gradient(np.zeros(2), r, "mtc"),
                       lms_gradient(np.zeros(2), s.x, s.y))


def test_combine_step():
    out = combine_step([(np.array([1.0, 0.0]), 0.25), (np.array([0.0, 1.0]), 0.75)])
    assert np.allclose(out, [0.25, 0.75])
    same = combine_step([(np.ones(2), 0.5), (np.ones(2), 0.5)])
    assert np.allclose(same, 1.0)
    with pytest.raises(InvalidArgumentError):
        combine_step([(np.ones(2), 0.7)])


def test_combine_step_convex_hull():
    rng = np.random.default_rng(7)
    phis = [rng.standard_normal(3) for _ in range(4)]
    b = rng.random(4)
    b /= b.sum()
    out = combine_step(list(zip(phis, b)))
    stack = np.stack(phis)
    assert (out >= stack.min(axis=0) - 1e-12).all()
    assert (out <= stack.max(axis=0) + 1e-12).all()


def test_local_one_step():
    w = np.zeros(2)
    s = SharedSample(np.array([2.0, 0.0]), 2.0, self_link=True)
    # gradient is (4, 0); the probe step is mu along its direction
    out = local_one_step(w, s, 0.1, 1e-6)
    assert np.allclose(out, [0.1, 0.0], atol=1e-7)
    zero = SharedSample(np.array([1.0, 0.0]), 0.0, self_link=True)
    assert np.allclose(local_one_step(w, zero, 0.1, 1e-6), w)


def test_local_one_step_unit_gradient_magnitude():
    w = np.zeros(3)
    s = SharedSample(np.array([1.0, 0, 0]), 1.0, self_link=True)  # |g| = 1
    out = local_one_step(w, s, 0.05, 1e-12)
    assert np.linalg.norm(out - w) == pytest.approx(0.05, rel=1e-9)


def test_local_one_step_bounded_near_convergence():
    # tiny residuals must not produce huge probe steps
    w = np.array([1.0, 1.0])
    s = SharedSample(np.array([1.0, 0.0]), 1.0 + 1e-9, self_link=True)
    out = local_one_step(w, s, 0.1, 1e-6)
    assert np.linalg.norm(out - w) <= 0.1 + 1e-9


def test_adaptive_beta_uniform_when_deltas_equal():
    prev = {0: 1.0, 1: 1.0, 2: 1.0}
    phis = [(l, np.zeros(2)) for l in prev]
    _, beta = adaptive_beta_update(prev, phis, np.zeros(2), 0.0 + 1e-9)
    assert all(abs(b - 1 / 3) < 1e-9 for b in beta.values())


def test_adaptive_beta_outlier_suppressed():
    prev = {0: 1.0, 1: 1.0, 2: 1.0}
    phis = [(0, np.array([1000.0, 0.0])), (1, np.zeros(2)), (2, np.zeros(2))]
    w_hat = np.zeros(2)
    d2, beta = adaptive_beta_update(prev, phis, w_hat, 1.0)
    assert d2[0] == pytest.approx(1e6)
    assert beta[0] < 1e-6


def test_adaptive_beta_chi_zero_like_freeze():
    # chi must be > 0; the smallest admissible chi barely moves delta2
    prev = {0: 2.0, 1: 4.0}
    phis = [(0, np.ones(2)), (1, np.ones(2))]
    d2, _ = adaptive_beta_update(prev, phis, np.ones(2), 1e-12)
    assert d2[0] == pytest.approx(2.0)
    assert d2[1] == pytest.approx(4.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0, 1e6), min_size=2, max_size=6),
       st.floats(1e-6, 1.0))
def test_adaptive_beta_always_convex(devs, chi):
    prev = {l: 1.0 for l in range(len(devs))}
    phis = [(l, np.array([float(np.sqrt(d)), 0.0])) for l, d in enumerate(devs)]
    _, beta = adaptive_beta_update(prev, phis, np.zeros(2), chi)
    vals = np.array(list(beta.values()))
    assert abs(vals.sum() - 1.0) < 1e-12
    assert (vals >= 0).all() and (vals <= 1).all()


def test_kernel_schedule():
    ks = KernelSchedule(1e4, 0.2, 100)
    assert ks.value(0) == 1e4
    assert ks.value(99) == 1e4
    assert ks.value(100) == 0.2
    with pytest.raises(InvalidArgumentError):
        KernelSchedule(0.0, 1.0)


def test_algorithm_spec_validation():
    with pytest.raises(InvalidArgumentError):
        AlgorithmSpec("x", estimator="nope")
    with pytest.raises(InvalidArgumentError):
        AlgorithmSpec("x", step_size=0.0)
    with pytest.raises(InvalidArgumentError):
        AlgorithmSpec("x", estimator="mtc")  # needs a zeta2 schedule
    with pytest.raises(InvalidArgumentError):
        AlgorithmSpec("x", estimator="mcc")  # needs a kernel schedule
    spec = AlgorithmSpec("x", adaptive_combination=True, share_weights=False)
    assert spec.shares_phi
    assert np.allclose(spec.step_sizes(3), 0.05)
