"""Vectorized network simulation.

Runs the adapt-then-combine dynamics for a batch of Monte Carlo
realizations at once: state arrays are (runs, nodes, dim) and link
quantities are (runs, links, dim), with per-node neighborhoods flattened
into a directed-link list (self links included) so neighborhood sums
become segment reductions. The adapt step evaluates the configured
`engine` gradient on the cross links only and the LMS gradient on the
self links; link noise is scaled by `noise.mixture_draws`. The per-node
reference that tests compare this loop against is `tests/reference.py`.

Randomness contract: realization r of an experiment with master seed s
draws from `default_rng(SeedSequence(s, spawn_key=(r,)))`, one fused
standard-normal block per iteration (data regressors, observation noise,
then per-channel link noise in x, y, phi order) followed by one uniform
block for the mixture outlier indicators when the active noise phase has
any outlier probability. Results for a given run index are therefore
bit-identical no matter how runs are batched.

The draws depend only on `(share_data, shares_phi)`, which fixes the
link channels, the run index and the noise phase. Algorithms that agree
on the pair form a stream group: `simulate_group` advances them in
lockstep on one draw per run and iteration, and each gets exactly the
records it gets alone (`simulate_runs`, a group of one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    DELTA2_FLOOR,
    gdtls_gradient,
    lms_gradient,
    mcc_gradient,
    mtc_gradient,
)
from .errors import InvalidArgumentError
from .noise import gamma_lk, mixture_draws
from .topology import NetworkGraph

DIVERGENCE_NORM = 1e6


@dataclass(frozen=True)
class LinkStructure:
    """Directed links (l -> k) for l in N_k, self links included.

    Sorted by destination so per-node sums are reduceat segments.
    """

    src: np.ndarray
    dst: np.ndarray
    is_self: np.ndarray
    seg_starts: np.ndarray
    self_idx: np.ndarray
    cross_idx: np.ndarray

    @classmethod
    def from_graph(cls, graph):
        src, dst = [], []
        for k in range(graph.n_nodes):
            for l in graph.neighborhood(k):
                src.append(l)
                dst.append(k)
        src = np.asarray(src)
        dst = np.asarray(dst)
        is_self = src == dst
        seg_starts = np.searchsorted(dst, np.arange(graph.n_nodes))
        return cls(src, dst, is_self, seg_starts, np.flatnonzero(is_self),
                   np.flatnonzero(~is_self))

    @property
    def n_links(self):
        return self.src.size


@dataclass(frozen=True)
class NetworkProblem:
    """Everything static about one experiment scenario; the simulator and
    the closed form (`harness.theory_inputs`) both read it.

    weights is the (N, N) matrix used for both adaptation and combination:
    weights[l, k] is the weight node k applies to data from node l.
    noise_phases is a tuple of (start_iteration, LinkNoiseSpec), sorted;
    a phase applies from its start iteration inclusive. obs_var holds the
    observation noise variance, one for all nodes or one per node; it
    does not switch with the phase.
    """

    graph: NetworkGraph
    h: np.ndarray
    weights: np.ndarray
    noise_phases: tuple
    input_variance: float = 1.0
    obs_var: np.ndarray = 0.0
    seed: int = 0
    links: LinkStructure = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, ndmin in (("h", 0), ("weights", 2), ("obs_var", 1)):
            v = np.array(getattr(self, name), dtype=float, ndmin=ndmin)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        if not self.noise_phases or self.noise_phases[0][0] != 0:
            raise InvalidArgumentError("first noise phase must start at iteration 0")
        n = self.graph.n_nodes
        if self.weights.shape != (n, n):
            raise InvalidArgumentError(
                f"weights are {self.weights.shape}, graph has {n} nodes")
        if self.input_variance <= 0:
            raise InvalidArgumentError("input variance must be positive")
        if (self.obs_var < 0).any():
            raise InvalidArgumentError("observation variances must be >= 0")
        if self.obs_var.size not in (1, n):
            raise InvalidArgumentError(
                f"{self.obs_var.size} observation variances for "
                f"{n} nodes; give one or one per node")
        object.__setattr__(self, "links", LinkStructure.from_graph(self.graph))

    @property
    def n_nodes(self):
        return self.graph.n_nodes

    @property
    def dim(self):
        return self.h.size

    def obs_std(self):
        """Per-node observation noise std."""
        return np.sqrt(np.broadcast_to(self.obs_var, (self.n_nodes,)))

    def run_rng(self, run_index):
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(int(run_index),))
        )


@dataclass(frozen=True)
class _PhaseParams:
    """Per-link noise scales for one phase (zero on self links).

    c is each channel's outlier probability, 0 when the channel draws no
    uniforms: a pure Gaussian, or c = 1, where every draw takes the
    outlier scale. gamma is the TLS ratio on each cross link; tls_ok is
    False when the input channel is noiseless, where MTC and GD-TLS fall
    back to LMS.
    """

    start: int
    c: dict
    std_a: dict
    std_b: dict
    gamma: np.ndarray
    tls_ok: bool

    @classmethod
    def build(cls, start, spec, links, obs_var):
        c, std_a, std_b = {}, {}, {}
        cross = ~links.is_self
        for name in ("x", "y", "phi"):
            g = getattr(spec, name)
            c[name] = g.c if 0.0 < g.c < 1.0 else 0.0
            sa2 = g.sigma_b2 if g.c == 1.0 else g.sigma_a2
            std_a[name] = np.where(cross, np.sqrt(sa2), 0.0)
            std_b[name] = np.where(cross, np.sqrt(g.sigma_b2), 0.0)
        tls_ok = spec.x.sigma_a2 > 0
        gamma = None
        if tls_ok:
            gamma = gamma_lk(obs_var[links.src[links.cross_idx]],
                             spec.y.sigma_a2, spec.x.sigma_a2)
        return cls(start, c, std_a, std_b, gamma, tls_ok)


@dataclass
class DrawBlock:
    """One iteration's noise draws for a batch of runs (already scaled)."""

    x_in: np.ndarray   # (R, N, L) regressors
    v_obs: np.ndarray  # (R, N) observation noise
    nx: np.ndarray     # (R, E, L) or None
    ny: np.ndarray     # (R, E) or None
    nphi: np.ndarray   # (R, E, L) or None


class _Drawer:
    """Fused per-run noise generation with a fixed slice layout."""

    def __init__(self, problem, use_cross_data, use_phi):
        n, L, E = problem.n_nodes, problem.dim, problem.links.n_links
        self.n, self.L = n, L
        self.input_std = np.sqrt(problem.input_variance)
        self.obs_std = problem.obs_std()
        # link channels in stream order, with their per-run shapes
        self.channels = [("x", (E, L)), ("y", (E,))] if use_cross_data else []
        if use_phi:
            self.channels.append(("phi", (E, L)))
        self.n_normals = n * L + n + sum(
            math.prod(shape) for _, shape in self.channels)

    def draw(self, rngs, phase):
        R = len(rngs)
        n, L = self.n, self.L
        normals = np.empty((R, self.n_normals))
        for r, rng in enumerate(rngs):
            normals[r] = rng.standard_normal(self.n_normals)
        n_uniforms = sum(math.prod(shape) for name, shape in self.channels
                         if phase.c[name] > 0)
        if n_uniforms:
            uniforms = np.empty((R, n_uniforms))
            for r, rng in enumerate(rngs):
                uniforms[r] = rng.random(n_uniforms)
        x_in = normals[:, : n * L].reshape(R, n, L) * self.input_std
        v_obs = normals[:, n * L : n * L + n] * self.obs_std

        noise = {"x": None, "y": None, "phi": None}
        p, q = n * L + n, 0
        for name, shape in self.channels:
            size = math.prod(shape)
            raw = normals[:, p : p + size].reshape((R,) + shape)
            p += size
            u = None
            if phase.c[name] > 0:
                u = uniforms[:, q : q + size].reshape((R,) + shape)
                q += size
            sa, sb = phase.std_a[name], phase.std_b[name]
            if len(shape) == 2:
                sa, sb = sa[:, None], sb[:, None]
            noise[name] = mixture_draws(raw, u, phase.c[name], sa, sb)
        return DrawBlock(x_in, v_obs, noise["x"], noise["y"], noise["phi"])


@dataclass
class SimResult:
    """Squared-error records for a batch of realizations."""

    sq_net: np.ndarray        # (R, iterations) sum over nodes of |w_k - h|^2
    diverged_at: np.ndarray   # (R,) first bad iteration, -1 if none
    sq_node: np.ndarray = None  # (R, iterations, N) if requested
    beta_sum_err: float = 0.0   # max over iterations of |sum_l beta_lk - 1|
    final_w: np.ndarray = None  # (R, N, L) weights after the last iteration


def _phase_for(phases, i):
    return [p for p in phases if p.start <= i][-1]


class _Variant:
    """One algorithm's state and update within a group's lockstep pass."""

    def __init__(self, problem, algo, R, iterations, record_per_node,
                 track_beta):
        ls = problem.links
        n, L, E = problem.n_nodes, problem.dim, ls.n_links
        self.algo = algo
        self.links, self.h = ls, problem.h
        self.cdst = ls.dst[ls.cross_idx]
        self.mu = algo.step_sizes(n)
        self.alpha = (problem.weights[ls.src, ls.dst]
                      if algo.share_data else None)
        self.cfix = None
        if algo.shares_phi and not algo.adaptive_combination:
            self.cfix = problem.weights[ls.src, ls.dst]
        self.track_beta = track_beta
        self.W = np.zeros((R, n, L))
        self.delta2 = np.ones((R, E))
        self.active = np.ones(R, dtype=bool)
        self.diverged_at = np.full(R, -1, dtype=np.int64)
        self.sq_net = np.empty((R, iterations))
        self.sq_node = (np.empty((R, iterations, n)) if record_per_node
                        else None)
        self.beta_sum_err = 0.0

    def step(self, i, ph, d, X, y, Xs, ys):
        """One adapt-then-combine iteration on the group's shared draws."""
        algo, mu, W = self.algo, self.mu, self.W
        ls, h = self.links, self.h
        R, E, L = W.shape[0], ls.n_links, W.shape[2]
        src, dst, starts = ls.src, ls.dst, ls.seg_starts
        cross, self_idx = ls.cross_idx, ls.self_idx
        est = algo.estimator

        # the self-link LMS gradient; the adaptive rule's one-step
        # prediction uses it too
        g_node = lms_gradient(W, X, y)

        if algo.share_data:
            Wd = W[:, self.cdst, :]
            if est == "mcc":
                gc = mcc_gradient(Wd, Xs, ys, algo.mcc_kernel2.value(i))
            elif est == "mtc" and ph.tls_ok:
                gc = mtc_gradient(Wd, Xs, ys, algo.zeta2.value(i), ph.gamma)
            elif est == "gdtls" and ph.tls_ok:
                gc = gdtls_gradient(Wd, Xs, ys, ph.gamma)
            else:
                gc = lms_gradient(Wd, Xs, ys)
            g = np.empty((R, E, L))
            g[:, cross] = gc
            g[:, self_idx] = g_node
            phi = W + mu[None, :, None] * np.add.reduceat(
                self.alpha[None, :, None] * g, starts, axis=1
            )
        else:
            phi = W + mu[None, :, None] * g_node

        if algo.shares_phi:
            phis = phi[:, src, :] + d.nphi
            if algo.adaptive_combination:
                gn = np.sqrt(np.einsum("rnl,rnl->rn", g_node, g_node))
                w_hat = W + (mu[None, :] / (gn + algo.epsilon))[..., None] * g_node
                dev = phis - w_hat[:, dst, :]
                dev2 = np.einsum("rel,rel->re", dev, dev)
                delta2 = (1.0 - algo.chi) * self.delta2 + algo.chi * dev2
                np.maximum(delta2, DELTA2_FLOOR, out=delta2)
                self.delta2 = delta2
                inv = 1.0 / delta2
                beta = inv / np.add.reduceat(inv, starts, axis=1)[:, dst]
                if self.track_beta:
                    sums = np.add.reduceat(beta, starts, axis=1)
                    active = self.active
                    err = float(np.abs(sums[active] - 1.0).max()) if active.any() else 0.0
                    self.beta_sum_err = max(self.beta_sum_err, err)
            else:
                beta = np.broadcast_to(self.cfix, (R, E))
            W_new = np.add.reduceat(beta[..., None] * phis, starts, axis=1)
        else:
            W_new = phi

        node_norm2 = np.einsum("rnl,rnl->rn", W_new, W_new)
        ok = np.isfinite(node_norm2).all(axis=1) & (
            np.max(node_norm2, axis=1) <= DIVERGENCE_NORM**2
        )
        newly_bad = self.active & ~ok
        if newly_bad.any():
            self.diverged_at[newly_bad] = i
            self.active &= ok
        keep = self.active[:, None, None]
        W = self.W = np.where(keep, W_new, W)

        diff = W - h
        sq = np.einsum("rnl,rnl->rn", diff, diff)
        self.sq_net[:, i] = sq.sum(axis=1)
        if self.sq_node is not None:
            self.sq_node[:, i, :] = sq

    def result(self):
        return SimResult(self.sq_net, self.diverged_at, self.sq_node,
                         self.beta_sum_err, self.W)


def simulate_group(problem, algos, run_indices, iterations,
                   record_per_node=False, track_beta=False):
    """Simulate a batch of realizations of algorithms that share a stream.

    The algorithms must agree on `(share_data, shares_phi)`, which fixes
    the draws (see the randomness contract); they advance in lockstep on
    one draw per iteration, and each keeps its own state and records.
    Returns one SimResult per algorithm, in order.

    Weight vectors start at zero. A run is marked diverged at the first
    iteration where any node norm exceeds 1e6 or goes non-finite; its
    state freezes at the last good iterate and its record is carried
    forward unchanged. A diverged run freezes only its own algorithm.
    """
    if iterations < 1:
        raise InvalidArgumentError("iterations must be >= 1")
    if not algos:
        raise InvalidArgumentError("a group needs at least one algorithm")
    streams = {(a.share_data, a.shares_phi) for a in algos}
    if len(streams) > 1:
        raise InvalidArgumentError(
            "algorithms of one group must agree on (share_data, shares_phi); "
            f"got {sorted(streams)}")
    (use_cross, use_phi), = streams
    ls = problem.links
    R = len(run_indices)
    h = problem.h

    phases = [
        _PhaseParams.build(start, spec, ls, problem.obs_std() ** 2)
        for start, spec in problem.noise_phases
    ]
    drawer = _Drawer(problem, use_cross, use_phi)
    rngs = [problem.run_rng(r) for r in run_indices]
    variants = [_Variant(problem, a, R, iterations, record_per_node,
                         track_beta) for a in algos]
    csrc = ls.src[ls.cross_idx]
    Xs = ys = None

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(iterations):
            ph = _phase_for(phases, i)
            d = drawer.draw(rngs, ph)
            X = d.x_in
            y = np.einsum("rnl,l->rn", X, h) + d.v_obs
            if use_cross:
                Xs = X[:, csrc, :] + d.nx[:, ls.cross_idx]
                ys = y[:, csrc] + d.ny[:, ls.cross_idx]
            for v in variants:
                v.step(i, ph, d, X, y, Xs, ys)

    return [v.result() for v in variants]


def simulate_runs(problem, algo, run_indices, iterations, record_per_node=False,
                  track_beta=False):
    """Simulate a batch of realizations of one algorithm: a group of one."""
    return simulate_group(problem, (algo,), run_indices, iterations,
                          record_per_node, track_beta)[0]
