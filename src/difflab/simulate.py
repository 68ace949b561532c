"""Vectorized network simulation.

Runs the adapt-then-combine dynamics for a batch of Monte Carlo
realizations at once: state arrays are (runs, nodes, dim) and link
quantities are (runs, links, dim), with per-node neighborhoods flattened
into a directed-link list (self links included) so neighborhood sums
become segment reductions.

Randomness contract: realization r of an experiment with master seed s
draws from `default_rng(SeedSequence(s, spawn_key=(r,)))`, one fused
standard-normal block per iteration (data regressors, observation noise,
then per-channel link noise in x, y, phi order) followed by one uniform
block for the mixture outlier indicators when the active noise phase has
any outlier probability. Results for a given run index are therefore
bit-identical no matter how runs are batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import DELTA2_FLOOR, AlgorithmSpec
from .errors import InvalidArgumentError
from .noise import LinkNoiseSpec
from .topology import CombinationMatrix, NetworkGraph, metropolis_weights

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
        self_idx = np.flatnonzero(is_self)
        return cls(src, dst, is_self, seg_starts, self_idx)

    @property
    def n_links(self):
        return self.src.size


@dataclass(frozen=True)
class NetworkProblem:
    """Everything static about one experiment scenario.

    noise_phases is a tuple of (start_iteration, LinkNoiseSpec), sorted;
    a phase applies from its start iteration inclusive. Observation
    noise comes from the first phase and does not switch.
    """

    graph: NetworkGraph
    h: np.ndarray
    adaptation: CombinationMatrix
    combination: CombinationMatrix
    noise_phases: tuple
    input_variance: float = 1.0
    seed: int = 0
    links: LinkStructure = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        if not self.noise_phases or self.noise_phases[0][0] != 0:
            raise InvalidArgumentError("first noise phase must start at iteration 0")
        if self.input_variance <= 0:
            raise InvalidArgumentError("input variance must be positive")
        object.__setattr__(self, "links", LinkStructure.from_graph(self.graph))

    @property
    def n_nodes(self):
        return self.graph.n_nodes

    @property
    def dim(self):
        return self.h.size

    def obs_std(self):
        spec = self.noise_phases[0][1]
        ov = np.array([spec.node_obs_var(k) for k in range(self.n_nodes)])
        return np.sqrt(ov)

    def run_rng(self, run_index):
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(int(run_index),))
        )


@dataclass(frozen=True)
class _PhaseParams:
    """Per-link noise scales for one phase (zeroed on self links)."""

    start: int
    c: dict
    std_a: dict
    std_b: dict
    gamma: np.ndarray
    tls_ok: np.ndarray

    @classmethod
    def build(cls, start, spec, links, obs_var):
        c, std_a, std_b = {}, {}, {}
        cross = ~links.is_self
        for name in ("x", "y", "phi"):
            g = getattr(spec, name)
            c[name] = g.c if 0.0 < g.c < 1.0 else (1.0 if g.c == 1.0 else 0.0)
            std_a[name] = np.where(cross, np.sqrt(g.sigma_a2), 0.0)
            std_b[name] = np.where(cross, np.sqrt(g.sigma_b2), 0.0)
            if g.c == 1.0:
                std_a[name] = std_b[name]
                c[name] = 0.0
        sx2 = spec.x.sigma_a2
        tls_ok = cross & (sx2 > 0)
        gamma = np.ones(links.n_links)
        if sx2 > 0:
            gamma = np.where(
                cross, (obs_var[links.src] + spec.y.sigma_a2) / sx2, 1.0
            )
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
        self.n, self.L, self.E = n, L, E
        self.use_cross_data = use_cross_data
        self.use_phi = use_phi
        self.input_std = np.sqrt(problem.input_variance)
        self.obs_std = problem.obs_std()
        p = n * L + n
        self.sl_x = slice(p, p + E * L) if use_cross_data else None
        p += E * L if use_cross_data else 0
        self.sl_y = slice(p, p + E) if use_cross_data else None
        p += E if use_cross_data else 0
        self.sl_phi = slice(p, p + E * L) if use_phi else None
        p += E * L if use_phi else 0
        self.n_normals = p

    def _uniform_layout(self, phase):
        segs = []
        if self.use_cross_data and phase.c["x"] > 0:
            segs.append(("x", self.E * self.L))
        if self.use_cross_data and phase.c["y"] > 0:
            segs.append(("y", self.E))
        if self.use_phi and phase.c["phi"] > 0:
            segs.append(("phi", self.E * self.L))
        return segs

    def draw(self, rngs, phase):
        R = len(rngs)
        n, L, E = self.n, self.L, self.E
        normals = np.empty((R, self.n_normals))
        for r, rng in enumerate(rngs):
            normals[r] = rng.standard_normal(self.n_normals)
        usegs = self._uniform_layout(phase)
        uc = sum(s for _, s in usegs)
        uniforms = None
        if uc:
            uniforms = np.empty((R, uc))
            for r, rng in enumerate(rngs):
                uniforms[r] = rng.random(uc)
        x_in = normals[:, : n * L].reshape(R, n, L) * self.input_std
        v_obs = normals[:, n * L : n * L + n] * self.obs_std

        upos = {}
        off = 0
        for name, size in usegs:
            upos[name] = slice(off, off + size)
            off += size

        def channel(name, sl, shape):
            if sl is None:
                return None
            raw = normals[:, sl].reshape(shape)
            sa = phase.std_a[name]
            sd = sa[:, None] if len(shape) == 3 else sa
            if name in upos:
                u = uniforms[:, upos[name]].reshape(shape)
                sb = phase.std_b[name]
                sbb = sb[:, None] if len(shape) == 3 else sb
                sd = np.where(u < phase.c[name], sbb, sd)
            return raw * sd

        nx = channel("x", self.sl_x, (R, E, L))
        ny = channel("y", self.sl_y, (R, E))
        nphi = channel("phi", self.sl_phi, (R, E, L))
        return DrawBlock(x_in, v_obs, nx, ny, nphi)


@dataclass
class SimResult:
    """Squared-error records for a batch of realizations."""

    sq_net: np.ndarray        # (R, iterations) sum over nodes of |w_k - h|^2
    diverged_at: np.ndarray   # (R,) first bad iteration, -1 if none
    sq_node: np.ndarray = None  # (R, iterations, N) if requested
    beta_sum_err: float = 0.0   # max over iterations of |sum_l beta_lk - 1|
    final_w: np.ndarray = None  # (R, N, L) weights after the last iteration


def _phase_for(phases, i):
    cur = phases[0]
    for p in phases[1:]:
        if i >= p.start:
            cur = p
    return cur


def simulate_runs(problem, algo, run_indices, iterations, record_per_node=False,
                  track_beta=False):
    """Simulate a batch of realizations of one algorithm.

    Weight vectors start at zero. A run is marked diverged at the first
    iteration where any node norm exceeds 1e6 or goes non-finite; its
    state freezes at the last good iterate and its record is carried
    forward unchanged.
    """
    if iterations < 1:
        raise InvalidArgumentError("iterations must be >= 1")
    ls = problem.links
    n, L, E = problem.n_nodes, problem.dim, ls.n_links
    R = len(run_indices)
    h = problem.h
    mu = algo.step_sizes(n)
    use_cross = algo.share_data
    use_phi = algo.shares_phi
    est = algo.estimator

    alpha = problem.adaptation.entries[ls.src, ls.dst] if use_cross else None
    cfix = None
    if use_phi and not algo.adaptive_combination:
        cfix = problem.combination.entries[ls.src, ls.dst]

    phases = [
        _PhaseParams.build(start, spec, ls, problem.obs_std() ** 2)
        for start, spec in problem.noise_phases
    ]
    drawer = _Drawer(problem, use_cross, use_phi)
    rngs = [problem.run_rng(r) for r in run_indices]

    W = np.zeros((R, n, L))
    delta2 = np.ones((R, E))
    active = np.ones(R, dtype=bool)
    diverged_at = np.full(R, -1, dtype=np.int64)
    sq_net = np.empty((R, iterations))
    sq_node = np.empty((R, iterations, n)) if record_per_node else None
    beta_sum_err = 0.0

    src, dst, starts, is_self = ls.src, ls.dst, ls.seg_starts, ls.is_self

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(iterations):
            ph = _phase_for(phases, i)
            d = drawer.draw(rngs, ph)
            X, yv = d.x_in, d.v_obs
            y = np.einsum("rnl,l->rn", X, h) + yv

            # self LMS gradient: the no-sharing adapt path and the
            # adaptive rule's one-step prediction both need it
            g_node = None
            if not use_cross or algo.adaptive_combination:
                e_node = y - np.einsum("rnl,rnl->rn", W, X)
                g_node = e_node[..., None] * X

            if use_cross:
                Xs = X[:, src, :] + d.nx
                ys = y[:, src] + d.ny
                Wd = W[:, dst, :]
                e = ys - np.einsum("rel,rel->re", Wd, Xs)
                g = e[..., None] * Xs
                if est == "mcc":
                    k2 = algo.mcc_kernel2.value(i)
                    G = np.exp(-(e * e) / (2.0 * k2))
                    g = np.where(is_self[:, None], g, G[..., None] * g)
                elif est in ("mtc", "gdtls"):
                    u = np.einsum("rel,rel->re", Wd, Wd) + ph.gamma
                    if est == "mtc":
                        z2 = algo.zeta2.value(i)
                        G = np.exp(-(e * e) / (2.0 * z2 * u))
                        denom = z2 * u * u
                    else:
                        G = 1.0
                        denom = u * u
                    gc = (G * (u * e) / denom)[..., None] * Xs \
                        + (G * (e * e) / denom)[..., None] * Wd
                    lms_mask = ~ph.tls_ok
                    g = np.where(lms_mask[:, None], g, gc)
                phi = W + mu[None, :, None] * np.add.reduceat(
                    alpha[None, :, None] * g, starts, axis=1
                )
            else:
                phi = W + mu[None, :, None] * g_node

            if use_phi:
                phis = phi[:, src, :] + d.nphi
                if algo.adaptive_combination:
                    gn = np.sqrt(np.einsum("rnl,rnl->rn", g_node, g_node))
                    w_hat = W + (mu[None, :] / (gn + algo.epsilon))[..., None] * g_node
                    dev = phis - w_hat[:, dst, :]
                    dev2 = np.einsum("rel,rel->re", dev, dev)
                    delta2 = (1.0 - algo.chi) * delta2 + algo.chi * dev2
                    np.maximum(delta2, DELTA2_FLOOR, out=delta2)
                    inv = 1.0 / delta2
                    beta = inv / np.add.reduceat(inv, starts, axis=1)[:, dst]
                    if track_beta:
                        sums = np.add.reduceat(beta, starts, axis=1)
                        err = float(np.abs(sums[active] - 1.0).max()) if active.any() else 0.0
                        beta_sum_err = max(beta_sum_err, err)
                else:
                    beta = np.broadcast_to(cfix, (R, E))
                W_new = np.add.reduceat(beta[..., None] * phis, starts, axis=1)
            else:
                W_new = phi

            node_norm2 = np.einsum("rnl,rnl->rn", W_new, W_new)
            ok = np.isfinite(node_norm2).all(axis=1) & (
                np.max(node_norm2, axis=1) <= DIVERGENCE_NORM**2
            )
            newly_bad = active & ~ok
            if newly_bad.any():
                diverged_at[newly_bad] = i
                active &= ok
            keep = active[:, None, None]
            W = np.where(keep, W_new, W)

            diff = W - h
            sq = np.einsum("rnl,rnl->rn", diff, diff)
            sq_net[:, i] = sq.sum(axis=1)
            if record_per_node:
                sq_node[:, i, :] = sq

    return SimResult(sq_net, diverged_at, sq_node, beta_sum_err, W.copy())


def initial_states(problem):
    """Zero-weight NodeStates with unit smoothed deviations and Metropolis betas."""
    from .engine import NodeState

    ls = problem.links
    beta0 = metropolis_weights(problem.graph).entries
    states = []
    for k in range(problem.n_nodes):
        nbrs = problem.graph.neighborhood(k)
        states.append(NodeState(
            w=np.zeros(problem.dim),
            delta2={l: 1.0 for l in nbrs},
            beta_row={l: float(beta0[l, k]) for l in nbrs},
        ))
    return states


def node_iteration(problem, algo, states, iteration, draws):
    """One synchronous network iteration, node by node.

    Reference semantics built from the per-node operations in
    `engine.py`; the vectorized loop in simulate_runs must match it.
    `draws` is a DrawBlock for a single run (leading axis of size 1).
    states is a list of NodeState; returns the updated list.
    """
    from . import engine

    ls = problem.links
    n = problem.n_nodes
    ph = _phase_for(
        [_PhaseParams.build(s, spec, ls, problem.obs_std() ** 2)
         for s, spec in problem.noise_phases],
        iteration,
    )
    X = draws.x_in[0]
    y = X @ problem.h + draws.v_obs[0]
    mu = algo.step_sizes(n)
    z2 = algo.zeta2.value(iteration) if algo.zeta2 else 1.0
    k2 = algo.mcc_kernel2.value(iteration) if algo.mcc_kernel2 else 1.0

    link_idx = {k: [] for k in range(n)}
    for idx in range(ls.n_links):
        link_idx[int(ls.dst[idx])].append(idx)

    self_samples = [
        engine.SharedSample(X[k], float(y[k]), k, self_link=True) for k in range(n)
    ]

    new_states = [engine.NodeState(s.w.copy(), s.phi.copy(),
                                   dict(s.delta2), dict(s.beta_row))
                  for s in states]

    # adapt
    for k in range(n):
        received = []
        if algo.share_data:
            for idx in link_idx[k]:
                l = int(ls.src[idx])
                x_lk = X[l] + draws.nx[0, idx]
                y_lk = float(y[l] + draws.ny[0, idx])
                sample = engine.SharedSample(x_lk, y_lk, l, self_link=(l == k))
                received.append(engine.ReceivedSample(
                    sample, float(problem.adaptation.entries[l, k]),
                    gamma=float(ph.gamma[idx]), zeta2=z2, kernel2=k2))
            est = algo.estimator
            if est in ("mtc", "gdtls") and not ph.tls_ok.any():
                est = "lms"
        else:
            received = [engine.ReceivedSample(self_samples[k], 1.0)]
            est = "lms"
        new_states[k].phi = engine.adapt_step(states[k].w, received, est, mu[k])

    # combine
    for k in range(n):
        if not algo.shares_phi:
            new_states[k].w = new_states[k].phi.copy()
            continue
        received_phis = []
        for idx in link_idx[k]:
            l = int(ls.src[idx])
            phi_lk = new_states[l].phi + draws.nphi[0, idx]
            received_phis.append((l, phi_lk))
        if algo.adaptive_combination:
            w_hat = engine.local_one_step(
                states[k].w, self_samples[k], mu[k], algo.epsilon)
            delta2, beta_row = engine.adaptive_beta_update(
                states[k].delta2, received_phis, w_hat, algo.chi)
            new_states[k].delta2 = delta2
            new_states[k].beta_row = beta_row
        else:
            beta_row = {l: float(problem.combination.entries[l, k])
                        for l, _ in received_phis}
        new_states[k].w = engine.combine_step(
            [(phi, beta_row[l]) for l, phi in received_phis])
    return new_states
