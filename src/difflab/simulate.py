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
then per-channel link noise on all links in x, y, phi order) followed by
one uniform block for the mixture outlier indicators of every channel
with an outlier probability in the active noise phase. Results for a
given run index are therefore bit-identical no matter how runs are
batched.

How a pass consumes and scales the draw leaves the contract as it is.
Given the pass length, each run's generator fills the normals of up to
READ_AHEAD_BYTES (over the batch) of consecutive iterations that draw
no uniforms in one call, and each iteration reads its rows. numpy's
ziggurat keeps no state between calls, so one (K, n) fill gives the
numbers of K fills of n and leaves the generator in the same state; a
fill never reaches into an iteration that draws uniforms, so each
stream keeps its order. A phase scales an iteration's whole row in one
multiply, by one factor per normal (`_PhaseParams.scale`), and then
rescales its mixture outliers in place (`noise.mixture_draws`), so each
draw is still one product by the factor it always had.

Every variant reads this one block, whether or not it uses the link
channels, so all see the same regressors, observation noise and raw link
noise at a run index (common random numbers). A variant is an algorithm
with its noise phases, such as one value of a sweep. `simulate_group`
draws the block once per run and iteration, scales it once per distinct
set of noise phases, and advances all its variants in lockstep; each
gets exactly the records it gets alone (`simulate_runs`, a group of
one). The phases of one pass must therefore share their start
iterations and outlier probabilities, which fix the layout of the block.

Beyond the draws, two kinds of operation fix the output bits: the
neighborhood sums `np.add.reduceat` and the `einsum` contractions over
the L axis (residuals, norms, squared errors). The golden digests pin
their summation order, so they must not become matmul, `np.vecdot`,
`(x * x).sum(-1)` or a padded gather-sum; each of those adds in another
order and changes the last bits. Everything else in the loop only moves
data, and does so with `take` along the link axis on index arrays that
`LinkStructure` builds once (src, dst, cross_idx and perm): on
(runs, links, L) arrays that is several times cheaper than middle-axis
fancy indexing, for the same values.
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
# the normals one run reads ahead over Gaussian iterations (see _Drawer)
READ_AHEAD_BYTES = 512 * 1024


@dataclass(frozen=True)
class LinkStructure:
    """Directed links (l -> k) for l in N_k, self links included.

    Sorted by destination so per-node sums are reduceat segments. perm
    puts an array laid out as its cross links then its self links (in
    cross_idx, self_idx order) back in link order: `a.take(perm, axis)`.
    """

    src: np.ndarray
    dst: np.ndarray
    is_self: np.ndarray
    seg_starts: np.ndarray
    self_idx: np.ndarray
    cross_idx: np.ndarray
    perm: np.ndarray

    @classmethod
    def from_graph(cls, graph):
        # closed is symmetric, so its row-major nonzeros list the links
        # by destination, then by source
        dst, src = np.nonzero(graph.closed)
        is_self = src == dst
        seg_starts = np.searchsorted(dst, np.arange(graph.n_nodes))
        self_idx, cross_idx = np.flatnonzero(is_self), np.flatnonzero(~is_self)
        # the inverse of the cross-then-self order, by a scatter: an
        # argsort would page in numpy's sort kernels (~0.25 MiB of RSS)
        order = np.concatenate((cross_idx, self_idx))
        perm = np.empty_like(order)
        perm[order] = np.arange(order.size)
        return cls(src, dst, is_self, seg_starts, self_idx, cross_idx, perm)

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
        for (prev, _), (start, _) in zip(self.noise_phases,
                                         self.noise_phases[1:]):
            if start <= prev:
                raise InvalidArgumentError(
                    f"noise phase starting at iteration {start} follows one "
                    f"starting at {prev}; phase starts must increase")
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
    """The noise scales of one phase.

    scale holds one factor per normal of an iteration's row: the input
    std per regressor entry, the observation std per node, then the
    std_a of the x, y and phi channels per link entry (zero on self
    links). c is each channel's outlier probability, 0 when the channel
    draws no uniforms: a pure Gaussian, or c = 1, where every draw takes
    the outlier scale. std_b is its outlier std per link entry. gamma is
    the TLS ratio on each cross link; tls_ok is False when the input
    channel is noiseless, where MTC and GD-TLS fall back to LMS.
    """

    start: int
    c: dict
    scale: np.ndarray
    std_b: dict
    gamma: np.ndarray
    tls_ok: bool

    @classmethod
    def build(cls, start, spec, problem):
        links, obs_std = problem.links, problem.obs_std()
        L = problem.dim
        c, std_b = {}, {}
        scale = [np.full(problem.n_nodes * L, np.sqrt(problem.input_variance)),
                 obs_std]
        for name, width in (("x", L), ("y", 1), ("phi", L)):
            g = getattr(spec, name)
            c[name] = g.c if 0.0 < g.c < 1.0 else 0.0
            sa2 = g.sigma_b2 if g.c == 1.0 else g.sigma_a2
            cross = np.repeat(~links.is_self, width)
            scale.append(np.where(cross, np.sqrt(sa2), 0.0))
            std_b[name] = np.where(cross, np.sqrt(g.sigma_b2), 0.0)
        tls_ok = spec.x.sigma_a2 > 0
        gamma = None
        if tls_ok:
            gamma = gamma_lk(obs_std[links.src[links.cross_idx]] ** 2,
                             spec.y.sigma_a2, spec.x.sigma_a2)
        return cls(start, c, np.concatenate(scale), std_b, gamma, tls_ok)


@dataclass
class DrawBlock:
    """One iteration's noise draws for a batch of runs (already scaled)."""

    x_in: np.ndarray   # (R, N, L) regressors
    v_obs: np.ndarray  # (R, N) observation noise
    nx: np.ndarray     # (R, E, L) input-channel link noise
    ny: np.ndarray     # (R, E) output-channel link noise
    nphi: np.ndarray   # (R, E, L) weight-channel link noise


class _Drawer:
    """Fused per-run noise generation with a fixed slice layout.

    Given the pass length, a fill reads ahead over the iterations up to
    the next phase start or the pass's end, if they draw no uniforms
    (see the randomness contract); without it every fill is one
    iteration.
    """

    def __init__(self, problem, iterations=0):
        n, L, E = problem.n_nodes, problem.dim, problem.links.n_links
        # the columns and per-run shape of each DrawBlock field in a row
        self.fields, p = [], 0
        for shape in ((n, L), (n,), (E, L), (E,), (E, L)):
            self.fields.append((slice(p, p + math.prod(shape)), shape))
            p += math.prod(shape)
        self.n_normals = p
        self.ends = [s for s, _ in problem.noise_phases[1:]
                     if s < iterations] + [iterations]
        self.i, self.pos = 0, 0
        self.ahead = np.empty((0, 0, p))   # (R, iterations read, row)

    def _normals(self, rngs, mixed):
        """This iteration's (R, n_normals) normals; mixed when it draws
        uniforms too."""
        if self.pos == self.ahead.shape[1]:
            end = min((e for e in self.ends if e > self.i), default=self.i)
            k = READ_AHEAD_BYTES // (8 * len(rngs) * self.n_normals)
            k = 1 if mixed else max(1, min(k, end - self.i))
            self.ahead = np.empty((len(rngs), k, self.n_normals))
            for r, rng in enumerate(rngs):
                rng.standard_normal(out=self.ahead[r])
            self.pos = 0
        self.i += 1
        self.pos += 1
        return self.ahead[:, self.pos - 1]

    def draw(self, rngs, phases):
        """One iteration's draws, scaled once per phase in phases: one
        DrawBlock each. The phases share their outlier probabilities, so
        they read one layout of normals and uniforms."""
        R, c = len(rngs), phases[0].c
        mixed = [(name, cols) for name, (cols, _) in
                 zip(("x", "y", "phi"), self.fields[2:]) if c[name] > 0]
        normals = self._normals(rngs, bool(mixed))
        outliers, q = [], 0   # name, columns in the row, uniforms
        if mixed:
            uniforms = np.empty((R, sum(cols.stop - cols.start
                                        for _, cols in mixed)))
            for r, rng in enumerate(rngs):
                rng.random(out=uniforms[r])
        for name, cols in mixed:
            size = cols.stop - cols.start
            outliers.append((name, cols, uniforms[:, q : q + size]))
            q += size
        blocks = []
        for ph in phases:
            row = mixture_draws(normals, ph.scale, [
                (cols, u, ph.c[name], ph.std_b[name])
                for name, cols, u in outliers])
            blocks.append(DrawBlock(*(row[:, cols].reshape((R,) + shape)
                                      for cols, shape in self.fields)))
        return blocks


@dataclass
class SimResult:
    """Squared-error records for a batch of realizations."""

    sq_net: np.ndarray        # (R, iterations) sum over nodes of |w_k - h|^2
    diverged_at: np.ndarray   # (R,) first bad iteration, -1 if none
    sq_node: np.ndarray = None  # (R, iterations, N) if requested
    beta_sum_err: float = 0.0   # max over iterations of |sum_l beta_lk - 1|
    final_w: np.ndarray = None  # (R, N, L) weights after the last iteration


class _Variant:
    """One algorithm's state and update within a group's lockstep pass."""

    def __init__(self, problem, algo, R, iterations, record_per_node):
        ls = problem.links
        n, L, E = problem.n_nodes, problem.dim, ls.n_links
        self.algo = algo
        self.links, self.h = ls, problem.h
        self.cdst = ls.dst[ls.cross_idx]
        self.mu = algo.step_sizes(n)
        self.mu3 = self.mu[None, :, None]
        link_weights = problem.weights[ls.src, ls.dst][None, :, None]
        self.alpha3 = link_weights if algo.share_data else None
        self.cfix3 = None
        if algo.shares_phi and not algo.adaptive_combination:
            self.cfix3 = link_weights
        self.W = np.zeros((R, n, L))
        self.delta2 = np.ones((R, E))
        self.active = np.ones(R, dtype=bool)
        self.diverged_at = np.full(R, -1, dtype=np.int64)
        self.sq_net = np.empty((R, iterations))
        self.sq_node = (np.empty((R, iterations, n)) if record_per_node
                        else None)
        self.beta_sum_err = 0.0
        # |w| <= |w - h| + |h|, so a state within this squared distance
        # of h has every node norm below DIVERGENCE_NORM, with one unit
        # of slack for rounding; -1 when no such radius exists
        r = DIVERGENCE_NORM - float(np.sqrt(self.h @ self.h)) - 1.0
        self.safe_sq = r * r if r > 0 else -1.0

    def step(self, i, ph, d, X, y, Xs, ys):
        """One adapt-then-combine iteration on the group's shared draws."""
        algo, W = self.algo, self.W
        ls = self.links
        src, dst, starts = ls.src, ls.dst, ls.seg_starts
        est = algo.estimator

        # the self-link LMS gradient; the adaptive rule's one-step
        # prediction uses it too
        g_node = lms_gradient(W, X, y)

        if algo.share_data:
            Wd = W.take(self.cdst, axis=1)
            if est == "mcc":
                gc = mcc_gradient(Wd, Xs, ys, algo.mcc_kernel2.value(i))
            elif est == "mtc" and ph.tls_ok:
                gc = mtc_gradient(Wd, Xs, ys, algo.zeta2.value(i), ph.gamma)
            elif est == "gdtls" and ph.tls_ok:
                gc = gdtls_gradient(Wd, Xs, ys, ph.gamma)
            else:
                gc = lms_gradient(Wd, Xs, ys)
            g = np.concatenate((gc, g_node), axis=1).take(ls.perm, axis=1)
            g *= self.alpha3
            phi = np.add.reduceat(g, starts, axis=1)
            phi *= self.mu3
            phi += W
        else:
            phi = W + self.mu3 * g_node

        if algo.shares_phi:
            phis = phi.take(src, axis=1)
            phis += d.nphi
            if algo.adaptive_combination:
                gn = np.sqrt(np.einsum("rnl,rnl->rn", g_node, g_node))
                scale = self.mu[None, :] / (gn + algo.epsilon)
                w_hat = W + scale[..., None] * g_node
                dev = phis - w_hat.take(dst, axis=1)
                dev2 = np.einsum("rel,rel->re", dev, dev)
                delta2 = (1.0 - algo.chi) * self.delta2 + algo.chi * dev2
                np.maximum(delta2, DELTA2_FLOOR, out=delta2)
                self.delta2 = delta2
                inv = 1.0 / delta2
                seg = np.add.reduceat(inv, starts, axis=1)
                beta = inv / seg.take(dst, axis=1)
                if self.active.any():
                    sums = np.add.reduceat(beta, starts, axis=1)
                    err = float(np.abs(sums[self.active] - 1.0).max())
                    self.beta_sum_err = max(self.beta_sum_err, err)
                phis *= beta[..., None]
            else:
                phis *= self.cfix3
            W_new = np.add.reduceat(phis, starts, axis=1)
        else:
            W_new = phi
        self.record(i, W_new)

    def record(self, i, W_new):
        """Take W_new as the state of every active run, mark the runs it
        diverges, and record the squared errors of the state."""
        active = self.active.all()
        if active:
            diff = W_new - self.h
            sq = np.einsum("rnl,rnl->rn", diff, diff)
        # within the safe radius no node norm can pass the bound; the
        # comparisons are False for nan and inf too
        if not (active and sq.max() <= self.safe_sq):
            node_norm2 = np.einsum("rnl,rnl->rn", W_new, W_new)
            ok = node_norm2.max(axis=1) <= DIVERGENCE_NORM**2
            self.diverged_at[self.active & ~ok] = i
            self.active &= ok
            if not self.active.all():
                W_new = np.where(self.active[:, None, None], W_new, self.W)
            diff = W_new - self.h
            sq = np.einsum("rnl,rnl->rn", diff, diff)
        self.W = W_new
        self.sq_net[:, i] = sq.sum(axis=1)
        if self.sq_node is not None:
            self.sq_node[:, i, :] = sq

    def result(self):
        return SimResult(self.sq_net, self.diverged_at, self.sq_node,
                         self.beta_sum_err, self.W)


def simulate_group(problem, algos, run_indices, iterations,
                   record_per_node=False, noise_phases=None):
    """Simulate a batch of realizations of any mix of variants.

    noise_phases gives each algorithm its own tuple laid out like
    problem.noise_phases (default: the problem's). The variants advance
    in lockstep on one draw (see the randomness contract), so a phase
    whose start or outlier probabilities differ from the problem's is
    refused with InvalidArgumentError. Each variant keeps its own state
    and records. Returns one SimResult per algorithm, in order.

    Weight vectors start at zero. A run is marked diverged at the first
    iteration where any node norm exceeds 1e6 or goes non-finite; its
    state freezes at the last good iterate and its record is carried
    forward unchanged. A diverged run freezes only its own variant.
    """
    if iterations < 1:
        raise InvalidArgumentError("iterations must be >= 1")
    if not algos:
        raise InvalidArgumentError("a group needs at least one algorithm")
    noise_phases = noise_phases or [problem.noise_phases] * len(algos)
    ls = problem.links
    R = len(run_indices)

    # each distinct set of noise phases, the problem's first, maps to
    # its _PhaseParams and the variants that read it
    groups = {phases: ([_PhaseParams.build(s, spec, problem)
                        for s, spec in phases], [])
              for phases in dict.fromkeys((problem.noise_phases,
                                           *noise_phases))}
    layouts = [[(p.start, p.c) for p in ps] for ps, _ in groups.values()]
    if any(layout != layouts[0] for layout in layouts):
        raise InvalidArgumentError(
            "the noise phases of one pass must share their start "
            "iterations and outlier probabilities")
    variants = [_Variant(problem, a, R, iterations, record_per_node)
                for a in algos]
    for v, phases in zip(variants, noise_phases, strict=True):
        groups[phases][1].append(v)
    groups = [g for g in groups.values() if g[1]]
    drawer = _Drawer(problem, iterations)
    rngs = [problem.run_rng(r) for r in run_indices]
    schedule = [[k for k, (s, _) in enumerate(layouts[0]) if s <= i][-1]
                for i in range(iterations)]
    csrc, cross = ls.src[ls.cross_idx], ls.cross_idx

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, k in enumerate(schedule):
            blocks = drawer.draw(rngs, [phases[k] for phases, _ in groups])
            X = blocks[0].x_in
            y = np.einsum("rnl,l->rn", X, problem.h) + blocks[0].v_obs
            for d, (phases, members) in zip(blocks, groups):
                Xs = X.take(csrc, axis=1) + d.nx.take(cross, axis=1)
                ys = y.take(csrc, axis=1) + d.ny.take(cross, axis=1)
                for v in members:
                    v.step(i, phases[k], d, X, y, Xs, ys)

    return [v.result() for v in variants]


def simulate_runs(problem, algo, run_indices, iterations,
                  record_per_node=False):
    """Simulate a batch of realizations of one algorithm: a group of one."""
    return simulate_group(problem, (algo,), run_indices, iterations,
                          record_per_node)[0]
