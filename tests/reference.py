"""Per-node reference semantics of one diffusion iteration.

`simulate.simulate_runs` runs the adapt-then-combine update on whole
(runs, links, L) arrays; this module runs the same update one node and
one received sample at a time, from the same draws, so tests can check
the vectorized loop against it. Gradients come from `difflab.engine`;
the link bookkeeping, the TLS ratios, the phase switch, the adaptive
combination rule and the weight checks are written out here
independently of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from difflab import engine
from difflab.errors import InvalidArgumentError
from difflab.topology import metropolis_weights

BETA_SUM_TOL = 1e-9


def neighborhood(graph, k):
    """Closed neighborhood N_k of a NetworkGraph: the neighbors of k plus
    k, sorted."""
    return np.flatnonzero(graph.closed[:, k]).tolist()


@dataclass(frozen=True)
class SharedSample:
    """One (regressor, output) pair as received over a link."""

    x: np.ndarray
    y: float
    source: int = 0
    self_link: bool = False


@dataclass(frozen=True)
class ReceivedSample:
    """A shared sample with its adaptation weight and per-link parameters."""

    sample: SharedSample
    alpha: float
    gamma: float = 0.0
    zeta2: float = 1.0
    kernel2: float = 1.0


@dataclass
class NodeState:
    """Per-node filter state across one iteration."""

    w: np.ndarray
    phi: np.ndarray = None
    delta2: dict = field(default_factory=dict)
    beta_row: dict = field(default_factory=dict)

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.phi is None:
            self.phi = self.w.copy()


def mtc_cost(w, sample, zeta2, gamma):
    """Instantaneous total-correntropy utility exp(-e^2 / (2 zeta2 (|w|^2+gamma)))."""
    if zeta2 <= 0:
        raise InvalidArgumentError("zeta2 must be positive")
    w = np.asarray(w, dtype=float)
    u = float(w @ w) + gamma
    if u <= 0:
        raise InvalidArgumentError("|w|^2 + gamma must be positive")
    e = sample.y - float(w @ sample.x)
    return float(np.exp(-e * e / (2.0 * zeta2 * u)))


def cross_gradient(w, received, estimator):
    """Gradient estimate for one received sample; self links always use LMS."""
    s = received.sample
    if s.self_link or estimator == "lms":
        return engine.lms_gradient(w, s.x, s.y)
    if estimator == "mcc":
        return engine.mcc_gradient(w, s.x, s.y, received.kernel2)
    if estimator == "mtc":
        return engine.mtc_gradient(w, s.x, s.y, received.zeta2,
                                   received.gamma)
    if estimator == "gdtls":
        return engine.gdtls_gradient(w, s.x, s.y, received.gamma)
    raise InvalidArgumentError(f"unknown estimator {estimator!r}")


def adapt_step(w, received, estimator, mu):
    """Adaptation step: phi = w + mu * sum_l alpha_lk g_lk(w).

    received must include the self sample; the alphas must sum to one.
    """
    alphas = sum(r.alpha for r in received)
    if abs(alphas - 1.0) > BETA_SUM_TOL:
        raise InvalidArgumentError(f"adaptation weights sum to {alphas}, not 1")
    w = np.asarray(w, dtype=float)
    acc = np.zeros_like(w)
    for r in received:
        if r.alpha != 0.0:
            acc += r.alpha * cross_gradient(w, r, estimator)
    return w + mu * acc


def combine_step(received_phis):
    """Combination step: convex combination of received intermediates."""
    total = sum(b for _, b in received_phis)
    if abs(total - 1.0) > BETA_SUM_TOL or any(b < 0 for _, b in received_phis):
        raise InvalidArgumentError("combination weights must be a convex combination")
    out = None
    for phi, b in received_phis:
        term = b * np.asarray(phi, dtype=float)
        out = term if out is None else out + term
    return out


def local_one_step(w, self_sample, mu, epsilon):
    """Normalized one-step LMS prediction used by the adaptive rule.

    The gradient is scaled by its norm so the probe step has magnitude
    close to mu regardless of the instantaneous error. Normalizing by
    the squared norm instead would make the step magnitude mu/|g|,
    which is unbounded near convergence and floods the deviation
    statistics of every link equally, so the combination weights would
    never concentrate and never reject outliers.
    """
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be positive")
    w = np.asarray(w, dtype=float)
    g = engine.lms_gradient(w, self_sample.x, self_sample.y)
    return w + mu * g / (float(np.linalg.norm(g)) + epsilon)


def adaptive_beta_update(prev_delta2, received_phis, w_hat, chi):
    """Smoothed inverse-deviation combination weights.

    delta2_lk <- (1-chi) delta2_lk + chi |phi_lk - w_hat|^2, floored to
    avoid division by zero; beta_lk proportional to 1/delta2_lk over the
    neighborhood.
    """
    if not 0.0 < chi <= 1.0:
        raise InvalidArgumentError("chi must be in (0, 1]")
    w_hat = np.asarray(w_hat, dtype=float)
    new_delta2 = {}
    for l, phi in received_phis:
        dev = phi - w_hat
        new_delta2[l] = (1.0 - chi) * prev_delta2[l] + chi * float(dev @ dev)
    inv = {l: 1.0 / max(d2, engine.DELTA2_FLOOR)
           for l, d2 in new_delta2.items()}
    total = sum(inv.values())
    beta_row = {l: v / total for l, v in inv.items()}
    return new_delta2, beta_row


def initial_states(problem):
    """Zero-weight NodeStates with unit smoothed deviations and Metropolis betas."""
    beta0 = metropolis_weights(problem.graph)
    states = []
    for k in range(problem.n_nodes):
        nbrs = neighborhood(problem.graph, k)
        states.append(NodeState(
            w=np.zeros(problem.dim),
            delta2={l: 1.0 for l in nbrs},
            beta_row={l: float(beta0[l, k]) for l in nbrs},
        ))
    return states


def _noise_spec(problem, iteration):
    spec = problem.noise_phases[0][1]
    for start, s in problem.noise_phases:
        if iteration >= start:
            spec = s
    return spec


def node_iteration(problem, algo, states, iteration, draws):
    """One synchronous network iteration, node by node.

    `draws` is a simulate.DrawBlock for a single run (leading axis of
    size 1) whose link-noise arrays cover every directed link, self
    links included. states is a list of NodeState; returns the updated
    list.
    """
    ls = problem.links
    n = problem.n_nodes
    spec = _noise_spec(problem, iteration)
    obs_var = problem.obs_std() ** 2
    X = draws.x_in[0]
    y = X @ problem.h + draws.v_obs[0]
    mu = algo.step_sizes(n)
    z2 = algo.zeta2.value(iteration) if algo.zeta2 else 1.0
    k2 = algo.mcc_kernel2.value(iteration) if algo.mcc_kernel2 else 1.0

    link_idx = {k: [] for k in range(n)}
    for idx in range(ls.n_links):
        link_idx[int(ls.dst[idx])].append(idx)

    self_samples = [
        SharedSample(X[k], float(y[k]), k, self_link=True) for k in range(n)
    ]

    new_states = [NodeState(s.w.copy(), s.phi.copy(),
                            dict(s.delta2), dict(s.beta_row))
                  for s in states]

    # adapt
    for k in range(n):
        received = []
        est = "lms"
        if algo.share_data:
            sx2 = spec.x.sigma_a2
            est = algo.estimator
            # the TLS estimators need input-channel noise to normalize by
            if est in ("mtc", "gdtls") and sx2 == 0:
                est = "lms"
            for idx in link_idx[k]:
                l = int(ls.src[idx])
                x_lk = X[l] + draws.nx[0, idx]
                y_lk = float(y[l] + draws.ny[0, idx])
                gamma = (obs_var[l] + spec.y.sigma_a2) / sx2 if sx2 > 0 else 0.0
                sample = SharedSample(x_lk, y_lk, l, self_link=(l == k))
                received.append(ReceivedSample(
                    sample, float(problem.weights[l, k]),
                    gamma=gamma, zeta2=z2, kernel2=k2))
        else:
            received = [ReceivedSample(self_samples[k], 1.0)]
        new_states[k].phi = adapt_step(states[k].w, received, est, mu[k])

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
            w_hat = local_one_step(
                states[k].w, self_samples[k], mu[k], algo.epsilon)
            delta2, beta_row = adaptive_beta_update(
                states[k].delta2, received_phis, w_hat, algo.chi)
            new_states[k].delta2 = delta2
            new_states[k].beta_row = beta_row
        else:
            beta_row = {l: float(problem.weights[l, k])
                        for l, _ in received_phis}
        new_states[k].w = combine_step(
            [(phi, beta_row[l]) for l, phi in received_phis])
    return new_states
