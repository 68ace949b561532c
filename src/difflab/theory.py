"""Closed-form mean and mean-square analysis under Gaussian noise.

Evaluates, for the diffusion update with a fixed combination matrix:
the expected gradient Jacobians (Hessians of the per-link utilities) at
the true weights, the gradient covariances there, the mean error
recursion and its spectral radius, per-node step-size bounds, and the
steady-state network MSD.

The per-link expectations are affine in R_l, I and h h^T, so every block
is assembled from the (N, N) coefficient arrays of
TheoryInputs.link_factors. The MSD series is summed by Smith doubling
(R. A. Smith, 1968); see steady_state_msd.

All blocks are the exact expectations of the gradient estimators the
simulator runs, so predicted and simulated dynamics share one step-size
convention. Cross links are assumed to run the total-correntropy path
(positive input-channel variance); the analysis assumes purely Gaussian
noise throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InstabilityError,
    InvalidArgumentError,
    NumericalFailureError,
)

MSD_DOUBLING_TOL = 1e-12
MSD_DOUBLING_CAP = 64
POWER_ITER_TOL = 1e-10
POWER_ITER_CAP = 100_000
DENSE_EIG_MAX = 64


@dataclass(frozen=True)
class TheoryInputs:
    """Scenario parameters for the closed-form analysis.

    Per-link arrays are (N, N) with entry [l, k] for the directed link
    l -> k; entries off the neighborhood are ignored.
    """

    h: np.ndarray
    R: np.ndarray          # (N, L, L) input covariance per node
    A: np.ndarray          # adaptation weights
    C: np.ndarray          # combination weights
    mu: np.ndarray         # (N,) step sizes
    obs_var: np.ndarray    # (N,) observation noise variances
    sigma_x2: np.ndarray   # (N, N) input-channel variances
    sigma_y2: np.ndarray   # (N, N) output-channel variances
    sigma_phi2: np.ndarray  # (N, N) weight-channel variances
    gamma: np.ndarray      # (N, N) TLS ratios per link
    zeta2: np.ndarray      # (N, N) kernel parameters per link
    graph: object = None

    def __post_init__(self):
        for name in ("h", "R", "A", "C", "mu", "obs_var", "sigma_x2",
                     "sigma_y2", "sigma_phi2", "gamma", "zeta2"):
            v = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, v)
        if (self.obs_var < 0).any() or (self.sigma_x2 < 0).any() \
                or (self.sigma_y2 < 0).any() or (self.sigma_phi2 < 0).any():
            raise InvalidArgumentError("variances must be nonnegative")

    @property
    def n_nodes(self):
        return self.A.shape[0]

    @property
    def dim(self):
        return self.h.size

    @cached_property
    def link_factors(self):
        """Per-link scalar coefficients, (N, N) arrays zero off the neighborhood.

        Returns (mask, hess, q_r, q_i, q_h) with H_lk = -hess[l, k] R_l and
        Q_lk = q_r[l, k] R_l + q_i[l, k] I - q_h[l, k] h h^T. mask holds the
        modeled links l -> k: graph adjacency, or the nonzeros of A and C
        without a graph, plus the self links. Self link: hess = 1,
        q_r = obs_var_l. Cross link, with u = |h|^2 + gamma:
        hess = (zeta2/(sigma_x2 + zeta2))^{3/2} / (zeta2 u) and, with
        p = sigma_x2 / (zeta2^2 u^2) * (zeta2/(2 sigma_x2 + zeta2))^{3/2},
        q_r = p u, q_i = p u sigma_x2, q_h = p sigma_x2. Computed on first
        use, so the input arrays must not be modified afterwards.
        """
        eye = np.eye(self.n_nodes, dtype=bool)
        if self.graph is not None:
            mask = self.graph.adjacency_matrix() | eye
        else:
            mask = (self.A != 0) | (self.C != 0) | eye
        cross = mask & ~eye
        u = float(self.h @ self.h) + self.gamma[cross]
        z2 = self.zeta2[cross]
        sx2 = self.sigma_x2[cross]
        p = sx2 / (z2 * z2 * u * u) * (z2 / (2.0 * sx2 + z2)) ** 1.5
        hess = eye.astype(float)
        hess[cross] = (z2 / (sx2 + z2)) ** 1.5 / (z2 * u)
        q_r = np.diag(self.obs_var)
        q_r[cross] = p * u
        q_i = np.zeros_like(q_r)
        q_i[cross] = p * u * sx2
        q_h = np.zeros_like(q_r)
        q_h[cross] = p * sx2
        return mask, hess, q_r, q_i, q_h


@dataclass(frozen=True)
class MsdPrediction:
    """Steady-state MSD with the doubling solve diagnostics."""

    msd_linear: float
    msd_db: float
    converged: bool
    iterations_used: int


@dataclass(frozen=True)
class TradeoffReport:
    """Trace decomposition of the steady-state noise drivers."""

    total: float
    per_node: np.ndarray
    combination_part: float   # Tr(V): weight-exchange noise
    gradient_part: float      # Tr(R_script): gradient noise through adaptation


def _check_link(mask, l, k):
    if not mask[l, k]:
        raise InvalidArgumentError(f"link {l}->{k} is not in the neighborhood")


def hessian_at_optimum(inputs, l, k):
    """Expected gradient Jacobian H_lk at the true weights.

    Self link: -R_l. Cross link: the total-correntropy utility curvature
    -(1 / (zeta2 (|h|^2 + gamma))) * (zeta2/(sigma_x2 + zeta2))^{3/2} R_l.
    """
    mask, hess, *_ = inputs.link_factors
    _check_link(mask, l, k)
    return -hess[l, k] * inputs.R[l]


def gradient_covariance(inputs, l, k):
    """Covariance Q_lk of the instantaneous gradient at the true weights.

    Self link: obs_var_l * R_l. Cross link:
    sigma_x2 / (zeta2^2 (|h|^2+gamma))^2 * (zeta2/(2 sigma_x2+zeta2))^{3/2}
      * [(|h|^2+gamma)(R_l + sigma_x2 I) - sigma_x2 h h^T].
    """
    mask, _, q_r, q_i, q_h = inputs.link_factors
    _check_link(mask, l, k)
    return (q_r[l, k] * inputs.R[l] + q_i[l, k] * np.eye(inputs.dim)
            - q_h[l, k] * np.outer(inputs.h, inputs.h))


def _block_diag(blocks):
    """(N, L, L) blocks -> (NL, NL) block-diagonal matrix."""
    n, L, _ = blocks.shape
    return np.einsum("kij,km->kimj", blocks, np.eye(n)).reshape(n * L, n * L)


def _summed_hessian(inputs):
    """(N, L, L): sum_l alpha_lk H_lk(h) over the neighborhood of each k."""
    _, hess, *_ = inputs.link_factors
    return -np.tensordot(inputs.A * hess, inputs.R, axes=(0, 0))


def _block_diag_hessian(inputs):
    return _block_diag(_summed_hessian(inputs))


def _script_matrices(inputs):
    """Return A_script = A kron I_L and D = I + M_script H_script."""
    L = inputs.dim
    mh = np.repeat(inputs.mu, L)[:, None] * _block_diag_hessian(inputs)
    return np.kron(inputs.A, np.eye(L)), np.eye(mh.shape[0]) + mh


def spectral_radius(m, tol=POWER_ITER_TOL, cap=POWER_ITER_CAP):
    """Spectral radius by power iteration, dense eigensolver for small matrices.

    Power iteration tracks the growth factor of the iterated vector; on
    stall (complex-dominant or degenerate spectra) it falls back to the
    dense solver.
    """
    m = np.asarray(m, dtype=float)
    if m.shape[0] <= DENSE_EIG_MAX:
        return float(np.abs(np.linalg.eigvals(m)).max())
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(m.shape[0])
    v /= np.linalg.norm(v)
    prev = np.inf
    streak = 0
    for _ in range(cap):
        w = m @ v
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
        if abs(lam - prev) <= tol * max(lam, 1e-300):
            streak += 1
            if streak >= 3:
                return lam
        else:
            streak = 0
        prev = lam
    return float(np.abs(np.linalg.eigvals(m)).max())


def mean_recursion_matrix(inputs):
    """Mean error recursion matrix B = A_script^T (I + M_script H_script) and rho(B)."""
    A_script, D = _script_matrices(inputs)
    B = A_script.T @ D
    return B, spectral_radius(B)


def stepsize_upper_bound(inputs, k):
    """Largest stable step size for node k: 2 / rho(sum_l alpha_lk H_lk(h))."""
    S = _summed_hessian(inputs)[k]
    rho = float(np.abs(np.linalg.eigvals(S)).max())
    if rho == 0.0:
        raise InvalidArgumentError(
            f"summed Hessian at node {k} is zero; step-size bound is infinite"
        )
    return 2.0 / rho


def _noise_driver_matrices(inputs):
    """V_script (weight-exchange noise) and R_script (gradient noise)."""
    L, h = inputs.dim, inputs.h
    mask, _, q_r, q_i, q_h = inputs.link_factors
    w = (inputs.A * inputs.mu) ** 2          # alpha_lp^2 mu_p^2
    blocks = (np.tensordot(w * q_r, inputs.R, axes=(0, 0))
              + (w * q_i).sum(axis=0)[:, None, None] * np.eye(L)
              - (w * q_h).sum(axis=0)[:, None, None] * np.outer(h, h))
    A_script = np.kron(inputs.A, np.eye(L))
    R_script = A_script.T @ _block_diag(blocks) @ A_script
    cross = mask & ~np.eye(inputs.n_nodes, dtype=bool)
    vcoef = np.where(cross, inputs.C ** 2 * inputs.sigma_phi2, 0.0).sum(axis=0)
    return np.diag(np.repeat(vcoef, L)), R_script


def _prediction(msd, iterations):
    db = 10.0 * np.log10(msd) if msd > 0 else -np.inf
    return MsdPrediction(msd, db, True, iterations)


def steady_state_msd(inputs, tol=MSD_DOUBLING_TOL, cap=MSD_DOUBLING_CAP):
    """Steady-state network MSD by Smith doubling.

    MSD = (1/N) vec{V + R}^T (I - F)^{-1} vec{I} with
    F = (B_hat kron B_hat), B_hat = (I + M H) A_script. Equivalently
    Tr(T) = N * MSD for T = sum_{j>=0} B_hat^T^j (V + R) B_hat^j. Starting
    from S = V + R and P = B_hat, each squaring sets S <- S + P^T S P and
    then P <- P^2, so after s squarings S holds the first 2^s terms.

    tol bounds the Frobenius norm of the last increment P^T S P; cap is
    the number of squarings allowed before NumericalFailureError.
    iterations_used counts the squarings.
    """
    A_script, D = _script_matrices(inputs)
    rho = spectral_radius(A_script.T @ D)
    if rho >= 1.0:
        raise InstabilityError(
            f"mean recursion is unstable (rho = {rho:.6g} >= 1)"
        )
    V, R_script = _noise_driver_matrices(inputs)
    S = V + R_script
    P = D @ A_script
    for it in range(1, cap + 1):
        inc = P.T @ S @ P
        S = S + inc
        delta = float(np.linalg.norm(inc))
        if delta < tol:
            return _prediction(float(np.trace(S)) / inputs.n_nodes, it)
        P = P @ P
    raise NumericalFailureError(
        f"MSD doubling did not converge in {cap} squarings "
        f"(last increment {delta:.3g})"
    )


def steady_state_msd_bruteforce(inputs):
    """Direct (I - F)^{-1} solve with F materialized; tiny instances only."""
    A_script, D = _script_matrices(inputs)
    nl = A_script.shape[0]
    if nl > 8:
        raise InvalidArgumentError("brute-force MSD limited to N*L <= 8")
    eye = np.eye(nl)
    B_hat = D @ A_script
    F = np.kron(B_hat, B_hat)
    V, R_script = _noise_driver_matrices(inputs)
    vec_eye = eye.reshape(-1, order="F")
    x = np.linalg.solve(np.eye(nl * nl) - F, vec_eye)
    msd = float((V + R_script).reshape(-1, order="F") @ x) / inputs.n_nodes
    return _prediction(msd, 0)


def combination_noise_tradeoff(inputs):
    """Tr(V + R) total and per node; compares combination strategies."""
    V, R_script = _noise_driver_matrices(inputs)
    L = inputs.dim
    diag = np.diag(V + R_script)
    per_node = diag.reshape(inputs.n_nodes, L).sum(axis=1)
    return TradeoffReport(
        total=float(diag.sum()),
        per_node=per_node,
        combination_part=float(np.trace(V)),
        gradient_part=float(np.trace(R_script)),
    )
