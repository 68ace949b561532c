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
convention. The analysis assumes that cross links run the
total-correntropy path (positive input-channel variance) and that the
link noise is purely Gaussian; `harness.closed_form` is the one gate
that enforces this and refuses every other case.
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

    def __post_init__(self):
        for name in ("h", "R", "A", "C", "mu", "obs_var", "sigma_x2",
                     "sigma_y2", "sigma_phi2", "gamma", "zeta2"):
            v = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, v)
        if any((getattr(self, name) < 0).any() for name in
               ("obs_var", "sigma_x2", "sigma_y2", "sigma_phi2")):
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
        modeled links l -> k: the nonzeros of A or C, plus the self links.
        Self link: hess = 1, q_r = obs_var_l. Cross link, u = |h|^2 + gamma:
        hess = sqrt(zeta2/(sigma_x2 + zeta2)) / ((sigma_x2 + zeta2) u) and,
        with p = sigma_x2 / (u^2 sqrt(zeta2) (2 sigma_x2 + zeta2)^{3/2}),
        q_r = p u, q_i = p u sigma_x2, q_h = p sigma_x2. zeta2 is never
        squared: zeta2^2 underflows below about 1e-154, where p is still
        finite. A factor past the float range raises NumericalFailureError.
        Computed on first use, so the input arrays must not be modified
        afterwards.
        """
        eye = np.eye(self.n_nodes, dtype=bool)
        mask = (self.A != 0) | (self.C != 0) | eye
        cross = mask & ~eye
        u = float(self.h @ self.h) + self.gamma[cross]
        z2 = self.zeta2[cross]
        sx2 = self.sigma_x2[cross]
        hess = eye.astype(float)
        q_r = np.diag(self.obs_var)
        q_i = np.zeros_like(q_r)
        q_h = np.zeros_like(q_r)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # at u = inf (gamma past the float range) p = 0 and
            # hess = 0: the u -> inf limit, where every cross-link factor
            # is 0
            p = sx2 / (u * u * np.sqrt(z2) * (2.0 * sx2 + z2) ** 1.5)
            hess[cross] = np.sqrt(z2 / (sx2 + z2)) / ((sx2 + z2) * u)
            pu = p * np.where(np.isinf(u), 0.0, u)
            q_r[cross] = pu
            q_i[cross] = pu * sx2
            q_h[cross] = p * sx2
        for name, f in (("hess", hess), ("q_r", q_r), ("q_i", q_i),
                        ("q_h", q_h)):
            if not np.isfinite(f).all():
                l, k = np.argwhere(~np.isfinite(f))[0]
                raise NumericalFailureError(
                    f"link factor {name} of link {l}->{k} is past the float "
                    "range")
        return mask, hess, q_r, q_i, q_h


@dataclass(frozen=True)
class MsdPrediction:
    """Steady-state MSD, spectral radius rho of the mean recursion, squarings."""

    msd_linear: float
    msd_db: float
    rho: float
    iterations_used: int


def _block_diag(blocks):
    """(N, L, L) blocks -> (NL, NL) block-diagonal matrix."""
    n, L, _ = blocks.shape
    return np.einsum("kij,km->kimj", blocks, np.eye(n)).reshape(n * L, n * L)


def _summed_hessian(inputs):
    """(N, L, L): sum_l alpha_lk H_lk(h) over the neighborhood of each k."""
    _, hess, *_ = inputs.link_factors
    return -np.tensordot(inputs.A * hess, inputs.R, axes=(0, 0))


def _script_matrices(inputs):
    """Return A_script = A kron I_L and D = I + M_script H_script."""
    L = inputs.dim
    mh = np.repeat(inputs.mu, L)[:, None] * _block_diag(_summed_hessian(inputs))
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


def stepsize_upper_bound(inputs):
    """(N,) largest stable step size per node: 2 / rho(sum_l alpha_lk H_lk(h))."""
    rho = np.abs(np.linalg.eigvals(_summed_hessian(inputs))).max(axis=1)
    with np.errstate(divide="ignore", over="ignore"):
        bounds = 2.0 / rho
    if np.isinf(bounds).any():
        k = int(np.argmax(np.isinf(bounds)))
        raise InvalidArgumentError(
            f"summed Hessian at node {k} is zero, or too small for a finite "
            f"step-size bound (spectral radius {rho[k]:.3g})")
    return bounds


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


def steady_state_msd(inputs, tol=MSD_DOUBLING_TOL, cap=MSD_DOUBLING_CAP):
    """Steady-state network MSD by Smith doubling.

    MSD = (1/N) vec{V + R}^T (I - F)^{-1} vec{I} with
    F = (B_hat kron B_hat), B_hat = (I + M H) A_script. Equivalently
    Tr(T) = N * MSD for T = sum_{j>=0} B_hat^T^j (V + R) B_hat^j. Starting
    from S = V + R and P = B_hat, each squaring sets S <- S + P^T S P and
    then P <- P^2, so after s squarings S holds the first 2^s terms.

    tol bounds the Frobenius norm of the last increment P^T S P; cap is
    the number of squarings allowed before NumericalFailureError.
    iterations_used counts the squarings. rho is the spectral radius of
    the mean recursion B = B_hat^T; InstabilityError carries it when
    rho >= 1.
    """
    A_script, D = _script_matrices(inputs)
    rho = spectral_radius(A_script.T @ D)
    if rho >= 1.0:
        raise InstabilityError(
            f"mean recursion is unstable (rho = {rho:.6g} >= 1)", rho)
    V, R_script = _noise_driver_matrices(inputs)
    S = V + R_script
    P = D @ A_script
    for it in range(1, cap + 1):
        inc = P.T @ S @ P
        S = S + inc
        with np.errstate(over="ignore"):   # past the float range: inf
            delta = float(np.linalg.norm(inc))
        if delta < tol:
            msd = float(np.trace(S)) / inputs.n_nodes
            return MsdPrediction(
                msd, 10.0 * np.log10(msd) if msd > 0 else -np.inf, rho, it)
        P = P @ P
    raise NumericalFailureError(
        f"MSD doubling did not converge in {cap} squarings "
        f"(last increment {delta:.3g})"
    )
