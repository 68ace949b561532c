"""Closed-form mean and mean-square analysis under Gaussian noise.

Evaluates, for the diffusion update with a fixed combination matrix:
the expected gradient Jacobians (Hessians of the per-link utilities) at
the true weights, the gradient covariances there, the mean error
recursion and its spectral radius, per-node step-size bounds, and the
steady-state network MSD.

The model has white regressors: node k's input covariance is r_k I.
Every Hessian block is then a scalar times I and every gradient-noise
block is a I + b h h^T, so the analysis is exact on (N, N) coefficient
arrays (TheoryInputs.link_factors). The mean recursion is
B_hat = M kron I_L with M = diag(1 - mu c) C, and rho is that of M, by
a dense N x N eigensolve. The MSD series is summed by Smith doubling
(R. A. Smith, 1968) on (N, N) coefficient pairs; see steady_state_msd.

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


@dataclass(frozen=True)
class TheoryInputs:
    """Scenario parameters for the closed-form analysis.

    A and C are (N, N) with entry [l, k] for the directed link l -> k;
    entries off the neighborhood are ignored. Every cross link carries
    the same channel variances and kernel parameter, and its TLS ratio
    is that of its source node.
    """

    h: np.ndarray
    input_var: np.ndarray  # (N,) input variance r per node: R_k = r_k I
    A: np.ndarray          # adaptation weights
    C: np.ndarray          # combination weights
    mu: np.ndarray         # (N,) step sizes
    obs_var: np.ndarray    # (N,) observation noise variances
    sigma_x2: float        # input-channel variance
    sigma_phi2: float      # weight-channel variance
    gamma: np.ndarray      # (N,) TLS ratio of the links out of each node
    zeta2: float           # kernel parameter

    def __post_init__(self):
        for name in ("h", "input_var", "A", "C", "mu", "obs_var", "sigma_x2",
                     "sigma_phi2", "gamma", "zeta2"):
            v = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, v)
        if any((getattr(self, name) < 0).any() for name in
               ("input_var", "obs_var", "sigma_x2", "sigma_phi2")):
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

        Returns (mask, hess, q_r, q_i, q_h) with H_lk = -hess[l, k] r_l I and
        Q_lk = (q_r[l, k] r_l + q_i[l, k]) I - q_h[l, k] h h^T, r_l the
        input variance of the source node l. mask holds the
        modeled links l -> k: the nonzeros of A or C, plus the self links.
        Self link: hess = 1, q_r = obs_var_l. Cross link, u = |h|^2 +
        gamma_l: hess = sqrt(zeta2/(sigma_x2 + zeta2)) / ((sigma_x2 + zeta2) u)
        and, with p = sigma_x2 / (u^2 sqrt(zeta2) (2 sigma_x2 + zeta2)^{3/2}),
        q_r = p u, q_i = p u sigma_x2, q_h = p sigma_x2. zeta2 is never
        squared: zeta2^2 underflows below about 1e-154, where p is still
        finite. A factor past the float range raises NumericalFailureError.
        Computed on first use, so the input arrays must not be modified
        afterwards.
        """
        eye = np.eye(self.n_nodes, dtype=bool)
        mask = (self.A != 0) | (self.C != 0) | eye
        cross = mask & ~eye
        u = float(self.h @ self.h) + self.gamma[np.nonzero(cross)[0]]
        z2, sx2 = self.zeta2, self.sigma_x2
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


def _curvature(inputs):
    """(N,) c with sum_l alpha_lk H_lk(h) = -c_k I at every node k."""
    _, hess, *_ = inputs.link_factors
    return ((inputs.A * hess) * inputs.input_var[:, None]).sum(axis=0)


def _mean_matrix(inputs):
    """M = diag(1 - mu c) C, so that B_hat = M kron I_L: each node adapts
    with A (c), then combines with C."""
    return (1.0 - inputs.mu * _curvature(inputs))[:, None] * inputs.C


def stepsize_upper_bound(inputs):
    """(N,) largest stable step size per node: 2 / c_k (see _curvature)."""
    c = _curvature(inputs)
    with np.errstate(divide="ignore", over="ignore"):
        bounds = 2.0 / c
    if np.isinf(bounds).any():
        k = int(np.argmax(np.isinf(bounds)))
        raise InvalidArgumentError(
            f"summed Hessian at node {k} is zero, or too small for a finite "
            f"step-size bound (spectral radius {c[k]:.3g})")
    return bounds


def _noise_coefficients(inputs):
    """(X, Y) with V + R_script = X kron I_L + Y kron h h^T.

    X = diag(v) + C^T diag(x) C and Y = -C^T diag(y) C, where v_p sums
    the weight-channel noise C_lp^2 sigma_phi2 over the cross links
    into p, x_p = sum_l (alpha_lp mu_p)^2 (q_r r_l + q_i) and
    y_p = sum_l (alpha_lp mu_p)^2 q_h.
    """
    mask, _, q_r, q_i, q_h = inputs.link_factors
    C = inputs.C
    w = (inputs.A * inputs.mu) ** 2   # alpha_lp^2 mu_p^2
    x = (w * (q_r * inputs.input_var[:, None] + q_i)).sum(axis=0)
    y = (w * q_h).sum(axis=0)
    cross = mask & ~np.eye(inputs.n_nodes, dtype=bool)
    v = np.where(cross, C ** 2 * inputs.sigma_phi2, 0.0).sum(axis=0)
    return np.diag(v) + C.T @ (x[:, None] * C), -C.T @ (y[:, None] * C)


def _lifted_norm(X, Y, dim, hh):
    """Frobenius norm of X kron I_L + Y kron h h^T (L = dim, hh = |h|^2).
    With Pi = h h^T / hh it is X kron (I - Pi) + (X + hh Y) kron Pi, two
    orthogonal terms, so its square L|X|^2 + 2 hh <X, Y> + hh^2 |Y|^2 is
    summed as (L - 1)|X|^2 + |X + hh Y|^2, where nothing cancels."""
    return float(np.hypot(np.sqrt(dim - 1) * np.linalg.norm(X),
                          np.linalg.norm(X + hh * Y)))


def steady_state_msd(inputs, tol=MSD_DOUBLING_TOL, cap=MSD_DOUBLING_CAP):
    """Steady-state network MSD by Smith doubling on (N, N) pairs.

    MSD = (1/N) vec{V + R}^T (I - F)^{-1} vec{I} with
    F = (B_hat kron B_hat), B_hat = M kron I_L (_mean_matrix). Equivalently
    Tr(T) = N * MSD for T = sum_{j>=0} B_hat^T^j (V + R) B_hat^j. As
    V + R = X kron I_L + Y kron h h^T (_noise_coefficients) and B_hat^T
    (X kron I + Y kron h h^T) B_hat = M^T X M kron I + M^T Y M kron h h^T,
    each squaring adds M^T (X, Y) M to (X, Y), then sets M <- M^2. After
    s squarings (X, Y) holds 2^s terms, and Tr(T) = L tr X + |h|^2 tr Y.

    tol bounds the Frobenius norm of T's last increment (_lifted_norm);
    cap is the number of squarings allowed before NumericalFailureError.
    iterations_used counts the squarings. rho is the spectral radius of
    the mean recursion B = B_hat^T, which is rho(M); InstabilityError
    carries it when rho >= 1.
    """
    M = _mean_matrix(inputs)
    rho = float(np.abs(np.linalg.eigvals(M)).max())
    if rho >= 1.0:
        raise InstabilityError(
            f"mean recursion is unstable (rho = {rho:.6g} >= 1)", rho)
    X, Y = _noise_coefficients(inputs)
    dim, hh = inputs.dim, float(inputs.h @ inputs.h)
    # rho(M) a rounding error below 1 (say M = C when mu c is 0) can let
    # M^(2^s) grow past the float range; the increment is then not finite.
    # The norm alone may overflow on finite entries, so the test is on the
    # increments.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cap + 1):
            inc_x, inc_y = M.T @ X @ M, M.T @ Y @ M
            X, Y = X + inc_x, Y + inc_y
            delta = _lifted_norm(inc_x, inc_y, dim, hh)
            if delta < tol:
                msd = (dim * float(np.trace(X))
                       + hh * float(np.trace(Y))) / inputs.n_nodes
                return MsdPrediction(
                    msd, 10.0 * np.log10(msd) if msd > 0 else -np.inf, rho,
                    it)
            if not (np.isfinite(inc_x).all() and np.isfinite(inc_y).all()):
                break
            M = M @ M
    raise NumericalFailureError(
        f"MSD doubling did not converge in {it} squarings "
        f"(last increment {delta:.3g})"
    )
