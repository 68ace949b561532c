"""Loop-based reference implementations of the closed-form theory.

Test oracles only, on NL x NL matrices assembled one link at a time
from the per-link Hessian H_lk and gradient covariance Q_lk at the true
weights (hessian_at_optimum, gradient_covariance): the Hessian and
noise-driver blocks, the mean recursion matrix B and its spectral radius
by a dense eigensolve (steady_state_msd builds the N x N form of both
for its stability check and reports rho), the fixed-point MSD
iteration, which adds one term of the series per step where
steady_state_msd doubles on (N, N) pairs, the direct (I - F)^{-1} solve with F
materialized, and the trace decomposition of the noise drivers.

steady_state_msd_kron is the Smith doubling on the lifted NL x NL
matrices S = X kron I_L + Y kron h h^T and P = M kron I_L, with the
Frobenius norm and trace of S taken on NL x NL. steady_state_msd runs
the same squarings on the (N, N) pair (X, Y) alone, and must agree
with it in its squaring count and, to rounding, in its MSD.
"""

from dataclasses import dataclass

import numpy as np

from difflab.errors import (
    InstabilityError,
    InvalidArgumentError,
    NumericalFailureError,
)
from difflab.theory import (
    MSD_DOUBLING_CAP,
    MSD_DOUBLING_TOL,
    MsdPrediction,
    _mean_matrix,
    _noise_coefficients,
)


@dataclass(frozen=True)
class TradeoffReport:
    """Trace decomposition of the steady-state noise drivers."""

    total: float
    per_node: np.ndarray
    combination_part: float   # Tr(V): weight-exchange noise
    gradient_part: float      # Tr(R_script): gradient noise through adaptation


def in_neighborhood(inputs, l, k):
    return inputs.A[l, k] != 0 or inputs.C[l, k] != 0 or l == k


def _check_link(mask, l, k):
    if not mask[l, k]:
        raise InvalidArgumentError(f"link {l}->{k} is not in the neighborhood")


def link_scalars(inputs, l, k):
    """(hess, q_r, q_i, q_h) of link l -> k, from that link's own formula
    (see TheoryInputs.link_factors): a cross link takes the TLS ratio of
    its source node l."""
    if l == k:
        return 1.0, inputs.obs_var[l], 0.0, 0.0
    sx2, z2 = float(inputs.sigma_x2), float(inputs.zeta2)
    u = float(inputs.h @ inputs.h) + inputs.gamma[l]
    p = sx2 / (u * u * np.sqrt(z2) * (2.0 * sx2 + z2) ** 1.5)
    hess = np.sqrt(z2 / (sx2 + z2)) / ((sx2 + z2) * u)
    return hess, p * u, p * u * sx2, p * sx2


def hessian_at_optimum(inputs, l, k):
    """Expected gradient Jacobian H_lk = -hess[l, k] r_l I at the true weights."""
    mask, hess, *_ = inputs.link_factors
    _check_link(mask, l, k)
    return -hess[l, k] * inputs.input_var[l] * np.eye(inputs.dim)


def gradient_covariance(inputs, l, k):
    """Gradient covariance Q_lk at the true weights (see link_factors)."""
    mask, _, q_r, q_i, q_h = inputs.link_factors
    _check_link(mask, l, k)
    return ((q_r[l, k] * inputs.input_var[l] + q_i[l, k]) * np.eye(inputs.dim)
            - q_h[l, k] * np.outer(inputs.h, inputs.h))


def mean_recursion_by_links(inputs):
    """B_hat = (I + M_script H_script) C_script, one link at a time."""
    L = inputs.dim
    M_script = np.kron(np.diag(inputs.mu), np.eye(L))
    D = np.eye(inputs.n_nodes * L) + M_script @ block_diag_hessian_by_links(
        inputs)
    return D @ np.kron(inputs.C, np.eye(L))


def _rho(m):
    return float(np.abs(np.linalg.eigvals(m)).max())


def mean_recursion_matrix(inputs):
    """B = B_hat^T and rho(B)."""
    B = mean_recursion_by_links(inputs).T
    return B, _rho(B)


def fixed_point_msd(inputs, tol=1e-12, cap=100_000):
    """Network MSD from T <- (V + R) + B_hat^T T B_hat, one term per step.

    Returns (msd_linear, iterations).
    """
    B_hat = mean_recursion_by_links(inputs)
    V, R_script = noise_drivers_by_links(inputs)
    M0 = V + R_script
    T = M0.copy()
    for it in range(1, cap + 1):
        T_new = M0 + B_hat.T @ T @ B_hat
        delta = float(np.linalg.norm(T_new - T))
        T = T_new
        if delta < tol:
            return float(np.trace(T)) / inputs.n_nodes, it
    raise NumericalFailureError(f"fixed point did not converge in {cap}")


def steady_state_msd_kron(inputs, tol=MSD_DOUBLING_TOL,
                          cap=MSD_DOUBLING_CAP):
    """Steady-state MSD by Smith doubling on the NL x NL lifts of M, X, Y.

    Starting from S = X kron I_L + Y kron h h^T and P = M kron I_L,
    each squaring sets S <- S + P^T S P and then P <- P^2; tol bounds
    the Frobenius norm of the last increment, cap the squarings.
    """
    M = _mean_matrix(inputs)
    rho = float(np.abs(np.linalg.eigvals(M)).max())
    if rho >= 1.0:
        raise InstabilityError(
            f"mean recursion is unstable (rho = {rho:.6g} >= 1)", rho)
    X, Y = _noise_coefficients(inputs)
    eye = np.eye(inputs.dim)
    S = np.kron(X, eye) + np.kron(Y, np.outer(inputs.h, inputs.h))
    P = np.kron(M, eye)
    # rho(M) a rounding error below 1 (say M = C when mu c is 0) can let
    # P^(2^s) grow past the float range; the increment is then not finite.
    # The norm alone may overflow on finite entries, so the test is on inc.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cap + 1):
            inc = P.T @ S @ P
            S = S + inc
            delta = float(np.linalg.norm(inc))
            if delta < tol:
                msd = float(np.trace(S)) / inputs.n_nodes
                return MsdPrediction(
                    msd, 10.0 * np.log10(msd) if msd > 0 else -np.inf, rho,
                    it)
            if not np.isfinite(inc).all():
                break
            P = P @ P
    raise NumericalFailureError(
        f"MSD doubling did not converge in {it} squarings "
        f"(last increment {delta:.3g})"
    )


def steady_state_msd_bruteforce(inputs):
    """Direct (I - F)^{-1} solve with F materialized; tiny instances only."""
    B_hat = mean_recursion_by_links(inputs)
    nl = B_hat.shape[0]
    if nl > 8:
        raise InvalidArgumentError("brute-force MSD limited to N*L <= 8")
    F = np.kron(B_hat, B_hat)
    vec_eye = np.eye(nl).reshape(-1, order="F")
    x = np.linalg.solve(np.eye(nl * nl) - F, vec_eye)
    V, R_script = noise_drivers_by_links(inputs)
    msd = float((V + R_script).reshape(-1, order="F") @ x) / inputs.n_nodes
    return MsdPrediction(msd, 10.0 * np.log10(msd), _rho(B_hat), 0)


def combination_noise_tradeoff(inputs):
    """Tr(V + R) total and per node; compares combination strategies."""
    V, R_script = noise_drivers_by_links(inputs)
    L = inputs.dim
    diag = np.diag(V + R_script)
    per_node = diag.reshape(inputs.n_nodes, L).sum(axis=1)
    return TradeoffReport(
        total=float(diag.sum()),
        per_node=per_node,
        combination_part=float(np.trace(V)),
        gradient_part=float(np.trace(R_script)),
    )


def block_diag_hessian_by_links(inputs):
    """blockdiag_k sum_l alpha_lk H_lk, one link at a time."""
    n, L = inputs.n_nodes, inputs.dim
    H = np.zeros((n * L, n * L))
    for k in range(n):
        blk = np.zeros((L, L))
        for l in range(n):
            a = inputs.A[l, k]
            if a != 0.0 and in_neighborhood(inputs, l, k):
                blk += a * hessian_at_optimum(inputs, l, k)
        H[k * L:(k + 1) * L, k * L:(k + 1) * L] = blk
    return H


def noise_drivers_by_links(inputs):
    """(V_script, R_script), one link at a time."""
    n, L = inputs.n_nodes, inputs.dim
    C_script = np.kron(inputs.C, np.eye(L))
    M_script = np.kron(np.diag(inputs.mu), np.eye(L))
    C_blocks = np.zeros((n * L, n * L))
    V = np.zeros((n * L, n * L))
    for p in range(n):
        blk = np.zeros((L, L))
        vcoef = 0.0
        for l in range(n):
            if in_neighborhood(inputs, l, p):
                a = inputs.A[l, p]
                if a != 0.0:
                    blk += a * a * gradient_covariance(inputs, l, p)
                b = inputs.C[l, p]
                if b != 0.0 and l != p:
                    vcoef += b * b * inputs.sigma_phi2
        C_blocks[p * L:(p + 1) * L, p * L:(p + 1) * L] = blk
        V[p * L:(p + 1) * L, p * L:(p + 1) * L] = vcoef * np.eye(L)
    return V, C_script.T @ M_script @ C_blocks @ M_script.T @ C_script
