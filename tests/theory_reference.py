"""Loop-based reference implementations of the closed-form theory.

Test oracles only: the fixed-point MSD iteration, which adds one term of
the series per step where steady_state_msd doubles, and the per-link
assembly of the Hessian and noise-driver blocks from hessian_at_optimum
and gradient_covariance.
"""

import numpy as np

from difflab.errors import NumericalFailureError
from difflab.theory import (
    _noise_driver_matrices,
    _script_matrices,
    gradient_covariance,
    hessian_at_optimum,
)


def in_neighborhood(inputs, l, k):
    if inputs.graph is not None:
        return l == k or l in inputs.graph.neighbors(k)
    return inputs.A[l, k] != 0 or inputs.C[l, k] != 0 or l == k


def fixed_point_msd(inputs, tol=1e-12, cap=100_000):
    """Network MSD from T <- (V + R) + B_hat^T T B_hat, one term per step.

    Returns (msd_linear, iterations).
    """
    A_script, D = _script_matrices(inputs)
    B_hat = D @ A_script
    V, R_script = _noise_driver_matrices(inputs)
    M0 = V + R_script
    T = M0.copy()
    for it in range(1, cap + 1):
        T_new = M0 + B_hat.T @ T @ B_hat
        delta = float(np.linalg.norm(T_new - T))
        T = T_new
        if delta < tol:
            return float(np.trace(T)) / inputs.n_nodes, it
    raise NumericalFailureError(f"fixed point did not converge in {cap}")


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
    A_script = np.kron(inputs.A, np.eye(L))
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
                    vcoef += b * b * inputs.sigma_phi2[l, p]
        C_blocks[p * L:(p + 1) * L, p * L:(p + 1) * L] = blk
        V[p * L:(p + 1) * L, p * L:(p + 1) * L] = vcoef * np.eye(L)
    return V, A_script.T @ M_script @ C_blocks @ M_script.T @ A_script
