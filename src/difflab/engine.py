"""Algorithm specs and the gradient estimators of the adapt step.

The four gradients (LMS, MCC, MTC, GD-TLS) broadcast over leading axes:
w and x are (..., L) arrays and y and the per-link parameters broadcast
against their leading shape, so `simulate.py` evaluates them on whole
(runs, links, L) batches and a test can call them on single vectors.

Gradients are ascent directions of their utility functions, exactly as
used in the weight update phi = w + mu * sum_l alpha_lk * g_lk(w).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

DELTA2_FLOOR = 1e-12

ESTIMATORS = ("lms", "mcc", "mtc", "gdtls")


@dataclass(frozen=True)
class KernelSchedule:
    """Piecewise-constant kernel value: `initial` for i < switch, `final` after."""

    initial: float
    final: float
    switch_iteration: int = 100

    def __post_init__(self):
        if not (0 < self.initial < np.inf and 0 < self.final < np.inf):
            raise InvalidArgumentError("kernel values must be positive and finite")

    def value(self, iteration):
        return self.initial if iteration < self.switch_iteration else self.final


@dataclass(frozen=True)
class AlgorithmSpec:
    """Configuration of one algorithm variant.

    estimator selects the cross-link gradient; the self link always uses
    the LMS gradient. share_data=False models A=I, share_weights=False
    models C=I. adaptive_combination replaces the fixed C row with the
    inverse-deviation rule.
    """

    name: str
    estimator: str = "lms"
    share_data: bool = True
    share_weights: bool = True
    adaptive_combination: bool = False
    step_size: float = 0.05
    zeta2: KernelSchedule | None = None
    mcc_kernel2: KernelSchedule | None = None
    chi: float = 0.05
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise InvalidArgumentError(f"unknown estimator {self.estimator!r}")
        mu = np.asarray(self.step_size)
        if not np.all((mu > 0) & (mu < np.inf)):
            raise InvalidArgumentError("step sizes must be positive and finite")
        if not 0.0 < self.chi <= 1.0:
            raise InvalidArgumentError("chi must be in (0, 1]")
        if self.epsilon <= 0:
            raise InvalidArgumentError("epsilon must be positive")
        # each schedule is read by one estimator, which needs it; on any
        # other, a zeta2 sweep would rescale the step size for nothing
        for key, reader in (("zeta2", "mtc"), ("mcc_kernel2", "mcc")):
            if (getattr(self, key) is None) == (self.estimator == reader):
                raise InvalidArgumentError(
                    f"{key}: the {reader} estimator needs this schedule "
                    f"and no other takes it; {self.name} uses "
                    f"{self.estimator}")

    @property
    def shares_phi(self):
        """True when intermediate weight vectors cross links."""
        return self.share_weights or self.adaptive_combination

    def step_sizes(self, n_nodes):
        mu = np.asarray(self.step_size, dtype=float)
        if mu.size not in (1, n_nodes):
            raise InvalidArgumentError(
                f"{self.name}: {mu.size} step sizes for {n_nodes} nodes; "
                "give one or one per node")
        return np.broadcast_to(mu, (n_nodes,)).copy()


def _residual(w, x, y):
    """Prediction error e = y - w'x, contracted over the last axis."""
    if np.shape(w)[-1] != np.shape(x)[-1]:
        raise InvalidArgumentError("weight/regressor dimension mismatch")
    return y - np.einsum("...l,...l->...", w, x)


def lms_gradient(w, x, y):
    """LMS ascent direction e * x."""
    e = _residual(w, x, y)
    return e[..., None] * x


def mcc_gradient(w, x, y, kernel2):
    """Correntropy-weighted LMS direction: exp(-e^2/(2k^2)) * e * x."""
    e = _residual(w, x, y)
    G = np.exp(-(e * e) / (2.0 * kernel2))
    return G[..., None] * (e[..., None] * x)


def _normalized_gradient(w, x, y, gamma, zeta2):
    e = _residual(w, x, y)
    e2 = e * e
    u = np.einsum("...l,...l->...", w, w) + gamma
    if zeta2 is None:
        G, denom = 1.0, u * u
    else:
        G, denom = np.exp(-e2 / (2.0 * zeta2 * u)), zeta2 * u * u
    return (G * (u * e) / denom)[..., None] * x \
        + (G * e2 / denom)[..., None] * w


def mtc_gradient(w, x, y, zeta2, gamma):
    """Gradient of the total-correntropy utility exp(-e^2/(2 zeta2 u)).

    G * [u e x + e^2 w] / (zeta2 u^2) with u = |w|^2 + gamma.
    """
    return _normalized_gradient(w, x, y, gamma, zeta2)


def gdtls_gradient(w, x, y, gamma):
    """Gradient-descent TLS direction: the MTC gradient with the kernel removed.

    Equals -1/2 the gradient of the normalized squared residual
    e^2 / (|w|^2 + gamma).
    """
    return _normalized_gradient(w, x, y, gamma, None)
