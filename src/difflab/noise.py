"""Observation and link noise models.

Link noise is zero-mean and either Gaussian or a two-component Gaussian
mixture whose small-probability high-variance component models impulsive
outliers. Exchanged regressors, outputs and intermediate weight vectors
each have their own channel; self-links are always noiseless. The
simulator draws the standard normals and uniforms itself (see the
randomness contract in `simulate.py`) and scales them with
`mixture_draws`, the one mixture primitive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class GmmSpec:
    """Zero-mean Gaussian mixture: N(0, sigma_a2) w.p. 1-c, N(0, sigma_b2) w.p. c.

    c = 0 degenerates to a plain Gaussian with variance sigma_a2.
    """

    c: float = 0.0
    sigma_a2: float = 0.0
    sigma_b2: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise InvalidArgumentError(f"mixing probability c={self.c} not in [0,1]")
        if self.sigma_a2 < 0 or self.sigma_b2 < 0:
            raise InvalidArgumentError("variances must be nonnegative")

    @property
    def total_variance(self):
        return (1.0 - self.c) * self.sigma_a2 + self.c * self.sigma_b2


ZERO_CHANNEL = GmmSpec()


@dataclass(frozen=True, eq=False)
class LinkNoiseSpec:
    """Noise parameters for a network: per-channel mixtures plus observation noise.

    Channels are uniform across cross links (the common experimental
    setting); self-links are noiseless by construction. obs_var is the
    per-node observation noise variance sigma_k^2.
    """

    x: GmmSpec = ZERO_CHANNEL
    y: GmmSpec = ZERO_CHANNEL
    phi: GmmSpec = ZERO_CHANNEL
    obs_var: np.ndarray = None

    def __post_init__(self):
        ov = np.atleast_1d(np.asarray(
            self.obs_var if self.obs_var is not None else 0.0, dtype=float))
        if (ov < 0).any():
            raise InvalidArgumentError("observation variances must be >= 0")
        ov = ov.copy()
        ov.setflags(write=False)
        object.__setattr__(self, "obs_var", ov)

    # obs_var is an ndarray, so dataclass-generated equality would be
    # ambiguous; compare it elementwise instead
    def __eq__(self, other):
        if not isinstance(other, LinkNoiseSpec):
            return NotImplemented
        return (self.x, self.y, self.phi) == (other.x, other.y, other.phi) \
            and np.array_equal(self.obs_var, other.obs_var)

    def __hash__(self):
        return hash((self.x, self.y, self.phi, self.obs_var.tobytes()))


def mixture_draws(normals, uniforms, c, std_a, std_b):
    """Scale standard normals into zero-mean Gaussian-mixture draws.

    A draw takes std_b where its uniform is below c and std_a elsewhere;
    pass uniforms=None when no draw can come from the std_b component.
    std_a and std_b broadcast against normals (per-link scales). Callers
    draw the uniforms whether or not they select an outlier, so draw
    counts never depend on outcomes and streams stay aligned across
    configs that differ only in variances.
    """
    if uniforms is None:
        return normals * std_a
    return normals * np.where(uniforms < c, std_b, std_a)


def gamma_lk(sigma_l2, sigma_lk_y2, sigma_lk_x2):
    """TLS normalization ratio for link l->k.

    Computed from the base (outlier-free) variances of each channel:
    (sigma_l^2 + sigma_{lk,y}^2) / sigma_{lk,x}^2. Broadcasts over arrays.
    """
    if np.any(np.less(sigma_l2, 0)) or np.any(np.less(sigma_lk_y2, 0)):
        raise InvalidArgumentError("noise variances must be >= 0")
    if np.any(np.less_equal(sigma_lk_x2, 0)):
        raise InvalidArgumentError(
            "TLS ratio undefined for zero input-channel variance; "
            "use the MSE (self-link) path instead"
        )
    return (sigma_l2 + sigma_lk_y2) / sigma_lk_x2
