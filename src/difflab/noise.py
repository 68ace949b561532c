"""Link noise models.

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
        if not (0.0 <= self.sigma_a2 < np.inf and 0.0 <= self.sigma_b2 < np.inf):
            raise InvalidArgumentError("variances must be finite and nonnegative")


ZERO_CHANNEL = GmmSpec()


@dataclass(frozen=True)
class LinkNoiseSpec:
    """Link noise of one phase: a mixture per channel.

    Channels are uniform across cross links (the common experimental
    setting); self-links are noiseless by construction.
    """

    x: GmmSpec = ZERO_CHANNEL
    y: GmmSpec = ZERO_CHANNEL
    phi: GmmSpec = ZERO_CHANNEL


def mixture_draws(normals, std_a, outliers=()):
    """Scale standard normals into zero-mean Gaussian-mixture draws.

    Every draw is first normals * std_a. Each (cols, uniforms, c, std_b)
    of outliers then takes the columns normals[..., cols], laid out like
    uniforms, and rescales those whose uniform is below c to normals *
    std_b, in place. So every draw is one product by one factor. std_a
    and std_b broadcast against their columns (per-link scales). Callers
    draw the uniforms whether or not they select an outlier, so draw
    counts never depend on outcomes and streams stay aligned across
    configs that differ only in variances.
    """
    draws = normals * std_a
    for cols, uniforms, c, std_b in outliers:
        np.multiply(normals[..., cols], std_b, out=draws[..., cols],
                    where=uniforms < c)
    return draws


def gamma_lk(sigma_l2, sigma_lk_y2, sigma_lk_x2):
    """TLS normalization ratio for link l->k.

    Computed from the base (outlier-free) variances of each channel:
    (sigma_l^2 + sigma_{lk,y}^2) / sigma_{lk,x}^2. Broadcasts over arrays.
    A ratio past the float range is inf, whose limit the closed form takes.
    """
    if np.any(np.less(sigma_l2, 0)) or np.any(np.less(sigma_lk_y2, 0)):
        raise InvalidArgumentError("noise variances must be >= 0")
    if np.any(np.less_equal(sigma_lk_x2, 0)):
        raise InvalidArgumentError(
            "TLS ratio undefined for zero input-channel variance; "
            "use the MSE (self-link) path instead"
        )
    with np.errstate(over="ignore"):
        return (sigma_l2 + sigma_lk_y2) / sigma_lk_x2
