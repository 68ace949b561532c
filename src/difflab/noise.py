"""Observation and link noise models.

Link noise is zero-mean and either Gaussian or a two-component Gaussian
mixture whose small-probability high-variance component models impulsive
outliers. Exchanged regressors, outputs and intermediate weight vectors
each have their own channel; self-links are always noiseless.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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

    @property
    def is_zero(self):
        return self.total_variance == 0.0


ZERO_CHANNEL = GmmSpec()


@dataclass(frozen=True)
class LinkChannel:
    """One directed link's channel: its mixture spec and self-link flag."""

    gmm: GmmSpec
    self_link: bool = False


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

    def channel(self, name, l, k):
        """Channel spec for directed link l->k; zero on the self link."""
        if l == k:
            return LinkChannel(ZERO_CHANNEL, self_link=True)
        return LinkChannel(getattr(self, name), self_link=False)

    def node_obs_var(self, k):
        ov = self.obs_var
        return float(ov[k]) if ov.size > 1 else float(ov[0])

    # obs_var is an ndarray, so dataclass-generated equality would be
    # ambiguous; compare it elementwise instead
    def __eq__(self, other):
        if not isinstance(other, LinkNoiseSpec):
            return NotImplemented
        return (self.x, self.y, self.phi) == (other.x, other.y, other.phi) \
            and np.array_equal(self.obs_var, other.obs_var)

    def __hash__(self):
        return hash((self.x, self.y, self.phi, self.obs_var.tobytes()))


def sample_gmm(spec, rng, size=None):
    """Draw zero-mean mixture samples: Bernoulli(c) selects the variance.

    Draw counts are independent of outcomes so streams stay aligned
    across configs that differ only in variances.
    """
    if spec.c == 0.0:
        return rng.standard_normal(size) * np.sqrt(spec.sigma_a2)
    if spec.c == 1.0:
        return rng.standard_normal(size) * np.sqrt(spec.sigma_b2)
    outlier = rng.random(size) < spec.c
    sigma = np.where(outlier, np.sqrt(spec.sigma_b2), np.sqrt(spec.sigma_a2))
    return rng.standard_normal(size) * sigma


def perturb_link(payload, channel, rng):
    """Return payload plus per-component channel noise.

    Self-links and zero-variance channels return the payload unchanged
    (bit-exact, no draws).
    """
    payload = np.asarray(payload, dtype=float)
    if channel.self_link or channel.gmm.is_zero:
        return payload
    return payload + sample_gmm(channel.gmm, rng, payload.shape or None)


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


def with_params(spec, **kwargs):
    """Copy a GmmSpec with some fields replaced (sweep helper)."""
    return replace(spec, **kwargs)
