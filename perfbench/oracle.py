"""Reference loss distribution for the benchmark's configs.

An independent, vectorised numpy enumeration of the discretized Gaussian
default model that `qvar` implements.  It shares no code with `qvar` (in
particular it never imports `qvar.risk`), so it can judge every operation the
benchmark runs.  Losses are summed exactly in integer tenths, which every
generated LGD is a multiple of, so the support has no floating-point
near-duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

# Pinned by the acceptance suite for configs/two_asset.json at alpha = 0.95.
TWO_ASSET_SUPPORT = [0.0, 1000.5, 2000.5, 3001.0]
TWO_ASSET_CDF = [0.6500424380360375, 0.7550617778729617, 0.9652513075681205, 1.0]
TWO_ASSET_VAR = 2000.5

TENTHS = 10


@dataclass
class Reference:
    """Support, cdf, VaR and expected loss of one config."""

    support: np.ndarray
    cdf: np.ndarray
    var: float
    expected_loss: float


def _grid(n_z: int, bound: float) -> tuple[np.ndarray, np.ndarray]:
    values = np.linspace(-bound, bound, 2 ** n_z)
    density = np.exp(-0.5 * values * values)
    return values, density / density.sum()


def reference(cfg: dict) -> Reference:
    """Exact enumeration of the config's model at its analysis alpha."""
    factors = cfg["risk_factors"]
    r = factors["count"]
    widths = factors["qubits_per_factor"]
    if isinstance(widths, int):
        widths = [widths] * r
    bound = factors.get("bound_sigmas", 3.0)
    grids = [_grid(n, bound) for n in widths]
    z = np.stack([m.ravel() for m in np.meshgrid(*(g[0] for g in grids), indexing="ij")],
                 axis=1)                                             # (M, R)
    pz = np.prod([m.ravel() for m in np.meshgrid(*(g[1] for g in grids), indexing="ij")],
                 axis=0)                                             # (M,)

    assets = cfg["assets"]
    p0 = np.array([a["p0"] for a in assets])
    rho = np.array([a["rho"] for a in assets])
    alphas = np.array([a["alphas"] for a in assets])                 # (K, R)
    pd = special.ndtr((special.ndtri(p0) - np.sqrt(rho) * (z @ alphas.T)) / np.sqrt(1.0 - rho))
    pd = np.clip(pd, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))  # (M, K)

    lgd = np.array([a["lgd"] for a in assets], dtype=float)
    lgd_tenths = np.rint(lgd * TENTHS).astype(np.int64)
    if np.any(np.abs(lgd_tenths / TENTHS - lgd) > 1e-9):
        raise ValueError("reference oracle needs LGDs that are multiples of 0.1")

    weights = pz[:, None]
    losses = np.zeros(1, dtype=np.int64)
    for k in range(len(assets)):
        col = pd[:, k:k + 1]
        weights = np.concatenate([weights * (1.0 - col), weights * col], axis=1)
        losses = np.concatenate([losses, losses + lgd_tenths[k]])
    support, inverse = np.unique(losses, return_inverse=True)
    probs = np.bincount(inverse, weights=weights.sum(axis=0))
    cdf = np.cumsum(probs)
    values = support / TENTHS
    alpha = cfg["analysis"]["alpha"]
    var = float(values[min(int(np.argmax(cdf >= alpha)), values.size - 1)])
    return Reference(values, cdf, var, float(values @ probs))


def self_check(two_asset_cfg: dict) -> None:
    """Raise unless the oracle reproduces the pinned two-asset values to 1e-12."""
    ref = reference(two_asset_cfg)
    if (ref.support.tolist() != TWO_ASSET_SUPPORT
            or np.max(np.abs(ref.cdf - TWO_ASSET_CDF)) > 1e-12
            or ref.var != TWO_ASSET_VAR):
        raise RuntimeError(
            f"reference oracle disagrees with the pinned two-asset values: "
            f"support {ref.support.tolist()}, cdf {ref.cdf.tolist()}, VaR {ref.var}")
