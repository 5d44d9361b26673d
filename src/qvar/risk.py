"""Risk measures: loss distributions, VaR bisection and classical oracles.

The quantum pipeline estimates cumulative probabilities P[L <= x]; the
functions here read them off one simulation of the uncertainty model, wrap
them in a discrete bisection over the loss support and pair them with two
classical references, an exact enumeration of the discretized model and a
seeded Monte Carlo simulation.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import Circuit, Statevector, apply, zero_state
from .estimation import IqaeConfig, iqae
from .gaussian import conditional_pd
from .uncertainty import ModelCircuit, Portfolio

_BLOCK_ELEMENTS = 1 << 17    # floats in one enumeration block's weights and bit rows
MAX_STATE_BYTES = 1 << 30    # one simulation with its working copy and readout arrays
_BYTES_PER_AMPLITUDE = 64    # traced peak per amplitude is about 57: the state, apply's copy
                             # and its temporaries; gate lists grow with 2**(factor width),
                             # not 2**n, so are not counted


@dataclass(eq=False)
class LossDistribution:
    """Distribution of total loss over a finite, sorted, unique support."""

    losses: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.losses = np.asarray(self.losses, dtype=float)
        self.probs = np.asarray(self.probs, dtype=float)
        if self.losses.ndim != 1 or self.losses.shape != self.probs.shape or self.losses.size == 0:
            raise ValueError("losses and probs must be matching nonempty vectors")
        if np.any(np.diff(self.losses) <= 0):
            raise ValueError("loss support must be strictly increasing")
        if np.any(self.probs < 0) or abs(self.probs.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must be nonnegative and sum to 1")

    @classmethod
    def from_pairs(cls, losses, probs) -> "LossDistribution":
        """Aggregate duplicate losses and sort the support."""
        losses = np.asarray(losses, dtype=float)
        probs = np.asarray(probs, dtype=float)
        support, inverse_idx = np.unique(losses, return_inverse=True)
        agg = np.zeros(support.size)
        np.add.at(agg, inverse_idx, probs)
        return cls(support, agg)

    def cdf(self, x: float) -> float:
        return float(self.probs[self.losses <= x].sum())

    def quantile(self, alpha: float) -> float:
        """Smallest support value whose cdf reaches alpha."""
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        cum = np.cumsum(self.probs)
        idx = int(np.searchsorted(cum, alpha - 1e-12))
        return float(self.losses[min(idx, self.losses.size - 1)])


@dataclass
class BisectionProbe:
    """One cdf evaluation inside the bisection; CI fields are iqae-only."""

    threshold: float
    estimate: float
    ci_low: float | None = None
    ci_high: float | None = None
    rounds: int | None = None
    quantum_samples: int | None = None
    converged: bool | None = None


@dataclass
class VarResult:
    """Value at risk with its audit trail."""

    var: float
    alpha: float
    cdf_at_var: float
    expected_loss: float
    economic_capital: float
    bisection_trace: list[BisectionProbe] = field(default_factory=list)


class EstimationFailure(RuntimeError):
    """Bisection could not locate the quantile; carries the partial trace."""

    def __init__(self, message: str, trace: list[BisectionProbe]):
        super().__init__(message)
        self.trace = trace


def _joint_grid(grids) -> tuple[np.ndarray, np.ndarray]:
    """Joint factor values (M, R) and probabilities (M,) over the grid product.

    Cells run in itertools.product order: the last factor varies fastest.
    """
    idx = np.indices([g.size for g in grids]).reshape(len(grids), -1)
    z_joint = np.column_stack([g.values[i] for i, g in zip(idx, grids)])
    pz = np.prod([g.probs[i] for i, g in zip(idx, grids)], axis=0)
    return z_joint, pz


def _grid_pds(portfolio: Portfolio, z_joint: np.ndarray) -> np.ndarray:
    """Conditional default probabilities (M, K) at each joint grid cell."""
    return np.column_stack([
        conditional_pd(a.p0, a.rho, a.alphas, z_joint) for a in portfolio.assets])


def exact_loss_distribution(portfolio: Portfolio, grids,
                            max_enumeration: int = 10_000_000) -> LossDistribution:
    """Exact loss distribution of the discretized model by blocked enumeration.

    Default patterns run in itertools.product order (asset 0 first), in
    blocks of about _BLOCK_ELEMENTS floats.  A pattern's weight multiplies its
    conditional (non)default probabilities left to right, and its loss and
    factor-grid mixture are one dot product each, so the result equals the
    pattern-by-pattern loop bit for bit.  This is the exact encoding's oracle.
    """
    grids = list(grids)
    if len(grids) != portfolio.r:
        raise ValueError(f"expected {portfolio.r} grids, got {len(grids)}")
    k = portfolio.k
    m = int(np.prod([g.size for g in grids]))
    if m * 2 ** k > max_enumeration:
        raise ValueError(
            f"enumeration would visit {m * 2 ** k} states, over the budget of {max_enumeration}")

    z_joint, pz = _joint_grid(grids)
    pd = _grid_pds(portfolio, z_joint)
    q = np.stack([1.0 - pd, pd])                   # q[bit, z, asset]
    lgds = np.asarray(portfolio.lgds, dtype=float)
    tail = min(k, max(0, (_BLOCK_ELEMENTS // (m + k)).bit_length() - 1))
    losses, probs = [], []
    for start in range(0, 2 ** k, 2 ** tail):
        bits = (np.arange(start, start + 2 ** tail)[:, None] >> np.arange(k - 1, -1, -1)) & 1
        weight = np.prod(q[bits[0, :k - tail], :, np.arange(k - tail)], axis=0)[None, :]
        for j in range(k - tail, k):
            weight = (weight[:, None, :] * q[None, :, :, j]).reshape(-1, m)
        # One 1-D dot per row, as `lgds @ bits` and `pz @ weight`; gemv rounds otherwise.
        losses.append((bits[:, None, :].astype(float) @ lgds[:, None])[:, 0, 0])
        probs.append((weight[:, None, :] @ pz[:, None])[:, 0, 0])
    return LossDistribution.from_pairs(np.concatenate(losses), np.concatenate(probs))


def monte_carlo_distribution(portfolio: Portfolio, grids, n_paths: int,
                             seed: int) -> LossDistribution:
    """Empirical loss distribution from seeded simulation of the same model.

    Draw order is fixed (factor indices first, factor by factor, then default
    uniforms), so results are reproducible for a given seed.  Conditional PDs
    are evaluated once per joint grid cell and gathered by each path's cell,
    which gives each path the value an evaluation at its own factor draw would.
    """
    grids = list(grids)
    if len(grids) != portfolio.r:
        raise ValueError(f"expected {portfolio.r} grids, got {len(grids)}")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    rng = np.random.default_rng(seed)
    cell = np.zeros(n_paths, dtype=np.intp)
    for grid in grids:
        idx = rng.choice(grid.size, size=n_paths, p=grid.probs / grid.probs.sum())
        cell = cell * grid.size + idx
    pd = _grid_pds(portfolio, _joint_grid(grids)[0])[cell]
    defaults = rng.random((n_paths, portfolio.k)) < pd
    losses = defaults @ np.asarray(portfolio.lgds)
    support, counts = np.unique(losses, return_counts=True)
    return LossDistribution(support, counts / n_paths)


def expected_loss(dist: LossDistribution) -> float:
    """Mean of the loss distribution."""
    return float(dist.losses @ dist.probs)


def economic_capital(var: float, el: float) -> float:
    """Capital held against unexpected loss: VaR minus expected loss."""
    return var - el


def total_variation_distance(a: LossDistribution, b: LossDistribution) -> float:
    """TV distance between two loss distributions on the union support."""
    support = np.union1d(a.losses, b.losses)
    pa = np.zeros(support.size)
    pb = np.zeros(support.size)
    pa[np.searchsorted(support, a.losses)] = a.probs
    pb[np.searchsorted(support, b.losses)] = b.probs
    return 0.5 * float(np.abs(pa - pb).sum())


def model_state(model: ModelCircuit, n_qubits: int) -> Statevector:
    """The model's gates run on |0> of n_qubits, which may exceed the model's width.

    Qubits above the model stay |0>, so the first 2**model-width amplitudes
    are the model-width simulation; compare runs its comparators on such a
    state of the A circuit's width.  A state over MAX_STATE_BYTES is refused
    before it is allocated.
    """
    need = _BYTES_PER_AMPLITUDE * 2 ** n_qubits
    if need > MAX_STATE_BYTES:
        what = "model" if n_qubits == model.circuit.n_qubits else "A circuit"
        raise ValueError(
            f"the {n_qubits}-qubit {what} would need about {need} bytes of state, over the "
            f"budget of {MAX_STATE_BYTES}; reduce risk_factors.qubits_per_factor or assets")
    return apply(Circuit(n_qubits).extend(model.circuit.gates), zero_state(n_qubits))


def model_cdf(portfolio: Portfolio, model: ModelCircuit,
              state: Statevector) -> Callable[[float], float]:
    """P[L <= x] read off a model_state of the uncertainty model.

    The comparator only moves the amplitudes of patterns with loss <= x onto
    the objective half, so its readout is the model's |amplitude|^2 summed
    over those patterns.  The asset qubits are the model's top K, so a basis
    state's loss is its pattern's; summing the model's amplitudes in flat
    index order with the other entries zeroed reproduces exact_amplitude of
    the s_free circuit bit for bit, and one simulation serves every threshold.
    """
    n, k = model.circuit.n_qubits, portfolio.k
    probs = np.abs(state.amplitudes[:2 ** n]) ** 2
    pattern = np.arange(2 ** k)
    # Summed asset by asset, as the comparator sums each pattern's loss.
    loss = np.zeros(2 ** k)
    for j, lgd in enumerate(portfolio.lgds):
        loss += lgd * ((pattern >> j) & 1)
    return lambda x: float(np.sum(np.where(np.repeat(loss <= x, 2 ** (n - k)), probs, 0.0)))


def cdf_estimator(cdf: Callable[[float], float],
                  iqae_config: IqaeConfig | None = None) -> Callable[[float], BisectionProbe]:
    """A bisection estimator, x -> BisectionProbe, around the cdf x -> P[L <= x].

    Without iqae_config each probe is cdf(x) itself.  With it each probe
    samples cdf(x) through iterative QAE, its i-th call with seed
    iqae_config.seed + i, so a run stays deterministic while its probes are
    independent.
    """
    if iqae_config is None:
        return lambda x: BisectionProbe(threshold=x, estimate=cdf(x))
    seeds = itertools.count(iqae_config.seed)

    def sampled(x):
        res = iqae(cdf(x), replace(iqae_config, seed=next(seeds)))
        return BisectionProbe(threshold=x, estimate=res.estimate,
                              ci_low=res.ci_low, ci_high=res.ci_high,
                              rounds=res.rounds, quantum_samples=res.quantum_samples,
                              converged=res.converged)
    return sampled


def var_bisection(dist: LossDistribution, alpha: float,
                  cdf: Callable[[float], BisectionProbe]) -> VarResult:
    """Smallest support value of dist whose estimated cdf reaches alpha.

    The search runs over the discrete loss support (the cdf is a step
    function with at most 2**K jumps), probing thresholds by bisection with
    the estimator cdf; dist also supplies the expected loss.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    el = expected_loss(dist)
    trace: list[BisectionProbe] = []
    support = dist.losses
    lo, hi = 0, support.size - 1
    best: BisectionProbe | None = None
    while lo <= hi:
        mid = (lo + hi) // 2
        record = cdf(float(support[mid]))
        trace.append(record)
        if record.estimate >= alpha:
            best = record
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise EstimationFailure(
            f"no support point reached the target level {alpha}; "
            f"largest estimate {max(p.estimate for p in trace)}", trace)
    return VarResult(
        var=best.threshold,
        alpha=alpha,
        cdf_at_var=best.estimate,
        expected_loss=el,
        economic_capital=economic_capital(best.threshold, el),
        bisection_trace=trace,
    )
