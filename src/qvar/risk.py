"""Risk measures: loss distributions, VaR bisection and classical oracles.

Every distribution here lies on its portfolio's one support map (Portfolio.support:
the loss table sorted once, each pattern's index into the merged support) and is one
np.bincount of per-pattern probabilities over it: the model's own, the blocked
enumeration of its model_table with no statevector, and two classical references
that read one joint_grid table, the same enumeration of the discretized model and a
seeded Monte Carlo simulation.  VaR is a discrete bisection over a distribution's support.
check_budget is the one check that a run fits, in bytes and in enumerated states.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .estimation import IqaeConfig, iqae
from .gaussian import conditional_pd_table
from .objective import comparator_gates
from .resources import estimate_resources
from .uncertainty import Portfolio, joint_cells, model_layout, model_table

_BLOCK_ELEMENTS = 1 << 17    # floats in one enumeration block's weights
_ROW_ELEMENTS = 1 << 13      # floats in one row of a block: its head patterns side by side
_GUIDE_BUCKETS = 1 << 12     # a power of two, so u * _GUIDE_BUCKETS is exact
_MAX_ENUMERATION = 10_000_000  # (joint cell, default pattern) states: a bound on time
MAX_STATE_BYTES = 1 << 30    # what one run keeps at once: grids, scipy, state, gates, tables
_BYTES_PER_GRID_POINT = 16   # a grid's values and probs
_BYTES_DISCRETIZING = 32     # per point, the temporaries of a grid's first probs: 25 B traced
_IQAE_BYTES = 24 << 20       # scipy.special, which IQAE's first interval imports: 15-22 MB
_BYTES_PER_AMPLITUDE = 40    # the state, evolved in place, and one gate's temporaries: 22 B traced
_BYTES_PER_ANGLE = 64        # traced, a register RY holds 36 B per angle, and 25 B more as it runs
_BYTES_PER_GATE = 256        # traced, a built Gate is about 240 B, controls aside
_BYTES_PER_CONTROL = 64      # a fresh (qubit, polarity) pair and its slot


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

    def cdf(self, x: float) -> float:
        """P[L <= x]: the probabilities up to x, one pairwise sum (1.0 at a NaN x)."""
        return float(self.probs[:self.losses.searchsorted(x, "right")].sum())


@dataclass
class BisectionProbe:
    """One probe of the bisection: a cdf estimate, or the top support point's
    certain 1.0; CI fields are iqae-only."""

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


def joint_grid(portfolio: Portfolio, grids: list) -> tuple[np.ndarray, np.ndarray]:
    """The discretized model's one table: each joint cell's PDs (M, K) and probability (M,)."""
    model_layout(portfolio, grids, "multi_rotation", "exact")  # the check of one grid per factor
    idx = joint_cells(grids)
    z_joint = np.column_stack([g.values[i] for i, g in zip(idx, grids)])
    pz = np.prod([g.probs[i] for i, g in zip(idx, grids)], axis=0)
    return conditional_pd_table(portfolio.obligors, z_joint), pz


def _aligned(shape: tuple) -> np.ndarray:
    """An uninitialised float64 array of the shape whose data starts on a 64-byte line."""
    raw = np.empty(math.prod(shape) + 8)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + math.prod(shape)].reshape(shape)


def mixture_distribution(portfolio: Portfolio, pd: np.ndarray, pz: np.ndarray) -> LossDistribution:
    """Loss distribution of a mixture over the joint grid cells, by blocked
    enumeration of the cells' default probabilities pd (M, K) and probabilities
    pz (M,), which callers make only once check_budget admits the count.
    Default patterns run in the loss table's order, in blocks of about
    _BLOCK_ELEMENTS floats.  A block's patterns share the bits of its outer
    (leading) assets, whose weight is one row of a running prefix of
    (outer + 1) x M floats; the per-block gather this replaced held
    (K - levels) x 2**cols x M.  The next cols assets expand that row into the
    block's 2**cols head patterns side by side, so each of the last levels assets
    multiplies rows of about _ROW_ELEMENTS floats.  A pattern's weight multiplies
    its conditional (non)default probabilities left to right, and its mixture is
    one dot product, so the result equals the pattern-by-pattern loop bit for bit."""
    k, m = portfolio.k, pz.size
    q = np.ascontiguousarray(np.stack([1.0 - pd, pd]).transpose(2, 0, 1))   # q[asset, bit, z]
    tail = min(k, max(0, (_BLOCK_ELEMENTS // m).bit_length() - 1))
    cols = min(tail, max(0, (_ROW_ELEMENTS // m).bit_length() - 1))
    outer, levels, width = k - tail, tail - cols, 2 ** cols * m
    # Block b's pattern (b << tail) + (c << levels) + r is row r, column c.  prefix[j + 1]
    # is prefix[j] * q[j, bit] (prefix[0] is ones, and 1.0 * x == x), and a block
    # recomputes only the rows below the highest outer bit changed since block b - 1.
    # The tree's first cols levels multiply rows of M floats into the head columns, and
    # each row asset's q[j] is tiled once per column.  The tree's levels alternate
    # between (at most) two buffers, none where no level runs, reused by every block
    # (fresh arrays per step page-fault once freed to the OS) and on a 64-byte line,
    # so the kernel's speed does not follow where the heap happens to place them.
    tiles = _aligned((levels, 2, width))
    tiles[...] = np.tile(q[k - levels:], 2 ** cols)
    tree = [*q[outer:k - levels], *tiles]
    prefix = np.ones((outer + 1, m))
    buffers = _aligned((min(tail, 2), 2 ** tail * m))
    dots = np.empty((2 ** levels, 2 ** cols, 1, 1))
    probs = np.empty(2 ** k)
    for block in range(2 ** outer):
        first = outer - (block ^ (block - 1)).bit_length() if block else 0
        for j in range(first, outer):
            np.multiply(prefix[j], q[j, block >> (outer - 1 - j) & 1], out=prefix[j + 1])
        weight = prefix[outer:]
        for j, row in enumerate(tree):
            out = buffers[j % 2, :2 * weight.size].reshape(-1, 2, row.shape[-1])
            weight = np.multiply(weight.reshape(-1, 1, row.shape[-1]), row, out=out)
        # One 1-D dot per pattern, as `pz @ weight`; gemv rounds otherwise.
        np.matmul(weight.reshape(2 ** levels, 2 ** cols, 1, m), pz[:, None], out=dots)
        probs[block << tail:(block + 1) << tail].reshape(2 ** cols, -1)[...] = dots[..., 0, 0].T
    support, index = portfolio.support
    return LossDistribution(support, np.bincount(index, weights=probs))


def exact_loss_distribution(portfolio: Portfolio, grids) -> LossDistribution:
    """Exact loss distribution of the discretized model by blocked enumeration of
    the joint grid's true conditional PDs.  This is the exact encoding's oracle."""
    grids = list(grids)
    check_budget(portfolio, grids)
    return mixture_distribution(portfolio, *joint_grid(portfolio, grids))


def model_distribution(portfolio: Portfolio, grids, variant: str,
                       encoding: str) -> LossDistribution:
    """The model's own loss distribution, with no statevector: the enumeration of its
    model_table, asset k defaulting on cell c with pd = sin^2(angles[c, k] / 2).  Its
    cdf is the A circuit's s_free readout at every threshold, to rounding."""
    grids = list(grids)
    check_budget(portfolio, grids)
    pz, angles = model_table(portfolio, grids, variant, encoding)
    return mixture_distribution(portfolio, np.sin(0.5 * angles) ** 2, pz)


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Chen and Asau's guide table of a cdf ending at 1: entry j is
    cdf.searchsorted(u, "right"), the same for every u in [j, j + 1) / _GUIDE_BUCKETS
    that no cdf point splits, and -1 in a bucket that one does."""
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    lo, hi = cdf.searchsorted(edges[:-1], "right"), cdf.searchsorted(edges[1:], "left")
    return np.where(lo == hi, lo, -1)


def _guide_draw(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray,
                bucket: np.ndarray, out: np.ndarray) -> np.ndarray:
    """cdf.searchsorted(u, "right") for uniforms u in [0, 1), into the integer array
    out: looked up in cdf's guide table, searched only where a cdf point splits the
    bucket.  bucket is an integer array of u's size, overwritten."""
    np.multiply(u, _GUIDE_BUCKETS, out=bucket, casting="unsafe")   # exact, then floored
    np.take(guide, bucket, out=out, mode="clip")                  # "raise" would buffer
    split = np.flatnonzero(out < 0)
    out[split] = cdf.searchsorted(u[split], "right")
    return out


def monte_carlo_distribution(portfolio: Portfolio, grids, pd: np.ndarray, n_paths: int,
                             seed: int) -> LossDistribution:
    """Empirical loss distribution from seeded simulation of the same model, whose
    joint grid cells default with the probabilities pd, joint_grid's (M, K) table.

    The draws are default_rng(seed)'s, in a fixed order: each factor's n_paths
    uniforms, factor by factor, then the (n_paths, K) default uniforms.  They are
    read as F + 1 streams (the i-th is PCG64(seed) advanced i * n_paths draws), one
    block of paths at a time through reused buffers, so memory is flat in n_paths.
    A factor index is rng.choice's inverse-cdf draw, cdf.searchsorted(u, "right"),
    taken from a guide table of _GUIDE_BUCKETS buckets per distinct grid's cdf: only
    draws in a bucket that a cdf point splits are searched.  PDs are gathered from pd,
    and counting paths per pattern of the loss table keeps the enumeration's support.
    """
    grids = list(grids)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    k = portfolio.k
    cdfs = {id(g): c / c[-1] for g, c in ((g, np.cumsum(g.probs / g.probs.sum())) for g in grids)}
    guides = {key: _guide_table(cdf) for key, cdf in cdfs.items()}
    streams = [np.random.Generator(np.random.PCG64(seed).advance(i * n_paths))
               for i in range(len(grids) + 1)]
    # A block's buffers hold about _BLOCK_ELEMENTS floats, as an enumeration block does.
    # Never fewer rows than the count array, which each block's bincount fills.
    rows = min(n_paths, max(_BLOCK_ELEMENTS // (2 * k + 3), 2 ** k))
    cell, codes = np.empty(rows, dtype=np.intp), np.empty(rows)
    draws, pds, powers = np.empty((rows, k)), np.empty((rows, k)), 2.0 ** np.arange(k - 1, -1, -1)
    # The factor draws come before the defaults: their guide buckets and grid
    # indices borrow the default and PD buffers, read as integers.
    bucket, point = (b.reshape(-1).view(np.intp)[:rows] for b in (draws, pds))
    counts = np.zeros(2 ** k, dtype=np.intp)
    for start in range(0, n_paths, rows):
        n = min(rows, n_paths - start)
        c = cell[:n]
        c.fill(0)
        for grid, stream in zip(grids, streams):
            cdf, guide = cdfs[id(grid)], guides[id(grid)]
            draw = stream.random(out=codes[:n])
            c *= cdf.size
            c += _guide_draw(cdf, guide, draw, bucket[:n], point[:n])
        np.take(pd, c, axis=0, out=pds[:n], mode="clip")
        defaults = np.less(streams[-1].random(out=draws[:n]), pds[:n], out=draws[:n])
        # Product-order pattern codes; a float dot is exact here and beats an int one.
        c[:] = np.matmul(defaults, powers, out=codes[:n])
        counts += np.bincount(c, minlength=2 ** k)
    support, index = portfolio.support
    probs = np.bincount(index, weights=counts / n_paths)
    return LossDistribution(support[probs > 0], probs[probs > 0])


def expected_loss(dist: LossDistribution) -> float:
    """Mean of the loss distribution."""
    return float(dist.losses @ dist.probs)


def _count(n) -> str:
    """n to three significant digits, as 3.36e+7: a Decimal as it is, an int exact below 2**90,
    else its top 90 bits times 2**shift at 28 digits, so no whole int becomes a str (Python
    refuses past 4,300 digits, in time quadratic in them) or a float."""
    from decimal import MAX_EMAX, Context, Decimal   # only a refusal counts: no fit loads it
    if not isinstance(n, Decimal):
        shift, context = max(n.bit_length() - 90, 0), Context(prec=28, Emax=MAX_EMAX)
        n = context.multiply(n >> shift, context.power(2, shift))
    return format(n, ".3g")


def check_budget(portfolio: Portfolio, grids, iqae: bool = False,
                 circuit: tuple[str, str, str] | None = None) -> None:
    """The one check that a run fits, made from sizes alone before any grid's arrays exist.
    In bytes, against MAX_STATE_BYTES: the grids' arrays, all kept and one being computed;
    scipy where `iqae` runs; with circuit = (variant, encoding, mode), compare's A circuit:
    its state, its model's register RY angles (the exact encoding's sum(2**n_z) + K * M in
    every encoding) and its comparator's gates.  In states: the enumeration's cells x 2**K."""
    n_z, lone_grid = [g.n_z for g in grids], _BYTES_PER_GRID_POINT + _BYTES_DISCRETIZING
    if max(n_z, default=0) < (MAX_STATE_BYTES // lone_grid).bit_length():
        ctx, two = contextlib.nullcontext(), (lambda e: 2 ** e)    # exact ints
    else:   # a grid whose arrays alone overflow: 28-digit Decimals, no int of n_z bits
        from decimal import MAX_EMAX, Context, Decimal, localcontext
        ctx, two = localcontext(Context(prec=28, Emax=MAX_EMAX)), (lambda e: Decimal(2) ** e)
    with ctx:
        points = [two(n) for n in n_z]
        states = math.prod(points) * two(portfolio.k)
        need = (_BYTES_PER_GRID_POINT * sum(points) + _BYTES_DISCRETIZING * max(points, default=0)
                + (_IQAE_BYTES if iqae else 0))
        what = (f"the {'-, '.join(map(str, n_z))}-qubit factor grids" if len(n_z) <= 3 else
                f"the {len(n_z)} factor grids, the widest of {max(n_z)} qubits,")
        held = ""
        if circuit:
            mode = circuit[-1]
            width = estimate_resources(portfolio, grids, *circuit).width_built
            angles = sum(points) + portfolio.k * math.prod(points)
            gates, controls = comparator_gates(portfolio, mode)
            # s_free keeps the loss table, its sort and the support map's index over the 2**K
            # patterns; the support and an increment's sorted indices ride in its gates' price.
            need += (_BYTES_PER_AMPLITUDE * two(width) + _BYTES_PER_ANGLE * angles
                     + _BYTES_PER_GATE * gates + _BYTES_PER_CONTROL * controls
                     + (3 * 8 * two(portfolio.k) if mode == "s_free" else 0))
            what = f"the {width}-qubit A circuit"
            held = f" with {_count(angles)} angles and {_count(gates)} gates"
        if need > MAX_STATE_BYTES:
            over = (f"{what} would need about {_count(need)} bytes{held}, over the budget of "
                    f"{_count(MAX_STATE_BYTES)}")
        elif states > _MAX_ENUMERATION:
            over = (f"enumeration would visit {_count(states)} states, over the budget of "
                    f"{_count(_MAX_ENUMERATION)}")
        else:
            return
    raise ValueError(f"{over}; reduce risk_factors.qubits_per_factor or assets")


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
    the estimator cdf; dist also supplies the expected loss.  No loss exceeds
    the top support point, so its cdf is 1 and it is never estimated: it is
    recorded as certain, and it is the VaR where no lower point reaches alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    el = expected_loss(dist)
    trace: list[BisectionProbe] = []
    support = dist.losses
    lo, hi = 0, support.size - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        x = float(support[mid])
        record = BisectionProbe(threshold=x, estimate=1.0) if mid == support.size - 1 else cdf(x)
        trace.append(record)
        if record.estimate >= alpha:
            best = record
            hi = mid - 1
        else:
            lo = mid + 1
    return VarResult(
        var=best.threshold,
        alpha=alpha,
        cdf_at_var=best.estimate,
        expected_loss=el,
        economic_capital=best.threshold - el,
        bisection_trace=trace,
    )
