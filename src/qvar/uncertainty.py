"""Uncertainty-loading models: their layout, their numbers, their gates and their mixture.

Two constructions are provided:

* multi_rotation: one register per factor; every factor register controls one
  rotation block per asset.  On one factor it is the single-factor model.
* single_rotation: factor marginals scaled by their weights, an index adder
  into a sum register, and a single rotation block per asset driven by the
  sum.  Requires all assets to share one weight vector.

model_layout is the one check of a model's rules, its (variant, encoding) pair's
among them, and the one place its registers are laid out, joint_cells the one order
of the joint grid cells.  Each construction has one private function computing its
numbers once: the factor loaders' probabilities and each asset's rotation, whose PDs
come from one gaussian.conditional_pd_table call over all of the model's points.
build_model emits the gates from them (see VARIANTS), and model_table gives the
classical mixture: RYs on an asset qubit add up to one angle per joint cell.

Two encodings exist for the multi-rotation model.  The "exact" encoding rotates
each asset by its own angle on every joint grid point: one register RY per asset
over all factor qubits, whose angle count is exponential in the total factor width;
it exists as a desk-scale oracle.  The "linear" encoding approximates the rotation
angle by an affine function of the grid indices (endpoint secant per factor) and
is the scalable form.

Register layout (little-endian throughout):
  multi-rotation:  [factor 0][factor 1]...[assets]
  single-rotation: [factor 0]...[sum register][assets]
Asset qubits always sit at the top of the model, where objective.comparator
finds them.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import arith, gaussian
from .circuit import Gate
from .gaussian import conditional_pd_table, std_normal_pdf

VARIANTS = ("multi_rotation", "single_rotation")
ENCODINGS = ("exact", "linear")
_MERGE_RTOL = 1e-12          # losses this close, relative to the largest, are one point


@dataclass
class Asset:
    """One obligor: loss given default, anchor PD, sensitivity, factor weights."""

    lgd: float
    p0: float
    rho: float
    alphas: tuple[float, ...]

    def __post_init__(self):
        self.alphas = tuple(float(a) for a in self.alphas)
        if self.lgd < 0:
            raise ValueError("lgd must be nonnegative")
        if not 0.0 < self.p0 < 1.0:
            raise ValueError("p0 must lie strictly inside (0, 1)")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if len(self.alphas) < 1:
            raise ValueError("need at least one factor weight")


@dataclass
class Portfolio:
    """A list of assets sharing a common number of systemic risk factors."""

    assets: list[Asset]

    def __post_init__(self):
        if not self.assets:
            raise ValueError("portfolio needs at least one asset")
        r = len(self.assets[0].alphas)
        for k, asset in enumerate(self.assets):
            if len(asset.alphas) != r:
                raise ValueError(
                    f"asset {k} carries {len(asset.alphas)} weights, expected {r}")
        total = 0.0
        try:
            for lgd in self.lgds:       # left to right, as pattern_losses sums its last entry
                total += lgd
        except OverflowError:           # an integer LGD past the largest float
            total = math.inf
        if not math.isfinite(total):
            raise ValueError(f"the LGDs sum to {total}, past the largest float")

    @property
    def k(self) -> int:
        return len(self.assets)

    @property
    def r(self) -> int:
        return len(self.assets[0].alphas)

    @property
    def lgds(self) -> list[float]:
        return [a.lgd for a in self.assets]

    @cached_property
    def obligors(self) -> list[tuple[float, float, tuple[float, ...]]]:
        """Each asset's (F^-1(p0), rho, alphas), from one std_normal_ppf call on first use."""
        quantiles = gaussian.std_normal_ppf([a.p0 for a in self.assets]).tolist()
        return [(q, a.rho, a.alphas) for q, a in zip(quantiles, self.assets)]

    @cached_property
    def pattern_losses(self) -> np.ndarray:
        """The one loss table, built once and read-only: each default pattern's loss in
        itertools.product order (asset 0 most significant), summed asset by asset from 0.0,
        each asset doubling the table in two column passes over an (n, 2) buffer."""
        loss = np.zeros(1)
        for lgd in self.lgds:
            pair = np.empty((loss.size, 2))
            np.add(loss, 0.0, out=pair[:, 0])
            np.add(loss, lgd, out=pair[:, 1])
            loss = pair.ravel()
        loss.flags.writeable = False
        return loss

    @cached_property
    def loss_order(self) -> np.ndarray:
        """The loss table's one sort, argsort's default (not stable), built once and read-only."""
        order = np.argsort(self.pattern_losses)
        order.flags.writeable = False
        return order

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """support_map over loss_order, built once and read-only: the support of every
        distribution here, and each pattern's index, for one np.bincount(index, probs)."""
        support, index = support_map(self.pattern_losses, self.loss_order)
        support.flags.writeable = index.flags.writeable = False
        return support, index


def support_map(losses: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one place losses become a support, and each loss's index into it: sorted losses
    with gaps within _MERGE_RTOL x the largest |loss| are one point, their largest, so
    `loss <= x` there takes in them all.  order is any permutation that sorts losses."""
    ranked = losses[order]
    starts = np.diff(ranked) > _MERGE_RTOL * np.abs(ranked).max()
    index = np.empty(losses.size, dtype=np.intp)
    index[order] = np.concatenate(([0], np.cumsum(starts)))
    return ranked[np.append(starts, True)], index


@dataclass(eq=False)
class ModelCircuit:
    """An uncertainty operator's width, gates and register map (model_layout's has no
    gates yet)."""

    n_qubits: int
    factor_qubits: list[range]
    asset_qubits: list[int]
    ancilla_qubits: list[int] = field(default_factory=list)
    gates: list[Gate] = field(default_factory=list)


def default_angle(pd: np.ndarray) -> np.ndarray:
    """Rotation angle that puts probability pd on |1>: 2*arcsin(sqrt(pd)), elementwise of
    an array, each element by math.asin so the angles keep libm's bits."""
    root = np.sqrt(np.clip(pd, 0.0, 1.0))
    return 2.0 * np.fromiter(map(math.asin, root.flat), float, root.size).reshape(root.shape)


def joint_cells(grids) -> np.ndarray:
    """The one joint-cell layout: each cell's index on every grid, (R, M), in
    itertools.product order, the last factor varying fastest."""
    return np.indices([g.size for g in grids]).reshape(len(grids), -1)


def _angles(obligors, z) -> np.ndarray:
    """default_angle of each obligor's conditional PD at each of the points z (N, R), as
    (N, K).  The points go in shaped (N, 1, R), so each z @ alphas is its own 1-D dot,
    rounded as one point's is; a matrix product rounds otherwise and moves the gates."""
    return default_angle(conditional_pd_table(obligors, z[:, None, :]))[:, 0, :]


def loader_gates(probs, qubits) -> list[Gate]:
    """Gates preparing sum_i sqrt(p_i)|i> on the given register.

    Grover and Rudolph's construction (quant-ph/0208112): the register is split bit by
    bit from the most significant end, each split rotating the next qubit by the
    conditional mass ratio, one register RY per level over the qubits above it.  Each
    level is one array: its nodes' masses, their upper halves' sums, and the angles of
    their ratios.  A node of mass <= 0 has angle 0 and children of mass <= 0, and a level
    of zero angles no gate.  probs is a nonnegative vector of 2**len(qubits) entries
    summing to 1, zeros allowed: a FactorGrid's, whose shape refuses a grid of zero
    density, or single_rotation's marginal, normalized as it is made.
    """
    probs = np.asarray(probs, dtype=float)
    qubits = list(qubits)
    gates, mass = [], np.array([float(probs.sum())])
    for level in reversed(range(len(qubits))):
        live = mass > 0.0
        upper = np.where(live, probs.reshape(mass.size, 2, -1)[:, 1].sum(axis=1), 0.0)
        angles = default_angle(np.divide(upper, mass, out=np.zeros_like(mass), where=live))
        if angles.any():
            gates.append(Gate("ry", qubits[level], tuple(angles.tolist()),
                              register=tuple(reversed(qubits[level + 1:]))))
        # Each node's children, lower then upper, as the next level's nodes.
        mass = np.column_stack((mass - upper, upper)).ravel()
    return gates


def _secants(obligors, grids: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each obligor's endpoint secant along each factor, with the other factors at 0, the
    grids' center: the angles at index 0 (R, K), the slopes (R, K), and the angle at the
    center (K,), from one table of the 2R endpoints and the center."""
    points = np.zeros((2 * len(grids) + 1, len(grids)))
    for r, grid in enumerate(grids):
        points[2 * r:2 * r + 2, r] = grid.values[[0, -1]]
    angles = _angles(obligors, points)
    lows, highs = angles[0:-1:2], angles[1:-1:2]
    return lows, (highs - lows) / np.array([[g.size - 1] for g in grids]), angles[-1]


def _linear_rotation_gates(offset, slopes_and_registers, target) -> list[Gate]:
    """One affine rotation block: RY(offset) plus bitwise controlled RYs."""
    gates = [Gate("ry", target, float(offset))]
    for slope, register in slopes_and_registers:
        for j, qubit in enumerate(register):
            angle = slope * (1 << j)
            if angle != 0.0:
                gates.append(Gate("ry", target, angle, ((qubit, 1),)))
    return gates


def _multi_rotation(portfolio: Portfolio, grids: list, encoding: str):
    """multi_rotation's numbers: the grids' probabilities and each asset's angle on every
    joint cell ((M, K), product order) in the exact encoding, or in the linear one the
    assets' offsets (K,) and slopes (K, R), one per factor register."""
    if encoding == "exact":
        cells = np.column_stack([g.values[i] for i, g in zip(joint_cells(grids), grids)])
        return [g.probs for g in grids], _angles(portfolio.obligors, cells)
    lows, slopes, mid = _secants(portfolio.obligors, grids)
    # Per-factor secants each carry their own intercept; anchoring the
    # combined offset at the mid-grid angle keeps the sum exact for a
    # truly affine angle function and reduces to the single secant at R=1.  The slopes
    # go in C order: model_table's matrix product may round by the layout it reads.
    return [g.probs for g in grids], (sum(lows) - (len(grids) - 1) * mid,
                                      np.ascontiguousarray(slopes.T))


class IndexSumPlan(NamedTuple):
    """Common-step discretization used by the single-rotation model.

    Every factor marginal alpha_r * Z_r is sampled with the same value step
    delta on its first n_points[r] indices, so adding grid indices adds values;
    the sum register holds every index sum in n_sum qubits.
    """

    delta: float
    n_points: list[int]
    n_sum: int


def index_sum_plan(grids, shared_alphas) -> IndexSumPlan:
    """Size the common-step marginals and the sum register.

    delta is the coarsest per-factor full-range step, so each factor covers
    its +-bound*|alpha| range within its own register; factors with smaller
    weight simply use fewer of their grid points.  model_layout, its caller, has
    checked one weight per grid.
    """
    widths = [abs(a) * 2 * g.bound for a, g in zip(shared_alphas, grids)]
    steps = [w / (g.size - 1) for w, g in zip(widths, grids) if w > 0]
    delta = max(steps) if steps else 1.0
    n_points = []
    for width, grid in zip(widths, grids):
        n_r = int(math.floor(width / delta + 1e-9)) + 1 if width > 0 else 1
        n_points.append(min(n_r, grid.size))
    s_max = sum(n - 1 for n in n_points)
    return IndexSumPlan(delta, n_points, max(1, s_max.bit_length()))


def _single_rotation(portfolio: Portfolio, grids: list, plan: IndexSumPlan):
    """single_rotation's numbers on its index-sum plan: each factor register's marginal
    alpha_r * Z_r (diagonal covariance; a zero tail beyond its n_points), centred on
    its base value, and each asset's offset and slope over the sum register, whose
    value s stands for delta * s + sum(bases)."""
    shared = portfolio.assets[0].alphas
    bases = [-0.5 * plan.delta * (n_r - 1) for n_r in plan.n_points]
    s_max = sum(n - 1 for n in plan.n_points)
    loads = []
    for grid, alpha, n_r, base in zip(grids, shared, plan.n_points, bases):
        probs = np.zeros(grid.size)
        if n_r == 1 or alpha == 0.0:
            probs[0] = 1.0
        else:
            density = std_normal_pdf((base + plan.delta * np.arange(n_r)) / abs(alpha))
            total = density.sum()
            if not total > 0.0:
                raise ValueError(f"factor {len(loads)}'s single-rotation marginal has density 0 "
                                 f"at all {n_r} points; reduce risk_factors.bound_sigmas or "
                                 f"raise risk_factors.qubits_per_factor")
            probs[:n_r] = density / total
        loads.append(probs)
    ends = (plan.delta * np.array([0, s_max]) + sum(bases))[:, None]
    lows, highs = _angles([(q, rho, (1.0,)) for q, rho, _ in portfolio.obligors], ends)
    slopes = (highs - lows) / s_max if s_max else np.zeros_like(lows)
    return loads, (lows, slopes[:, None])


def model_layout(portfolio: Portfolio, grids, variant: str,
                 encoding: str) -> tuple[ModelCircuit, IndexSumPlan | None]:
    """The one check of a model's rules and layout of its registers: build_model's model
    with no gates yet, sum(n_z) + K qubits plus single_rotation's sum register, and
    single_rotation's IndexSumPlan (else None).  The encoding is one of ENCODINGS, every
    variant needs one grid per factor, and single_rotation shared weights, `linear` and
    factors of at most 1,023 qubits."""
    grids = list(grids)
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if len(grids) != portfolio.r:
        raise ValueError(f"portfolio has {portfolio.r} factors but {len(grids)} grids were given")
    plan = None
    if variant == "single_rotation":
        shared = portfolio.assets[0].alphas
        for k_idx, asset in enumerate(portfolio.assets):
            if asset.alphas != shared:
                raise ValueError(
                    f"asset {k_idx} has weights {asset.alphas}, but the single-rotation "
                    f"variant requires the shared vector {shared}")
        if encoding != "linear":
            raise ValueError(f"the single_rotation variant takes encoding 'linear' only, got "
                             f"{encoding!r}: its rotation is affine in the sum register")
        widest = max(g.n_z for g in grids)
        if widest >= sys.float_info.max_exp:    # index_sum_plan steps over 2**n_z - 1 points
            raise ValueError(f"the single_rotation variant steps each factor's range over its "
                             f"2**n_z - 1 points in floats, so it takes factors of at most "
                             f"{sys.float_info.max_exp - 1} qubits, got {widest}; reduce "
                             f"risk_factors.qubits_per_factor")
        plan = index_sum_plan(grids, shared)
    starts = list(itertools.accumulate((g.n_z for g in grids), initial=0))
    sum_qubits = list(range(starts[-1], starts[-1] + plan.n_sum)) if plan else []
    asset_qubits = [starts[-1] + len(sum_qubits) + i for i in range(portfolio.k)]
    return ModelCircuit(asset_qubits[-1] + 1,
                        [range(s, s + g.n_z) for s, g in zip(starts, grids)],
                        asset_qubits, sum_qubits), plan


def _numbers(portfolio: Portfolio, grids: list, variant: str, encoding: str):
    """One model's model_layout and numbers: the factor registers' probability vectors,
    and the (M, K) angles or the assets' offsets (K,) and slopes (K, registers)."""
    model, plan = model_layout(portfolio, grids, variant, encoding)
    if plan:
        return model, plan, *_single_rotation(portfolio, grids, plan)
    return model, plan, *_multi_rotation(portfolio, grids, encoding)


def build_model(portfolio: Portfolio, grids, variant: str, encoding: str) -> ModelCircuit:
    """Build the uncertainty model of one variant (see VARIANTS) on its model_layout from
    its numbers: the factor loaders, one register RY per level, single_rotation's index
    adder into the sum register, each asset's rotations (in the exact encoding one register
    RY over all factor qubits), then the adder reversed, its inverse as every adder gate is
    an X, so the sum register returns to |0>.

    multi_rotation on a portfolio of one factor is the single-factor model, and
    single_rotation takes encoding="linear" only (model_layout's rule), so each accepted
    (variant, encoding) builds its own model.
    """
    grids = list(grids)
    model, plan, loads, rotations = _numbers(portfolio, grids, variant, encoding)
    gates = model.gates
    for probs, reg in zip(loads, model.factor_qubits):
        gates.extend(loader_gates(probs, reg))
    # single_rotation's index adder: bit j of a factor register adds 2**j to the sum, for
    # the bits its n_points admit; none without a plan.
    bits = [(q, j) for reg, n_r in zip(model.factor_qubits, plan.n_points if plan else ())
            for j, q in enumerate(reg) if 1 << j <= n_r - 1]
    adder = arith.weighted_sum_gates([q for q, _ in bits], [1 << j for _, j in bits],
                                     model.ancilla_qubits)
    gates.extend(adder)
    if isinstance(rotations, np.ndarray):
        register = tuple(q for reg in model.factor_qubits for q in reversed(reg))  # product order
        for target, angles in zip(model.asset_qubits, rotations.T.tolist()):
            gates.append(Gate("ry", target, tuple(angles), register=register))
    else:
        registers = [model.ancilla_qubits] if plan else model.factor_qubits
        for offset, slopes, target in zip(*(r.tolist() for r in rotations), model.asset_qubits):
            gates.extend(_linear_rotation_gates(offset, zip(slopes, registers), target))
    gates.extend(reversed(adder))
    return model


def model_table(portfolio: Portfolio, grids, variant: str,
                encoding: str) -> tuple[np.ndarray, np.ndarray]:
    """build_model's model as a classical mixture, no gate built: the probabilities (M,)
    of the factor registers' joint cells in itertools.product order, and each asset's
    total angle on each cell (M, K).  RYs on one qubit add up, so on cell c asset k
    defaults with probability sin^2(angles[c, k] / 2)."""
    grids = list(grids)
    _, plan, loads, rotations = _numbers(portfolio, grids, variant, encoding)
    idx = joint_cells(grids)
    pz = np.prod([p[i] for i, p in zip(idx, loads)], axis=0)
    if isinstance(rotations, np.ndarray):
        return pz, rotations
    offsets, slopes = rotations
    # An index register holds a factor's grid index, or single_rotation's their sum.
    return pz, offsets + (idx.sum(axis=0)[:, None] if plan else idx.T) @ slopes.T
