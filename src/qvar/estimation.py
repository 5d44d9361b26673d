"""Iterative amplitude estimation with exact Clopper-Pearson intervals.

The iterative scheme never touches phase estimation.  Each round measures the
objective qubit of Q^k A|0>, with outcome probabilities taken from the
closed-form Grover law; the gate-level Grover operator that law is checked
against is the test oracle tests/oracles.grover_operator.  The power k is grown
whenever the current confidence interval for the amplitude angle fits inside an
unambiguous half-plane after amplification.  Per-round intervals are exact Clopper-Pearson
binomial bounds, combined across rounds through a union bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class IqaeConfig:
    """Target half-width, confidence level and sampling knobs."""

    epsilon: float
    confidence: float
    shots_per_round: int = 100
    max_rounds: int = 64
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if self.shots_per_round < 1:
            raise ValueError("shots_per_round must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class IqaeResult:
    """Estimate with confidence interval and sampling cost.

    quantum_samples counts applications of the estimation operator: every
    shot of a round at Grover power k costs 2k + 1 of them.  converged is
    False when max_rounds ran out first; the interval then still holds, it is
    just wider than requested.
    """

    estimate: float
    ci_low: float
    ci_high: float
    rounds: int
    quantum_samples: int
    converged: bool = True
    powers: tuple[int, ...] = ()


def clopper_pearson(ones: int, shots: int, alpha: float) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval at level 1 - alpha.

    qvar's one use of scipy, imported on the first call, so classical and
    exact runs never load it: a pure-Python beta quantile measured 50-120 ms
    per verify_compare operation against about 1 ms through betaincinv, here one
    elementwise call for both bounds, a bound fixed at 0 or 1 on a placeholder 1.
    """
    if shots < 1 or not 0 <= ones <= shots:
        raise ValueError("need 0 <= ones <= shots with shots >= 1")
    from scipy import special
    lo, hi = special.betaincinv((max(ones, 1), ones + 1), (shots - ones + 1, max(shots - ones, 1)),
                                (alpha / 2, 1 - alpha / 2)).tolist()
    return 0.0 if ones == 0 else lo, 1.0 if ones == shots else hi


def _find_next_k(k: int, upper: bool, t_lo: float, t_hi: float) -> tuple[int, bool]:
    """Largest usable Grover power for the current angle interval.

    Angles are fractions of a full turn.  A power k is usable when the scaled
    interval [(4k+2)t_lo, (4k+2)t_hi] mod 1 sits entirely in one half-plane,
    so the measured probability can be inverted unambiguously.  Powers below
    twice the current scaling are not worth the switch.
    """
    k_old = 4 * k + 2
    width = t_hi - t_lo
    if width <= 0:
        return k, upper
    k_cap = int(0.5 / width)
    scaling = k_cap - (k_cap - 2) % 4
    while scaling >= 2 * k_old:
        f_lo = (scaling * t_lo) % 1.0
        f_hi = (scaling * t_hi) % 1.0
        if f_hi >= f_lo and f_hi <= 0.5:
            return (scaling - 2) // 4, True
        if f_lo >= 0.5 and f_hi >= f_lo:
            return (scaling - 2) // 4, False
        scaling -= 4
    return k, upper


def iqae(amplitude: float, cfg: IqaeConfig) -> IqaeResult:
    """Iterative amplitude estimation of an objective probability a.

    Each round measures Q^k A|0>, whose objective probability is
    sin^2((2k+1) theta) with sin^2 theta = a; the test oracle grover_operator
    obeys this law at gate level, so the rounds draw from it directly.  a is clipped to
    [0, 1] first, since statevector readouts can round just past the ends.
    With probability at least cfg.confidence the returned estimate is within
    cfg.epsilon of a.  Failure to converge inside cfg.max_rounds is reported
    through the result, not raised.
    """
    rng = np.random.default_rng(cfg.seed)
    theta = math.asin(math.sqrt(min(max(amplitude, 0.0), 1.0)))

    # Union bound over the largest number of power-advancing rounds.
    t_bound = max(1, int(math.floor(math.log2(math.pi / (4 * cfg.epsilon)))) + 1)
    alpha_round = (1.0 - cfg.confidence) / t_bound

    t_lo, t_hi = 0.0, 0.25          # amplitude angle, fractions of a full turn
    a_lo, a_hi = 0.0, 1.0
    k, upper = 0, True
    acc_ones = acc_shots = 0
    rounds = 0
    samples = 0
    powers: list[int] = []

    while a_hi - a_lo > 2 * cfg.epsilon and rounds < cfg.max_rounds:
        rounds += 1
        k_next, upper = _find_next_k(k, upper, t_lo, t_hi)
        if k_next != k:
            k = k_next
            acc_ones = acc_shots = 0
        powers.append(k)

        prob = math.sin((2 * k + 1) * theta) ** 2
        ones = int(rng.binomial(cfg.shots_per_round, prob))
        acc_ones += ones
        acc_shots += cfg.shots_per_round
        samples += cfg.shots_per_round * (2 * k + 1)

        m_lo, m_hi = clopper_pearson(acc_ones, acc_shots, alpha_round)
        if upper:
            f_lo = math.acos(1.0 - 2.0 * m_lo) / (2.0 * math.pi)
            f_hi = math.acos(1.0 - 2.0 * m_hi) / (2.0 * math.pi)
        else:
            f_lo = 1.0 - math.acos(1.0 - 2.0 * m_hi) / (2.0 * math.pi)
            f_hi = 1.0 - math.acos(1.0 - 2.0 * m_lo) / (2.0 * math.pi)
        scaling = 4 * k + 2
        t_lo = max(t_lo, (int(scaling * t_lo) + f_lo) / scaling)
        t_hi = min(t_hi, (int(scaling * t_hi) + f_hi) / scaling)
        if t_hi < t_lo:                 # can only happen past the confidence tail
            t_lo = t_hi = 0.5 * (t_lo + t_hi)
        a_lo = math.sin(2.0 * math.pi * t_lo) ** 2
        a_hi = math.sin(2.0 * math.pi * t_hi) ** 2

    return IqaeResult(
        estimate=0.5 * (a_lo + a_hi),
        ci_low=a_lo,
        ci_high=a_hi,
        rounds=rounds,
        quantum_samples=samples,
        converged=a_hi - a_lo <= 2 * cfg.epsilon,
        powers=tuple(powers),
    )
