"""Iterative amplitude estimation with exact Clopper-Pearson intervals.

The iterative scheme never touches phase estimation.  Each round measures the
objective qubit of Q^k A|0>, with outcome probabilities taken from the
closed-form Grover law; the gate-level Grover operator that law is checked
against is the test oracle tests/oracles.grover_operator.  The power k is grown
whenever the current confidence interval for the amplitude angle fits inside an
unambiguous half-plane after amplification.  Per-round intervals are exact Clopper-Pearson
binomial bounds, combined across rounds through a union bound.  iqae_rows runs many
estimations in lockstep, one interval call a round; iqae is its one row.
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


def clopper_pearson(ones, shots, alpha: float):
    """Exact two-sided binomial confidence interval at level 1 - alpha.

    ones and shots are ints, giving a tuple of floats, or integer lists of one length,
    giving (lo, hi) lists, one interval per element.  qvar's one use of scipy, imported
    on the first call, so classical and exact runs never load it: a pure-Python beta
    quantile measured 50-120 ms per verify_compare operation against about 1 ms through
    betaincinv, here one elementwise call for every bound, a bound fixed at 0 or 1 on a
    placeholder 1.
    """
    if isinstance(ones, (int, np.integer)):
        (lo,), (hi,) = clopper_pearson([ones], [shots], alpha)
        return lo, hi
    fails = [n - k for k, n in zip(ones, shots)]
    if min(ones, default=0) < 0 or min(fails, default=0) < 0 or min(shots, default=1) < 1:
        raise ValueError("need 0 <= ones <= shots with shots >= 1")
    from scipy import special
    n = len(fails)
    bounds = special.betaincinv([k or 1 for k in ones] + [k + 1 for k in ones],
                                [f + 1 for f in fails] + [f or 1 for f in fails],
                                [alpha / 2] * n + [1 - alpha / 2] * n).tolist()
    return ([b if k else 0.0 for k, b in zip(ones, bounds)],
            [b if f else 1.0 for f, b in zip(fails, bounds[n:])])


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
    """Iterative amplitude estimation of an objective probability a: iqae_rows' one row."""
    return iqae_rows([amplitude], cfg)[0]


def iqae_rows(amplitudes, cfg: IqaeConfig) -> list[IqaeResult]:
    """Iterative amplitude estimation of objective probabilities, row i seeded cfg.seed + i.

    Each round measures Q^k A|0>, whose objective probability is
    sin^2((2k+1) theta) with sin^2 theta = a; the test oracle grover_operator
    obeys this law at gate level, so the rounds draw from it directly.  a is clipped to
    [0, 1] first, since statevector readouts can round just past the ends.
    With probability at least cfg.confidence each returned estimate is within
    cfg.epsilon of its a.  Failure to converge inside cfg.max_rounds is reported
    through the result, not raised.  The rows run in lockstep, each on its own
    generator, power and interval, so row i is the one-row run with seed cfg.seed + i,
    bit for bit; a round takes every active row's interval from one clopper_pearson
    call.  A row's state is one slot of parallel lists.
    """
    n, shots = len(amplitudes), cfg.shots_per_round
    rngs = [np.random.Generator(np.random.PCG64(cfg.seed + i)) for i in range(n)]  # default_rng
    thetas = [math.asin(math.sqrt(min(max(a, 0.0), 1.0))) for a in amplitudes]

    # Union bound over the largest number of power-advancing rounds.
    t_bound = max(1, int(math.floor(math.log2(math.pi / (4 * cfg.epsilon)))) + 1)
    alpha_round = (1.0 - cfg.confidence) / t_bound

    t_lo, t_hi = [0.0] * n, [0.25] * n      # amplitude angles, fractions of a full turn
    a_lo, a_hi = [0.0] * n, [1.0] * n
    k, upper = [0] * n, [True] * n
    acc_ones, acc_shots, samples = [0] * n, [0] * n, [0] * n
    powers: list[list[int]] = [[] for _ in range(n)]
    active, rounds = list(range(n)), 0      # every row's interval starts wider than 2 eps

    while active and rounds < cfg.max_rounds:
        rounds += 1
        for i in active:
            k_next, upper[i] = _find_next_k(k[i], upper[i], t_lo[i], t_hi[i])
            if k_next != k[i]:
                k[i] = k_next
                acc_ones[i] = acc_shots[i] = 0
            powers[i].append(k_next)
            prob = math.sin((2 * k_next + 1) * thetas[i]) ** 2
            acc_ones[i] += int(rngs[i].binomial(shots, prob))
            acc_shots[i] += shots
            samples[i] += shots * (2 * k_next + 1)

        m_lo, m_hi = clopper_pearson([acc_ones[i] for i in active],
                                     [acc_shots[i] for i in active], alpha_round)
        for i, lo, hi in zip(active, m_lo, m_hi):
            if upper[i]:
                f_lo = math.acos(1.0 - 2.0 * lo) / (2.0 * math.pi)
                f_hi = math.acos(1.0 - 2.0 * hi) / (2.0 * math.pi)
            else:
                f_lo = 1.0 - math.acos(1.0 - 2.0 * hi) / (2.0 * math.pi)
                f_hi = 1.0 - math.acos(1.0 - 2.0 * lo) / (2.0 * math.pi)
            scaling = 4 * k[i] + 2
            t_lo[i] = max(t_lo[i], (int(scaling * t_lo[i]) + f_lo) / scaling)
            t_hi[i] = min(t_hi[i], (int(scaling * t_hi[i]) + f_hi) / scaling)
            if t_hi[i] < t_lo[i]:           # can only happen past the confidence tail
                t_lo[i] = t_hi[i] = 0.5 * (t_lo[i] + t_hi[i])
            a_lo[i] = math.sin(2.0 * math.pi * t_lo[i]) ** 2
            a_hi[i] = math.sin(2.0 * math.pi * t_hi[i]) ** 2
        active = [i for i in active if a_hi[i] - a_lo[i] > 2 * cfg.epsilon]

    del rngs                                # before the results: compare's peak
    return [IqaeResult(estimate=0.5 * (lo + hi), ci_low=lo, ci_high=hi, rounds=len(p),
                       quantum_samples=s, converged=hi - lo <= 2 * cfg.epsilon, powers=tuple(p))
            for lo, hi, s, p in zip(a_lo, a_hi, samples, powers)]
