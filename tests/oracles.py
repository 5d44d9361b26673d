"""Test-side oracles: what the tests check qvar against, and nothing a command runs.

The gate-level path: a circuit is a list of gates.  build_a_circuit assembles one
threshold's whole estimation operator A (model, then comparator) and returns its width
beside it, exact_amplitude reads A's top qubit, the objective, off the statevector of
that width, and grover_operator builds Q from A and inverse(A) over that width, the
gate law that estimation.iqae samples in closed form; adjoint is one gate's inverse.
compare steps one state through the same gates, so exact_amplitude is its
readout's oracle.

The reference rules: quantile, the textbook smallest loss whose cdf reaches a
level; total_variation_distance between two loss distributions; conditional_pd,
one obligor's column of gaussian.conditional_pd_table; distribution, the support
rule over arbitrary (loss, probability) pairs, sorted by np.argsort.  apply runs a
circuit on a copy of a state; expand spells each register RY out as the
pattern-controlled RYs it stands for; probabilities and dump give a state's
measurement distribution and a circuit's text form.

tests/ has no __init__.py, so pytest puts it on sys.path and `from oracles
import ...` works from every test module.
"""

from __future__ import annotations

import itertools

import numpy as np

from qvar.circuit import Gate, evolve, marginal_probability, zero_state
from qvar.gaussian import conditional_pd_table, std_normal_ppf
from qvar.objective import comparator, objective_qubit
from qvar.risk import LossDistribution
from qvar.uncertainty import Portfolio, build_model, support_map


def apply(gates: list[Gate], state: np.ndarray) -> np.ndarray:
    """Run every gate in order on a copy of the state (np.array keeps its dtype)."""
    out = np.array(state)
    evolve(gates, out)
    return out


def expand(gates) -> list[Gate]:
    """The gates with each register RY spelled out as one pattern-controlled RY per nonzero
    angle: values in the register's product order (itertools.product over its qubits, the
    first most significant, as joint cells run), each gate's controls in ascending qubit
    order.  Other gates are kept as they are."""
    out = []
    for gate in gates:
        if gate.register is None:
            out.append(gate)
            continue
        for bits, theta in zip(itertools.product((0, 1), repeat=len(gate.register)), gate.theta):
            if theta != 0.0:
                controls = tuple(sorted(gate.controls + tuple(zip(gate.register, bits))))
                out.append(Gate("ry", gate.target, theta, controls))
    return out


def dump(gates: list[Gate]) -> str:
    """Debug text form of the expanded gates, one per line, stable for golden tests."""
    lines = []
    for gate in expand(gates):
        head = f"ry({gate.theta:+.15e})" if gate.kind == "ry" else gate.kind
        ctrl = " ".join(f"q{c}={p}" for c, p in gate.controls)
        lines.append(f"{head} q{gate.target}" + (f" | {ctrl}" if ctrl else ""))
    return "\n".join(lines)


def adjoint(gate: Gate) -> Gate:
    """The gate's inverse: an ry with its angles negated; x and z are their own."""
    if gate.kind != "ry":
        return gate
    theta = -gate.theta if gate.register is None else tuple(-t for t in gate.theta)
    return Gate("ry", gate.target, theta, gate.controls, gate.register)


def inverse(gates: list[Gate]) -> list[Gate]:
    """Adjoint circuit: reversed gate order, each gate replaced by its adjoint."""
    return [adjoint(g) for g in reversed(gates)]


def probabilities(state: np.ndarray, qubits=None) -> np.ndarray:
    """Measurement distribution, optionally marginalized onto `qubits`.

    When `qubits` is given, bit j of the returned index corresponds to the
    j-th entry of `qubits`.
    """
    probs = np.abs(state) ** 2
    if qubits is None:
        return probs
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubit in marginal request")
    for q in qubits:
        if not 0 <= q < state.size.bit_length() - 1:
            raise ValueError(f"qubit {q} out of range")
    index = np.arange(probs.size)
    keys = np.zeros(probs.size, dtype=np.int64)
    for j, q in enumerate(qubits):
        keys |= (((index >> q) & 1) << j)
    out = np.zeros(2 ** len(qubits))
    np.add.at(out, keys, probs)
    return out


def exact_amplitude(a: list[Gate], n_qubits: int) -> float:
    """Objective-qubit probability of A|0...0> on n_qubits, read off the statevector;
    the objective is the top qubit."""
    state = apply(a, zero_state(n_qubits))
    return marginal_probability(state, n_qubits - 1, 1)


def grover_operator(a: list[Gate], n_qubits: int) -> list[Gate]:
    """Q = A * S0 * A^-1 * S_good (rightmost factor acts first) on n_qubits.

    S_good flips the phase of states whose objective qubit, the top one, is 1
    (a plain Z); S0 flips the phase of the all-zeros state, realized as an
    X-conjugated Z on qubit 0 controlled on every other qubit being 0.
    """
    others = tuple((i, 0) for i in range(1, n_qubits))
    s0 = [Gate("x", 0), Gate("z", 0, controls=others), Gate("x", 0)]
    return [Gate("z", n_qubits - 1)] + inverse(a) + s0 + a


def build_a_circuit(portfolio: Portfolio, grids, threshold: float, *,
                    variant: str = "multi_rotation", encoding: str = "exact",
                    mode: str = "s_free") -> tuple[list[Gate], int]:
    """The complete estimation operator for one threshold, model then comparator, and
    its width: the objective, its top qubit, plus one."""
    model = build_model(portfolio, grids, variant, encoding)
    width = objective_qubit(portfolio, model, mode) + 1
    return model.gates + comparator(portfolio, model, mode, threshold), width


def conditional_pd(p0: float, rho: float, alphas, z):
    """Conditional default probability given factor realizations: one obligor's
    column of conditional_pd_table.

    With R = 1 and alphas = (1,) this is the classic single-factor form.
    `z` may be a vector of R realizations or an array whose last axis has
    length R, in which case the result is vectorized over the leading axes.
    """
    return np.take(conditional_pd_table([(std_normal_ppf(p0), rho, alphas)], z), 0, axis=-1)


def quantile(dist: LossDistribution, alpha: float) -> float:
    """Smallest support value whose cdf reaches alpha.

    A rule of its own, not var_bisection's: it searches the running sum
    np.cumsum(probs) and accepts a cdf 1e-12 short of alpha, where var_bisection
    accepts dist.cdf(x) >= alpha exactly, and that cdf is a masked pairwise sum
    that can round a few ulp away from the running one.  The slack keeps a level
    that a cdf step meets in exact arithmetic from falling one support point high
    on rounding.  The two rules agree wherever no cdf value lies within 1e-12
    below alpha, which the tests' alpha grids keep to.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    cum = np.cumsum(dist.probs)
    idx = int(np.searchsorted(cum, alpha - 1e-12))
    return float(dist.losses[min(idx, dist.losses.size - 1)])


def distribution(losses, probs) -> LossDistribution:
    """The distribution of arbitrary (loss, probability) pairs on their support: the
    portfolio's rule, support_map, over np.argsort(losses), each point's probability
    summed in input order by one bincount."""
    losses = np.asarray(losses, dtype=float)
    support, index = support_map(losses, np.argsort(losses))
    return LossDistribution(support, np.bincount(index, weights=probs))


def total_variation_distance(a: LossDistribution, b: LossDistribution) -> float:
    """TV distance between two loss distributions on the union support."""
    support = np.union1d(a.losses, b.losses)
    pa = np.zeros(support.size)
    pb = np.zeros(support.size)
    pa[np.searchsorted(support, a.losses)] = a.probs
    pb[np.searchsorted(support, b.losses)] = b.probs
    return 0.5 * float(np.abs(pa - pb).sum())
