"""Exact optimum of the GA's objective for uniform-size instances.

When every transaction has the same size, a block's cost depends only on
its transaction count, so the optimum is a dynamic program over per-block
counts: at most ``nb`` non-empty blocks, each with a count in [1, ub] and
``count * size <= cb``, summing to n. Cost O(nb * ub * n). Blocks are
priced only through the predictor's public ``predict_f_batch`` and
``predict_g_batch``, taking the slowest node as the GA's objective does.
"""

from __future__ import annotations

import numpy as np


def count_costs(predictor, size: float, bandwidths, ub: int, cb: int) -> np.ndarray:
    """cost[c] of one block of c transactions for c in [0, ub]; 0 for an
    empty block, inf where c transactions exceed the byte cap."""
    bandwidths = np.asarray(bandwidths, dtype=np.float64)
    m = bandwidths.size
    counts = np.arange(1, ub + 1, dtype=np.float64)
    counts = counts[counts * size <= cb]
    rows = np.empty((counts.size * m, 3), dtype=np.float64)
    rows[:, 0] = np.repeat(counts, m)
    rows[:, 1] = np.repeat(counts * size, m)
    rows[:, 2] = np.tile(bandwidths, counts.size)
    per_node = (np.asarray(predictor.predict_f_batch(rows), dtype=np.float64)
                + np.asarray(predictor.predict_g_batch(rows), dtype=np.float64))
    cost = np.full(ub + 1, np.inf)
    cost[0] = 0.0
    cost[counts.astype(np.int64)] = per_node.reshape(counts.size, m).max(axis=1)
    return cost


def count_dp_optimum(predictor, n: int, size: float, bandwidths, nb: int,
                     ub: int, cb: int) -> float:
    """Minimum total processing time over all feasible assignments of n
    transactions of ``size`` bytes to ``nb`` blocks."""
    cost = count_costs(predictor, size, bandwidths, ub, cb)
    usable = [(c, cost[c]) for c in range(1, ub + 1) if np.isfinite(cost[c])]
    best = np.full(n + 1, np.inf)  # best[t]: t transactions in the blocks so far
    best[0] = 0.0
    for _ in range(nb):
        nxt = best.copy()  # an empty block costs nothing
        for c, cc in usable:
            if c > n:
                break
            np.minimum(nxt[c:], best[:n + 1 - c] + cc, out=nxt[c:])
        best = nxt
    return float(best[n])


def instance_optimum(instance, predictor) -> float:
    """count_dp_optimum for a uniform-size ``blocktune`` ProblemInstance."""
    sizes = instance.sizes
    if sizes.min() != sizes.max():
        raise ValueError("the count DP needs uniform transaction sizes")
    return count_dp_optimum(predictor, instance.n, float(sizes[0]),
                            instance.bandwidths, instance.nb,
                            instance.limits.ub, instance.limits.cb)


# (n, size_bytes, lb, ub, cb): small enough that nb ** n stays in the
# thousands, with the count cap, the byte cap and neither binding.
SELF_TEST_CASES = (
    (5, 1024, 2, 3, 1 << 22),
    (6, 2048, 2, 4, 3 * 2048),
    (7, 1024, 4, 7, 1 << 22),
    (8, 512, 4, 8, 5 * 512),
)


def self_test(predictor, bandwidths) -> list:
    """Compare the DP with ``ga.brute_force_optimum`` on small uniform
    instances priced by ``predictor``; returns a list of mismatch messages."""
    from blocktune import ga
    from blocktune.model import BlockLimits, NodeProfile, ProblemInstance, Transaction

    problems = []
    nodes = tuple(NodeProfile(i, float(bw)) for i, bw in enumerate(bandwidths))
    for n, size, lb, ub, cb in SELF_TEST_CASES:
        instance = ProblemInstance(
            transactions=tuple(Transaction(i, size) for i in range(n)),
            nodes=nodes, limits=BlockLimits(lb, ub, cb))
        _, brute = ga.brute_force_optimum(instance, predictor)
        dp = instance_optimum(instance, predictor)
        if not abs(dp - brute) <= 1e-9 * abs(brute):
            problems.append(f"count DP {dp!r} != brute force {brute!r} "
                            f"at n={n} size={size} lb={lb} ub={ub} cb={cb}")
    return problems
