"""Utility metrics between an original and an anonymized log.

Data utility is one minus the earth mover's distance between the two variant
distributions, with normalized edit distance between variants as the ground
cost.  One bit-parallel kernel computes the exact edit distance of every
variant pair at once, 64 DP cells per machine-word operation.  The
transportation problem is solved exactly on a priced support: HiGHS starts on
the cells 300 Sinkhorn steps at eps 0.01 price within 10 eps of their least,
the LP duals price every other cell, and cells that would lower the cost join
until the duals certify the plan on every cell: one optimal plan.

Result utility compares directly-follows graphs (activities) and handover
networks (resources) via fitness, precision and their harmonic mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .log import (
    EventLog,
    LogError,
    Perspective,
    TimestampAccuracy,
    directly_follows,
    variants,
)

__all__ = [
    "UtilityReport",
    "GraphComparison",
    "emd_data_utility",
    "dfg_compare",
    "handover_compare",
]

# largest cost-matrix (variants x variants) solved exactly; larger inputs
# should be sampled down by the caller
TRANSPORT_SIZE_CAP = 250_000
# cells (sequences x words x patterns) of one block of the edit-distance
# kernel: each of its temporary arrays stays near 256 KiB
CHUNK_CELLS = 1 << 15


def _edit_distance_matrix(va: Sequence[Sequence], vb: Sequence[Sequence]) -> np.ndarray:
    """Normalized edit distance between every sequence of ``va`` (rows) and of
    ``vb`` (columns), as a float64 matrix.

    The bit-vector DP of Myers (JACM 1999) in Hyyro's edit-distance form
    (2003) runs for every pair at once.  One side becomes patterns: bit ``k``
    of word ``w`` of ``peq[c, w, j]`` is set where pattern ``j`` holds symbol
    ``c`` at position ``64 w + k``, in as many 64-bit words as the longest
    pattern needs.  The other side's sequences, sorted longest first, step
    through their symbols; a step updates the vertical deltas ``vp``/``vn``
    of the running sequences against every pattern, carrying the addition
    and the two shifts from word to word, and the top row adds one per step
    (a global distance).  A distance is the sequence's length plus the
    deltas below the pattern's length.  Sequences go in blocks of about
    :data:`CHUNK_CELLS` cells, and of the two ways round the one with fewer
    word operations (symbols stepped x words x patterns) runs.  Integer
    distances divided by the longer length give the same floats as Python's
    ``int / int``.
    """
    codes: dict = {}
    a = [[codes.setdefault(e, len(codes)) for e in x] for x in va]
    b = [[codes.setdefault(e, len(codes)) for e in y] for y in vb]
    len_a = np.array([len(x) for x in a], dtype=np.int64)
    len_b = np.array([len(y) for y in b], dtype=np.int64)
    words_a, words_b = (max(1, -(-int(x.max(initial=0)) // 64)) for x in (len_a, len_b))
    swap = len_b.sum() * words_a * len(a) < len_a.sum() * words_b * len(b)
    if swap:
        a, b, len_a, len_b, words_b = b, a, len_b, len_a, words_a
    n, m, words = len(a), len(b), words_b
    pos = np.arange(int(len_b.sum())) - np.repeat(np.cumsum(len_b) - len_b, len_b)
    peq = np.zeros((len(codes), words, m), dtype=np.uint64)
    symbols = np.fromiter((c for y in b for c in y), np.int64, len(pos))
    np.bitwise_or.at(
        peq, (symbols, pos >> 6, np.repeat(np.arange(m), len_b)),
        np.uint64(1) << (pos & 63).astype(np.uint64),
    )
    inside = np.bitwise_or.reduce(peq, axis=0)  # the bits below each pattern's length
    order = np.argsort(-len_a, kind="stable")
    steps = np.zeros((n, int(len_a.max(initial=0))), dtype=np.int64)
    for r, i in enumerate(order):
        steps[r, : len_a[i]] = a[i]
    dist = np.empty((n, m), dtype=np.int64)
    size = max(1, CHUNK_CELLS // (words * max(m, 1)))
    for s in range(0, n, size):
        lens = len_a[order[s : s + size]]
        vp = np.full((len(lens), words, m), ~np.uint64(0))
        vn = np.zeros_like(vp)
        for k in range(int(lens[0])):
            r = int(np.count_nonzero(lens > k))  # the sequences still running
            pv, nv = vp[:r], vn[:r]
            eq = peq[steps[s : s + r, k]]
            xv = eq | nv
            xh = (eq & pv) + pv
            carry = xh < pv
            for w in range(1, words):
                xh[:, w] += carry[:, w - 1]
                carry[:, w] |= carry[:, w - 1] & (xh[:, w] == 0)
            xh = (xh ^ pv) | eq
            ph, mh = nv | ~(xh | pv), pv & xh
            ph_up, mh_up = ph << 1, mh << 1
            ph_up[:, 1:] |= ph[:, :-1] >> 63
            mh_up[:, 1:] |= mh[:, :-1] >> 63
            ph_up[:, 0] |= 1
            np.bitwise_or(mh_up, ~(xv | ph_up), out=pv)
            np.bitwise_and(ph_up, xv, out=nv)
        up = np.bitwise_count(vp & inside).sum(axis=1, dtype=np.int64)
        down = np.bitwise_count(vn & inside).sum(axis=1, dtype=np.int64)
        dist[order[s : s + size]] = lens[:, None] + up - down
    if swap:
        dist, len_a, len_b = dist.T, len_b, len_a
    longer = np.maximum.outer(len_a, len_b)
    out = np.zeros(dist.shape)
    np.divide(dist, longer, out=out, where=longer > 0)  # two empty sequences: 0
    return out


@dataclass(frozen=True)
class UtilityReport:
    du: float
    transport_cost: float
    # one optimal plan, certified by the duals on every cell but not always the
    # vertex a solve over every cell would pick: ((variant index orig,
    # variant index anon), mass, cost) for every mass above 1e-12, row-major
    plan: tuple
    original_variants: tuple
    anonymized_variants: tuple

    def summary(self) -> str:
        return (
            f"data utility {self.du:.6f} "
            f"(transport cost {self.transport_cost:.6f}, "
            f"{len(self.original_variants)}x{len(self.anonymized_variants)} variants)"
        )


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first solve: importing scipy
    takes longer than many runs that never solve a transport problem."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


# the transport LP is solved on a support of cells: those an entropic dual
# estimate prices within SCREEN_EPS * SINKHORN_EPS of its minimum first, then
# the PRICED_CELLS most negative reduced costs of every row and column per
# round, until none is below -PRICE_TOL
SINKHORN_STEPS = 300
SINKHORN_EPS = 0.01
SCREEN_EPS = 10
PRICED_CELLS = 3
PRICE_TOL = 1e-12
# HiGHS accepts reduced costs down to -1e-7 by default, which would certify a
# plan 1e-8 above the optimum; 1e-10 is its tightest setting.  Presolve costs
# more than it saves on LPs with a few cells per row and column.
HIGHS_OPTIONS = {"dual_feasibility_tolerance": 1e-10, "presolve": False}


def _smallest(values: np.ndarray, count: int) -> np.ndarray:
    """Mask of the ``count`` smallest entries of every row and every column."""
    mask = np.zeros(values.shape, dtype=bool)
    for axis in (0, 1):
        k = min(count, values.shape[axis])
        part = np.argpartition(values, k - 1, axis=axis)
        np.put_along_axis(mask, np.take(part, np.arange(k), axis=axis), True, axis=axis)
    return mask


def _north_west(wa: np.ndarray, wb: np.ndarray) -> Tuple[list, list]:
    """Cells of the north-west-corner plan of ``(wa, wb)``: a staircase from
    the first cell to the last, so a plan on it meets every row and column
    sum.  Float sums that run out early finish along the last row or column."""
    n, m = len(wa), len(wb)
    i = j = 0
    left_a, left_b = wa[0], wb[0]
    rows, cols = [0], [0]
    while (i, j) != (n - 1, m - 1):
        if j == m - 1 or (i < n - 1 and left_a <= left_b):
            left_b -= left_a
            i += 1
            left_a = wa[i]
        else:
            left_a -= left_b
            j += 1
            left_b = wb[j]
        rows.append(i)
        cols.append(j)
    return rows, cols


def _optimal_flow(wa: np.ndarray, wb: np.ndarray, cost: np.ndarray, support=None) -> np.ndarray:
    """An optimal transport plan from ``wa`` (rows) to ``wb`` (columns) as an
    ``n x m`` flow matrix.

    HiGHS solves the LP on a support of cells only: ``support``, a mask
    holding a feasible plan, or else a start screened by an entropic dual
    estimate.  :data:`SINKHORN_STEPS` scaling steps on ``K = exp(-cost /
    eps)``, ``eps`` = :data:`SINKHORN_EPS` (Cuturi, "Sinkhorn Distances",
    2013), give duals ``u = eps log a``, ``v = eps log b``; the start holds
    the cells whose ``cost - u - v`` lies within ``SCREEN_EPS * eps`` of the
    least, each row's and column's least, and the north-west-corner cells
    (which make it feasible).  Costs are normalized edit distances in [0, 1],
    so no kernel entry is below ``e^-100``.  The LP's duals price every cell
    the same way; while a cell outside the support prices below
    ``-PRICE_TOL``, the most negative cells of every row and column join the
    support and the LP is solved again.  The support only grows, so the loop
    ends, and its last round certifies the plan optimal over all cells
    (Schmitzer, "A Sparse Multiscale Algorithm for Dense Optimal Transport",
    2016).  The plan is one optimal plan, not necessarily the vertex a solve
    over every cell would pick.
    """
    from scipy.sparse import csr_matrix  # deferred like scipy.optimize, see linprog

    n, m = cost.shape
    if support is None:
        kernel = np.exp(-cost / SINKHORN_EPS)
        b = np.ones(m)
        for _ in range(SINKHORN_STEPS):
            a = wa / (kernel @ b)
            b = wb / (a @ kernel)
        screen = cost - SINKHORN_EPS * (np.log(a)[:, None] + np.log(b))
        support = (screen <= screen.min() + SCREEN_EPS * SINKHORN_EPS) | _smallest(screen, 1)
        support[_north_west(wa, wb)] = True
    b_eq = np.concatenate([wa, wb])
    while True:
        i, j = np.nonzero(support)
        k = np.arange(len(i))
        # row sums = wa, column sums = wb; support cell k is variable k
        a_eq = csr_matrix(
            (np.ones(2 * len(i)), (np.concatenate([i, n + j]), np.concatenate([k, k]))),
            shape=(n + m, len(i)),
        )
        res = linprog(
            cost[i, j], A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
            options=HIGHS_OPTIONS,
        )
        if not res.success:
            raise LogError(f"transportation solve failed: {res.message}")
        duals = res.eqlin.marginals
        reduced = cost - duals[:n, None] - duals[None, n:]
        reduced[support] = np.inf
        entering = _smallest(reduced, PRICED_CELLS) & (reduced < -PRICE_TOL)
        if not entering.any():
            break
        support = support | entering
    flow = np.zeros((n, m))
    flow[i, j] = res.x
    return flow


def emd_data_utility(
    original: EventLog,
    anonymized: EventLog,
    ps: Perspective,
    accuracy: TimestampAccuracy = TimestampAccuracy.SECONDS,
) -> UtilityReport:
    """Data utility: 1 - minimal transport cost between variant distributions."""
    if not len(original) or not len(anonymized):
        raise LogError("data utility needs two non-empty logs")
    mult_a, _ = variants(original, ps, accuracy)
    mult_b, _ = variants(anonymized, ps, accuracy)
    va = sorted(mult_a, key=lambda v: tuple(e.sort_key() for e in v))
    vb = sorted(mult_b, key=lambda v: tuple(e.sort_key() for e in v))
    wa = np.array([mult_a[v] for v in va], dtype=float)
    wb = np.array([mult_b[v] for v in vb], dtype=float)
    wa /= wa.sum()
    wb /= wb.sum()

    if va == vb and np.array_equal(wa, wb):
        # moving nothing is optimal: the ground cost vanishes on the diagonal
        plan = tuple(((i, i), float(wa[i]), 0.0) for i in range(len(va)))
        return UtilityReport(1.0, 0.0, plan, tuple(va), tuple(vb))

    n, m = len(va), len(vb)
    if n * m > TRANSPORT_SIZE_CAP:
        raise LogError(
            f"variant cost matrix {n}x{m} exceeds the exact-transport cap "
            f"({TRANSPORT_SIZE_CAP}); sample the logs before comparing"
        )
    cost = _edit_distance_matrix(va, vb)
    flow = _optimal_flow(wa, wb, cost)
    total = float(np.sum(flow * cost))
    i, j = np.nonzero(flow > 1e-12)  # row-major, like a loop over (i, j)
    plan = tuple(zip(zip(i.tolist(), j.tolist()), flow[i, j].tolist(), cost[i, j].tolist()))
    du = 1.0 - total
    return UtilityReport(du, total, plan, tuple(va), tuple(vb))


@dataclass(frozen=True)
class GraphComparison:
    fitness: float
    precision: float
    f1: float
    missing_edges: tuple  # in original only
    extra_edges: tuple  # in anonymized only

    def summary(self) -> str:
        return (
            f"fitness {self.fitness:.6f}  precision {self.precision:.6f}  "
            f"f1 {self.f1:.6f}"
        )


def _graph_compare(
    df_orig: Dict[Tuple, int], df_anon: Dict[Tuple, int], vertices: set
) -> GraphComparison:
    if not df_orig:
        raise LogError("the original log has no directly-follows edges; fitness is undefined")
    edges_o = set(df_orig)
    edges_a = {e for e in df_anon if e[0] in vertices and e[1] in vertices}
    shared = edges_o & edges_a
    fitness = sum(df_anon[e] for e in shared) / sum(df_orig.values())
    cells = len(vertices) ** 2  # both edge sets lie in V x V: count its complements
    outside = cells - len(edges_o)
    precision = (cells - len(edges_o | edges_a)) / outside if outside else 1.0
    if fitness == 0 or precision == 0:
        f1 = 0.0
    else:
        f1 = 2 * fitness * precision / (fitness + precision)
    return GraphComparison(
        fitness=fitness,
        precision=precision,
        f1=f1,
        missing_edges=tuple(sorted(edges_o - edges_a)),
        extra_edges=tuple(sorted(edges_a - edges_o)),
    )


def dfg_compare(original: EventLog, anonymized: EventLog) -> GraphComparison:
    """Compare the directly-follows graphs of two logs (activity perspective).

    Fitness weighs shared edges by their counts in the anonymized log against
    the original totals; precision compares edge complements over the
    original log's activity universe.
    """
    df_o = directly_follows(original, Perspective.A)
    df_a = directly_follows(anonymized, Perspective.A)
    return _graph_compare(df_o, df_a, original.activities())


def handover_compare(original: EventLog, anonymized: EventLog) -> GraphComparison:
    """Compare handover-of-work networks (resource perspective)."""
    if not original.has_resources() or not anonymized.has_resources():
        raise LogError("handover networks need resources on every event")
    df_o = directly_follows(original, Perspective.R)
    df_a = directly_follows(anonymized, Perspective.R)
    return _graph_compare(df_o, df_a, original.resources())
