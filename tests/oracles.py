"""Brute-force reference implementations, kept independent of the package
internals: containment is re-derived from scratch, candidates are enumerated
exhaustively, the greedy rounds rank descriptors one by one, the transport
problem is searched on a grid, edit distances are filled cell by cell, XES
goes through a whole ElementTree, CSV is read row by row, and Baseline2
holds per-case lists of surviving events.
"""

import csv
import io
import itertools
import math
import random
import re
import xml.etree.ElementTree as ET
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from tlkcpriv import (
    BkType,
    Candidate,
    Event,
    EventLog,
    Perspective,
    ProcessInstance,
    ProjectedEvent,
    TimestampAccuracy,
    variants,
)
from tlkcpriv.io import (
    ISO_FORMAT,
    CsvColumnMap,
    LogFileError,
    _bad_value,
    _coerce_value,
    _format_timestamp,
    _parse_timestamp,
)
from tlkcpriv.log import LogError, _Columns, _Memo

HOUR = 3600


# --- independent projection + containment -----------------------------------


def project_raw(inst, ps: Perspective, unit: int):
    out = []
    for ev in inst.trace:
        out.append(
            ProjectedEvent(
                ev.activity if "A" in ps.value else None,
                ev.resource if ps.has_resource else None,
                ev.timestamp // unit if ps.has_time else None,
            )
        )
    return tuple(out)


def per_event_truncate(log: EventLog, unit: int) -> EventLog:
    """Every timestamp floored to ``unit`` seconds, one new event per event."""
    return EventLog(
        tuple(
            ProcessInstance(
                inst.case_id,
                tuple(
                    Event(ev.activity, ev.resource, ev.timestamp - ev.timestamp % unit)
                    for ev in inst.trace
                ),
                inst.sensitive,
            )
            for inst in log
        ),
        log.sensitive_attrs,
    )


def contains(kind: BkType, elements, trace):
    if kind is BkType.SET:
        pool = set(trace)
        return all(e in pool for e in set(elements))
    if kind is BkType.MULT:
        pool = Counter(trace)
        need = Counter(elements)
        return all(pool[e] >= n for e, n in need.items())
    # sequence / timed sequence: subsequence via explicit position search
    pos = -1
    for e in elements:
        found = None
        for i in range(pos + 1, len(trace)):
            if trace[i] == e:
                found = i
                break
        if found is None:
            return False
        pos = found
    return True


def brute_match(log: EventLog, bk_type, bk_attr, elements, ps, unit):
    return frozenset(
        i
        for i, inst in enumerate(log)
        if contains(bk_type, elements, project_raw(inst, ps, unit))
    )


def probes(plog, rng, draws):
    """Candidates for ``plog`` (a ``ProjectedLog``) that need not be realized:
    an absent descriptor, repeats of one descriptor, its timed twin an hour
    later, and ``draws`` random draws of one to three descriptors."""
    present, ps = plog.alphabet, plog.spec.perspective
    absent = ProjectedEvent(
        "zz" if "A" in ps.value else None,
        "zz" if ps.has_resource else None,
        999 if ps.has_time else None,
    )
    e = rng.choice(present)
    twin = ProjectedEvent(e.activity, e.resource, e.time + 1) if ps.has_time else e
    out = [(absent,), (e, absent), (absent, e), (e, e), (e, e, e), (e, twin), (twin, e)]
    out += [tuple(rng.choices(present, k=rng.randint(1, 3))) for _ in range(draws)]
    return [
        Candidate(plog.spec.bk_type, p)
        for p in out
        if plog.spec.bk_type is not BkType.SET or len(set(p)) == len(p)
    ]


# --- exhaustive candidate enumeration ----------------------------------------


def all_candidates(log: EventLog, bk_type: BkType, ps: Perspective, unit: int, max_size: int):
    """Every realized candidate payload of size <= max_size, deduplicated."""
    seen = set()
    for inst in log:
        trace = project_raw(inst, ps, unit)
        n = len(trace)
        for size in range(1, min(max_size, n) + 1):
            for positions in itertools.combinations(range(n), size):
                elems = tuple(trace[i] for i in positions)
                if bk_type is BkType.SET:
                    key = tuple(sorted(set(elems), key=lambda e: e.sort_key()))
                    if len(key) != len(elems):
                        continue
                elif bk_type is BkType.MULT:
                    key = tuple(sorted(elems, key=lambda e: e.sort_key()))
                else:
                    key = elems
                seen.add(key)
    return seen


def brute_mvt(log: EventLog, bk_type, bk_attr, ps, unit, L, K, C, sensitive, focal):
    """All minimal violating candidates by exhaustive search."""

    def verdict_ok(elements):
        matched = brute_match(log, bk_type, bk_attr, elements, ps, unit)
        assert matched, "oracle only checks realized candidates"
        if len(matched) < K:
            return False
        for attr in sensitive:
            hits = sum(
                1 for i in matched if log.instances[i].sensitive.get(attr) == focal[attr]
            )
            if hits / len(matched) > C:
                return False
        return True

    def proper_subs(elements):
        out = set()
        for size in range(1, len(elements)):
            for positions in itertools.combinations(range(len(elements)), size):
                sub = tuple(elements[i] for i in positions)
                if bk_type in (BkType.SET, BkType.MULT):
                    sub = tuple(sorted(sub, key=lambda e: e.sort_key()))
                out.add(sub)
        return out

    result = set()
    for elements in all_candidates(log, bk_type, ps, unit, L):
        if verdict_ok(elements):
            continue
        if all(verdict_ok(sub) for sub in proper_subs(elements)):
            result.add(Candidate(bk_type, elements))
    return result


def brute_verdict(log: EventLog, bk_type, bk_attr, elements, ps, unit, K, C, sensitive, focal):
    """``(match_size, k_violation, c_violations, max_confidence)`` of one
    realized candidate, counted case by case."""
    matched = brute_match(log, bk_type, bk_attr, elements, ps, unit)
    n = len(matched)
    violated, top = [], 0.0
    for attr in dict.fromkeys(sensitive):
        hits = sum(1 for i in matched if log.instances[i].sensitive.get(attr) == focal.get(attr))
        top = max(top, hits / n)
        if hits / n > C:
            violated.append(attr)
    return n, n < K, tuple(violated), top


def proper_sub_candidates(cand: Candidate):
    """Every non-empty proper sub-candidate of ``cand``, any size, each once."""
    seen = set()
    for size in range(1, len(cand.elements)):
        for positions in itertools.combinations(range(len(cand.elements)), size):
            sub = Candidate(cand.bk_type, tuple(cand.elements[i] for i in positions))
            if sub not in seen:
                seen.add(sub)
                yield sub


def brute_mft(log: EventLog, ps: Perspective, unit: int, theta: float):
    """Maximal frequent subtraces by exhaustive search: {pattern: support}."""
    traces = [project_raw(inst, ps, unit) for inst in log]
    threshold = max(1, math.ceil(theta * len(traces)))
    patterns = {
        tuple(t[i] for i in positions)
        for t in traces
        for size in range(1, len(t) + 1)
        for positions in itertools.combinations(range(len(t)), size)
    }
    support = {p: sum(contains(BkType.SEQ, p, t) for t in traces) for p in patterns}
    frequent = [p for p, n in support.items() if n >= threshold]
    return {
        p: support[p]
        for p in frequent
        if not any(len(q) > len(p) and contains(BkType.SEQ, p, q) for q in frequent)
    }


def brute_coverage(log: EventLog, ps: Perspective, unit: int):
    """Per descriptor, the fraction of cases whose projection holds it."""
    traces = [set(project_raw(inst, ps, unit)) for inst in log]
    present = set().union(*traces)
    return {e: sum(e in t for t in traces) / len(traces) for e in present}


def brute_suppress(log: EventLog, descriptors, ps: Perspective, unit: int):
    """Every case without the events projecting onto ``descriptors``, emptied
    cases dropped: (kept instances, dropped ids)."""
    kept, dropped = [], []
    for inst in log:
        descs = project_raw(inst, ps, unit)
        trace = tuple(ev for ev, d in zip(inst.trace, descs) if d not in descriptors)
        if trace:
            kept.append(ProcessInstance(inst.case_id, trace, inst.sensitive))
        else:
            dropped.append(inst.case_id)
    return tuple(kept), tuple(dropped)


# --- descriptor-level greedy rounds ---------------------------------------------


class _Tally:
    """Per descriptor, how many still-alive item sets contain it."""

    def __init__(self, item_sets):
        self.sets = [set(items) for items in item_sets]
        self.alive = set(range(len(self.sets)))
        self.count: Counter = Counter()
        self.holders: dict = {}
        for i, elems in enumerate(self.sets):
            for e in elems:
                self.count[e] += 1
                self.holders.setdefault(e, []).append(i)

    def delete_containing(self, e: ProjectedEvent) -> None:
        for i in self.holders.get(e, ()):
            if i in self.alive:
                self.alive.remove(i)
                for x in self.sets[i]:
                    self.count[x] -= 1


class GreedyIndex:
    """The surviving minimal violations and frequent subtraces of a round,
    each given as its descriptors and counted per descriptor, with the
    paper's two greedy scores over those counts."""

    def __init__(self, violations, patterns=()):
        self.mvts = _Tally(violations)
        self.mfts = _Tally(patterns)

    def __len__(self):
        return len(self.mvts.alive)

    def privacy_gain(self, e: ProjectedEvent) -> int:
        return self.mvts.count[e]

    def utility_loss(self, e: ProjectedEvent) -> int:
        return self.mfts.count[e]

    def score(self, e: ProjectedEvent) -> float:
        """The ``tlkc`` score: privacy gain over utility loss plus one."""
        return self.privacy_gain(e) / (self.utility_loss(e) + 1)

    def n_score(self, e: ProjectedEvent, cov: dict, alpha: float, beta: float) -> float:
        """The ``tlkc-ext`` score: ``alpha`` times the privacy gain relative to
        the surviving violations plus ``beta`` times one minus the share of
        cases that hold ``e`` (``cov``, the map of ``coverage``)."""
        return alpha * (self.privacy_gain(e) / len(self)) + beta * (1.0 - cov.get(e, 0.0))

    def events(self):
        return [e for e, n in self.mvts.count.items() if n > 0]

    def delete_containing(self, winner: ProjectedEvent) -> None:
        self.mvts.delete_containing(winner)
        self.mfts.delete_containing(winner)


def _seeded_order(seed):
    if seed is None:
        return ProjectedEvent.sort_key
    return lambda e: (zlib.crc32(f"{seed}:{e}".encode()), e.sort_key())


def descriptor_greedy(log: EventLog, anonymizer):
    """The greedy rounds of a ``TlkcAnonymizer`` or ``TlkcExtAnonymizer``
    run on descriptors, each rank by :class:`GreedyIndex`'s scores and each
    suppression by :func:`brute_suppress`: ``(iterations as
    (winner, score, remaining violations), dropped ids, output log)``, or
    the ``ParameterError`` text when the log empties."""
    from tlkcpriv import PrivacyParams, coverage, enumerate_mft, enumerate_mvt

    a = anonymizer
    params = PrivacyParams(a.accuracy, a.L, a.K, a.C, a.bk, a.sensitive)
    ps, unit = params.perspective, params.accuracy.unit_seconds
    order = _seeded_order(a.tie_break)
    current, iterations, dropped = log, [], []
    while True:
        mvt = enumerate_mvt(current, params)
        if len(mvt) == 0:
            break
        if hasattr(a, "theta"):
            mft = enumerate_mft(current, ps, a.theta, params.accuracy)
            rank = lambda e, index: index.score(e)  # noqa: E731
        else:
            mft, cov = (), coverage(current, ps, params.accuracy)
            rank = lambda e, index: index.n_score(e, cov, a.alpha, a.beta)  # noqa: E731
        index = GreedyIndex((c.elements for c in mvt.candidates), (p for p, _ in mft))
        winners = []
        while len(index):
            events = index.events()
            ranks = {e: (rank(e, index), index.privacy_gain(e)) for e in events}
            best = max(ranks.values())
            winner = min((e for e in events if ranks[e] == best), key=order)
            winners.append(winner)
            index.delete_containing(winner)
            iterations.append((winner, best[0], len(index)))
        kept, gone = brute_suppress(current, set(winners), ps, unit)
        current = EventLog(kept, current.sensitive_attrs)
        dropped.extend(gone)
        if not kept:
            return "suppression emptied the whole log"
        if not gone:
            break
    return iterations, tuple(dropped), current


# --- Baseline2 on per-case pair lists -----------------------------------------


def baseline2(log: EventLog, k: int, ps, accuracy):
    """The reference ``Baseline2``: every case holds its surviving (event
    index, descriptor code) pairs, rebuilt on each pass and turned into a
    keep mask at the end.  Returns ``(output log, dropped ids, events
    removed)``."""
    from tlkcpriv.anonymize import _earliest_embedding, _longest_common_subsequence

    def merge_step(state, live, classes, violating) -> bool:
        # absorb: violating class onto an existing proper-subtrace class
        for rep in sorted(violating):
            options = [
                u
                for u in classes
                if len(u) < len(rep)
                and _earliest_embedding(u, rep) is not None
                and len(classes[u]) + len(classes[rep]) >= k
            ]
            if options:
                best_len = max(len(u) for u in options)
                options = [u for u in options if len(u) == best_len]
                target = min(options, key=lambda u: (_earliest_embedding(u, rep), u))
                map_class(state, live, classes[rep], target)
                return True
        # coalesce: two violating classes onto their longest common subtrace
        best = None
        for u, v in itertools.combinations(sorted(violating), 2):
            common = _longest_common_subsequence(u, v)
            if common and len(classes[u]) + len(classes[v]) >= k:
                key = (-len(common), common, u, v)
                if best is None or key < best[0]:
                    best = (key, u, v, common)
        if best is not None:
            _, u, v, common = best
            map_class(state, live, classes[u] + classes[v], common)
            return True
        return False

    def map_class(state, live, case_ids, target: tuple):
        for cid in case_ids:
            pairs = live[cid]
            descs = tuple(d for _, d in pairs)
            kept_positions = _earliest_embedding(target, descs)
            state[cid] = [pairs[p] for p in kept_positions]

    # per case: surviving (event index, descriptor code) pairs; codes
    # sort in canonical descriptor order, so they break every tie
    ps, accuracy = Perspective.parse(ps), TimestampAccuracy.parse(accuracy)
    traces, _ = log.coded(ps, accuracy)
    state = {cid: list(enumerate(codes)) for cid, codes in zip(log.case_ids, traces)}
    structural = False

    while True:
        live = {cid: pairs for cid, pairs in state.items() if pairs}
        classes: dict = {}
        for cid, pairs in live.items():
            classes.setdefault(tuple(d for _, d in pairs), []).append(cid)
        violating = {rep: cids for rep, cids in classes.items() if len(cids) < k}
        if not violating:
            break

        if not structural:
            gfreq: Counter = Counter(d for pairs in live.values() for _, d in pairs)
            eligible = sorted({d for rep in violating for d in rep})
            if len({gfreq[d] for d in eligible}) > 1:
                target = min(eligible, key=lambda d: (gfreq[d], d))
                for cid in state:
                    state[cid] = [(i, d) for i, d in state[cid] if d != target]
                continue
            structural = True

        if not merge_step(state, live, classes, violating):
            # no structural move left: drop the canonically first
            # violating class, mirroring full removal of hopeless variants
            rep = min(violating)
            for cid in violating[rep]:
                state[cid] = []

    keep = np.zeros(log.total_events, bool)
    keep[[start + i for start, cid in zip(log.bounds.tolist(), log.case_ids)
          for i, _ in state[cid]]] = True
    out, dropped = log._keep(keep)
    return out, dropped, int(len(keep) - keep.sum())


def brute_focal(log: EventLog, attrs):
    out = {}
    for attr in attrs:
        counts = Counter(inst.sensitive.get(attr) for inst in log)
        best = max(counts.values())
        for inst in log:
            if counts[inst.sensitive.get(attr)] == best:
                out[attr] = inst.sensitive.get(attr)
                break
    return out


# --- directly-follows by position scan ---------------------------------------


def brute_directly_follows(log: EventLog, ps: Perspective):
    counts = Counter()
    for inst in log:
        labels = [
            ev.activity if ps is Perspective.A else ev.resource for ev in inst.trace
        ]
        for i in range(len(labels) - 1):
            counts[(labels[i], labels[i + 1])] += 1
    return dict(counts)


def set_graph_precision(df_orig, df_anon, vertices):
    """Graph precision over the built ``V x V`` universe: the share of the
    original graph's non-edges that the anonymized graph, cut to ``V``,
    leaves non-edges (1.0 when the original has none)."""
    universe = {(x, y) for x in vertices for y in vertices}
    comp_o = universe - set(df_orig)
    comp_a = universe - {e for e in df_anon if e[0] in vertices and e[1] in vertices}
    return len(comp_o & comp_a) / len(comp_o) if comp_o else 1.0


# --- edit distance and EMD report cell by cell --------------------------------


def scalar_levenshtein(s1, s2):
    """The reference edit distance: the textbook DP, cell by cell, divided by
    the longer length."""
    n, m = len(s1), len(s2)
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return 1.0
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        a = s1[i - 1]
        for j in range(1, m + 1):
            cost = 0 if a == s2[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[m] / max(n, m)


def scalar_cost_matrix(va, vb):
    """The reference ground-cost matrix, one ``scalar_levenshtein`` per cell."""
    return [[scalar_levenshtein(x, y) for y in vb] for x in va]


def scalar_emd_report(original, anonymized, ps, accuracy):
    """``emd_data_utility`` built cell by cell: the scalar cost matrix, the
    transport constraints appended in loops and the plan read in a double
    loop; returns ``(du, transport_cost, plan)``."""
    mult_a, _ = variants(original, ps, accuracy)
    mult_b, _ = variants(anonymized, ps, accuracy)
    va = sorted(mult_a, key=lambda v: tuple(e.sort_key() for e in v))
    vb = sorted(mult_b, key=lambda v: tuple(e.sort_key() for e in v))
    wa = np.array([mult_a[v] for v in va], dtype=float)
    wb = np.array([mult_b[v] for v in vb], dtype=float)
    wa /= wa.sum()
    wb /= wb.sum()
    n, m = len(va), len(vb)
    cost = np.array(scalar_cost_matrix(va, vb))
    flow = scalar_transport_flow(wa, wb, cost)
    total = float(np.sum(flow * cost))
    plan = tuple(
        ((i, j), float(flow[i, j]), float(cost[i, j]))
        for i in range(n)
        for j in range(m)
        if flow[i, j] > 1e-12
    )
    return 1.0 - total, total, plan


def scalar_transport_flow(wa, wb, cost):
    """An optimal plan from one HiGHS solve over every cell, the constraints
    appended in loops.  The dual tolerance is the package's: HiGHS's
    default, 1e-7, accepts a plan that much above the optimum."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    from tlkcpriv.metrics import HIGHS_OPTIONS

    n, m = cost.shape
    rows, cols = [], []
    for i in range(n):
        for j in range(m):
            rows.append(i)
            cols.append(i * m + j)
    for j in range(m):
        for i in range(n):
            rows.append(n + j)
            cols.append(i * m + j)
    a_eq = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + m, n * m))
    res = linprog(
        cost.ravel(),
        A_eq=a_eq,
        b_eq=np.concatenate([wa, wb]),
        bounds=(0, None),
        method="highs",
        options={"dual_feasibility_tolerance": HIGHS_OPTIONS["dual_feasibility_tolerance"]},
    )
    return res.x.reshape(n, m)


def full_lp_transport_cost(weights_a, weights_b, cost):
    """Minimal transport cost from one HiGHS solve over every cell, with the
    row and column constraints written out as dense rows.  HiGHS's default
    dual tolerance, 1e-7, would accept a plan that much above the optimum on
    costs that close; 1e-10 is its tightest."""
    from scipy.optimize import linprog

    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    a_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m : (i + 1) * m] = 1
        a_eq.append(row)
    for j in range(m):
        col = np.zeros(n * m)
        col[j::m] = 1
        a_eq.append(col)
    res = linprog(
        cost.ravel(),
        A_eq=np.array(a_eq),
        b_eq=np.concatenate([weights_a, weights_b]),
        bounds=(0, None),
        method="highs",
        options={"dual_feasibility_tolerance": 1e-10},
    )
    assert res.success
    return float(np.sum(res.x * cost.ravel()))


# --- transport cost by grid search --------------------------------------------


def brute_transport_cost(weights_a, weights_b, cost, steps=60):
    """Minimal transport cost for tiny instances by enumerating integer plans.

    Masses are discretized to ``steps`` units; exact for weights that are
    multiples of 1/steps (use a common denominator of the variant counts).
    """
    n, m = len(weights_a), len(weights_b)
    ia = [round(w * steps) for w in weights_a]
    ib = [round(w * steps) for w in weights_b]
    assert sum(ia) == steps and sum(ib) == steps

    best = [float("inf")]

    def rec(i, remaining_rows, remaining_cols, acc):
        if acc >= best[0]:
            return
        if i == n:
            if all(c == 0 for c in remaining_cols):
                best[0] = acc
            return
        row = remaining_rows[i]

        def fill(j, left, cols, add):
            if acc + add >= best[0]:
                return
            if j == m - 1:
                if cols[j] >= left:
                    cols2 = list(cols)
                    cols2[j] -= left
                    rec(i + 1, remaining_rows, cols2, acc + add + left * cost[i][j])
                return
            for take in range(min(left, cols[j]) + 1):
                cols2 = list(cols)
                cols2[j] -= take
                fill(j + 1, left - take, cols2, add + take * cost[i][j])

        fill(0, row, remaining_cols, 0.0)

    rec(0, ia, list(ib), 0.0)
    return best[0] / steps


# --- CSV row by row -------------------------------------------------------------


def row_read_csv(path, colmap=CsvColumnMap()):
    """The reference CSV reader: csv.reader's rows one at a time, each checked
    in turn (cell count, case id, activity, timestamp, sensitive values
    against the case's first row) and appended to its case's lists, then the
    cases handed to the column builder one by one.  An error names the line
    its record starts on, a csv.reader error included; a file that is not
    UTF-8 fails before any row is read."""
    path = Path(path)
    parse_stamp = _Memo(lambda text: _parse_timestamp(text, colmap.timestamp_format)).__getitem__
    coerce = _Memo(_coerce_value).__getitem__
    label = _Memo(str).__getitem__
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise LogFileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise LogFileError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None
    with io.StringIO(text, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
        except csv.Error as exc:
            raise LogError(f"{path}: row 1: {exc}") from None
        attrs = colmap.sensitive_cols
        needed = [colmap.case_col, colmap.activity_col, colmap.timestamp_col, *attrs]
        if colmap.resource_col:
            needed.append(colmap.resource_col)
        missing = [c for c in needed if c not in header]
        if missing:
            raise LogError(f"{path}: missing columns {missing}; header is {header}")
        column = {name: i for i, name in enumerate(header)}
        case_at, activity_at, stamp_at = (column[c] for c in needed[:3])
        attrs_at = [column[a] for a in attrs]
        resource_at = column[colmap.resource_col] if colmap.resource_col else None
        cases = {}
        next_line = reader.line_num + 1
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise LogError(f"{path}: row {next_line}: {exc}") from None
            lineno, next_line = next_line, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(header):
                raise LogError(
                    f"{path}: row {lineno} has {len(row)} cells; the header has {len(header)}"
                )
            cid, activity = row[case_at], label(row[activity_at])
            if not cid:
                raise LogError(f"{path}: row {lineno} has an empty case id")
            if not activity:
                raise LogError(f"{path}: row {lineno} has an empty activity")
            try:
                ts = parse_stamp(row[stamp_at])
            except LogError as exc:
                raise LogError(f"{path}: row {lineno}: {exc}") from None
            resource = (label(row[resource_at]) or None) if resource_at is not None else None
            values = tuple((type(v), v) for v in (coerce(row[i]) for i in attrs_at))
            case = cases.get(cid) or cases.setdefault(cid, ([], [], [], values))
            activities, resources, seconds, first = case
            if values != first:
                attr, old, new = next(d for d in zip(attrs, first, values) if d[1] != d[2])
                raise LogError(
                    f"{path}: row {lineno}: case {cid!r} has conflicting values "
                    f"{sorted([str(old[1]), str(new[1])])} for sensitive attribute {attr!r}"
                )
            activities.append(activity)
            resources.append(resource)
            seconds.append(ts)
    columns = _Columns()
    for cid, (*fields, values) in cases.items():
        columns.add(cid, *fields, {attr: v for attr, (_, v) in zip(attrs, values)})
    return columns.log(attrs)


# --- XES through an element tree ------------------------------------------------


def tree_read_xes(path, sensitive_attrs=()):
    """The reference XES reader: parse the whole tree, then walk it.

    Returns the log and the number of dropped attributes.
    """
    path = Path(path)
    try:
        tree = ET.parse(path)
    except (OSError, ET.ParseError) as exc:
        raise LogError(f"cannot read {path}: {exc}") from None
    root = tree.getroot()
    sensitive_attrs = tuple(sensitive_attrs)
    instances = []
    dropped_attrs = 0
    kept_keys = {"concept:name", "org:resource", "time:timestamp", *sensitive_attrs}

    def local(tag):
        return tag.rsplit("}", 1)[-1]

    def attr_map(element, case_id=None, skip_children=()):
        """The kept attributes; a failed cast raises once all are read, naming
        ``case_id`` or, for the trace itself, its own concept:name."""
        nonlocal dropped_attrs
        out, error = {}, None
        for child in element:
            tag = local(child.tag)
            if tag in skip_children:
                continue
            key = child.get("key")
            if key is None:
                continue
            if key not in kept_keys:
                dropped_attrs += 1
                continue
            value = child.get("value")
            try:
                if tag in ("int", "float") and value is not None and (
                    "_" in value or not value.isascii()
                ):
                    raise ValueError(value)  # a numeral that only Python reads
                if tag == "int":
                    out[key] = int(value)
                elif tag == "float":
                    number = float(value)
                    out[key] = number if math.isfinite(number) else str(number)
                elif tag == "boolean":
                    out[key] = {"true": True, "false": False}[value]
                elif tag in ("string", "date", "id"):
                    out[key] = value
                else:
                    dropped_attrs += 1
            except (KeyError, TypeError, ValueError):
                error = error or (tag, key, value)
        if error is not None:
            owner = out.get("concept:name") if case_id is None else case_id
            raise LogError(f"{path}: {_bad_value(owner, *error)}")
        return out

    for trace_el in root:
        if local(trace_el.tag) != "trace":
            continue
        trace_attrs = attr_map(trace_el, skip_children=("event",))
        case_id = trace_attrs.get("concept:name")
        if case_id is None:
            raise LogError(f"{path}: trace without concept:name case id")
        events = []
        for pos, event_el in enumerate(e for e in trace_el if local(e.tag) == "event"):
            ev_attrs = attr_map(event_el, case_id)
            activity = ev_attrs.get("concept:name")
            if activity is None:
                raise LogError(f"{path}: case {case_id!r} has an event without concept:name")
            stamp = ev_attrs.get("time:timestamp")
            if stamp is None:
                raise LogError(f"{path}: case {case_id!r} has an event without time:timestamp")
            try:
                ts = _parse_timestamp(str(stamp), ISO_FORMAT)
            except LogError as exc:
                raise LogError(f"{path}: case {case_id!r}: {exc}") from None
            resource = ev_attrs.get("org:resource")
            resource = None if resource is None else str(resource)
            try:
                events.append((ts, pos, Event(str(activity), resource, ts)))
            except LogError as exc:  # an empty activity label
                raise LogError(f"{path}: {exc}") from None
        events.sort(key=lambda t: (t[0], t[1]))
        sensitive = {attr: trace_attrs.get(attr) for attr in sensitive_attrs}
        try:
            instances.append(
                ProcessInstance(str(case_id), tuple(ev for _, _, ev in events), sensitive)
            )
        except LogError as exc:  # an empty trace
            raise LogError(f"{path}: {exc}") from None
    try:
        return EventLog(tuple(instances), sensitive_attrs), dropped_attrs
    except LogError as exc:  # a repeated case id
        raise LogError(f"{path}: {exc}") from None


# what a value read as text may not hold: a reference, a character the parser
# normalizes (tab, line break) and one XML 1.0 does not allow
UNPLAIN_VALUE = re.compile("[&<\x00-\x1f\ufffe\uffff]")


def plain_layout(piece, layout) -> bool:
    """Whether ``piece``, a trace's text from after the previous ``</trace>``,
    is ``<trace>`` led by XML whitespace only, then the trace layout
    ``layout`` with plain values: split at ``"``, every fourth piece is a
    value, the text with those emptied equals ``layout``, and the values
    joined hold nothing ``UNPLAIN_VALUE`` finds."""
    space, opening, text = piece.partition("<trace>")
    pieces = text.split('"')
    values = pieces[3::4]
    pieces[3::4] = [""] * len(values)
    return (bool(opening) and not space.strip(" \t\r\n") and '"'.join(pieces) == layout
            and not UNPLAIN_VALUE.search("".join(values)))


def tree_write_xes(log: EventLog, path) -> None:
    """The reference XES writer: build a tree, indent it, serialize it."""
    root = ET.Element("log", {"xes.version": "2.0", "xmlns": "http://www.xes-standard.org/"})
    for inst in log:
        trace_el = ET.SubElement(root, "trace")
        ET.SubElement(trace_el, "string", {"key": "concept:name", "value": inst.case_id})
        for attr in log.sensitive_attrs:
            value = inst.sensitive.get(attr)
            if value is None:
                continue
            if isinstance(value, bool):
                ET.SubElement(trace_el, "boolean", {"key": attr, "value": str(value).lower()})
            elif isinstance(value, int):
                ET.SubElement(trace_el, "int", {"key": attr, "value": str(value)})
            elif isinstance(value, float):
                ET.SubElement(trace_el, "float", {"key": attr, "value": repr(value)})
            else:
                ET.SubElement(trace_el, "string", {"key": attr, "value": str(value)})
        for ev in inst.trace:
            ev_el = ET.SubElement(trace_el, "event")
            ET.SubElement(ev_el, "string", {"key": "concept:name", "value": ev.activity})
            if ev.resource is not None:
                ET.SubElement(ev_el, "string", {"key": "org:resource", "value": ev.resource})
            ET.SubElement(
                ev_el,
                "date",
                {"key": "time:timestamp", "value": _format_timestamp(ev.timestamp, ISO_FORMAT)},
            )
    tree = ET.ElementTree(root)
    ET.indent(tree)
    try:
        tree.write(path, encoding="utf-8", xml_declaration=True)
    except OSError as exc:
        raise LogError(f"cannot write {path}: {exc}") from None


# --- random log generator -------------------------------------------------------


ACTIVITIES = ["a", "b", "c", "d"]
RESOURCES = ["r1", "r2", "r3", "r4"]
DISEASES = ["x", "y", "z"]


def random_log(
    rng: random.Random, max_cases=8, max_events=6, with_resources=True, sensitive=("Disease",)
):
    n_cases = rng.randint(2, max_cases)
    instances = []
    for cid in range(n_cases):
        n_events = rng.randint(1, max_events)
        t = rng.randint(0, 3)
        events = []
        for _ in range(n_events):
            events.append(
                Event(
                    rng.choice(ACTIVITIES),
                    rng.choice(RESOURCES) if with_resources else None,
                    t * HOUR,
                )
            )
            t += rng.randint(0, 4)
        instances.append(
            ProcessInstance(
                f"c{cid}", tuple(events), {attr: rng.choice(DISEASES) for attr in sensitive}
            )
        )
    return EventLog(tuple(instances), tuple(sensitive))


@st.composite
def hypothesis_logs(draw, max_cases=10, max_events=5):
    """Hour-stamped logs in the shape of :func:`random_log`, drawn by Hypothesis."""
    instances = []
    for cid in range(draw(st.integers(2, max_cases))):
        hours = sorted(draw(st.lists(st.integers(0, 8), min_size=1, max_size=max_events)))
        trace = tuple(
            Event(draw(st.sampled_from(ACTIVITIES)), draw(st.sampled_from(RESOURCES)), h * HOUR)
            for h in hours
        )
        instances.append(
            ProcessInstance(f"c{cid}", trace, {"Disease": draw(st.sampled_from(DISEASES))})
        )
    return EventLog(tuple(instances), ("Disease",))


@st.composite
def reordered_logs(draw, max_cases=8):
    """Logs whose cases each put one drawn set of activities in their own
    order (resource ``r1``, an event per hour): every activity is once in
    every case, so the descriptors of perspectives ``A`` and ``AR`` are
    equally frequent and Baseline2 goes straight to its structural merges."""
    acts = draw(st.lists(st.sampled_from(ACTIVITIES), min_size=1, unique=True))
    instances = []
    for cid in range(draw(st.integers(2, max_cases))):
        order = draw(st.permutations(acts))
        trace = tuple(Event(a, "r1", h * HOUR) for h, a in enumerate(order))
        instances.append(
            ProcessInstance(f"c{cid}", trace, {"Disease": draw(st.sampled_from(DISEASES))})
        )
    return EventLog(tuple(instances), ("Disease",))
