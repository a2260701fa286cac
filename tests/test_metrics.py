import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlkcpriv import (
    Event,
    EventLog,
    LogError,
    Perspective,
    ProcessInstance,
    TimestampAccuracy,
    TlkcAnonymizer,
    dfg_compare,
    directly_follows,
    emd_data_utility,
    handover_compare,
    variants,
)
from tlkcpriv import metrics
from tlkcpriv.log import ProjectedEvent

from .conftest import build_log
from .oracles import (
    brute_transport_cost,
    full_lp_transport_cost,
    random_log,
    scalar_cost_matrix,
    scalar_emd_report,
    scalar_levenshtein,
    scalar_transport_flow,
    set_graph_precision,
)

HOURS = TimestampAccuracy.HOURS

REFERENCE = dict(
    accuracy="hours", L=2, K=2, C=0.5, theta=0.25, bk="rel/ar", sensitive=("Disease",)
)


def distance(s1, s2):
    """The package's edit distance between two sequences, one cell of its kernel."""
    return float(metrics._edit_distance_matrix([s1], [s2])[0, 0])


class TestLevenshtein:
    def test_equal_traces(self):
        assert distance("abc", "abc") == 0.0

    def test_single_deletion(self):
        assert distance("abc", "ab") == pytest.approx(1 / 3)

    def test_full_substitution(self):
        assert distance("a", "b") == 1.0

    def test_both_empty(self):
        assert distance("", "") == 0.0

    small = st.lists(st.sampled_from("abcd"), max_size=6).map(tuple)

    @given(s=small, t=small, u=small)
    @example(s=("a", "b"), t=("b", "a"), u=("b", "a", "b"))
    @settings(max_examples=150, deadline=None)
    def test_metric_properties(self, s, t, u):
        d_st = distance(s, t)
        assert 0.0 <= d_st <= 1.0
        assert (d_st == 0.0) == (s == t)
        assert d_st == distance(t, s)

        # the edit distance is a metric, but dividing it by the longer length
        # breaks the triangle inequality (the example: 1 > 1/3 + 1/3), so the
        # inequality is checked on the unscaled distance
        def edits(x, y):
            return distance(x, y) * max(len(x), len(y))

        assert edits(s, t) <= edits(s, u) + edits(u, t) + 1e-9


# symbols: a two-letter alphabet (many repeats), a ten-letter one, and
# descriptors with resource and time fields
SYMBOL_SETS = [
    tuple("ab"),
    tuple("abcdefghij"),
    tuple(
        ProjectedEvent(a, r, t)
        for a in "ab"
        for r in (None, "r1", "r2")
        for t in (None, 0, 1, 2, 3)
    ),
]


@st.composite
def variant_lists(draw):
    """Two lists of variants, empty ones included, either of even lengths or
    with one side of at most one symbol and the other of 30 to 40 or 190 to
    200; lengths above 64 take more than one 64-bit word in the kernel.  A
    variant is drawn as bytes, one per symbol, which keeps long ones cheap."""
    symbols = draw(st.sampled_from(SYMBOL_SETS))
    sides = []
    pairs = [(8, 8), (1, 40), (40, 1), (70, 70), (1, 200), (200, 1), (130, 130)]
    for length in draw(st.sampled_from(pairs)):
        variant = st.binary(min_size=max(0, length - 10), max_size=length).map(
            lambda raw: tuple(symbols[byte % len(symbols)] for byte in raw)
        )
        sides.append(draw(st.lists(variant, max_size=6)))
    return sides


def _word_edge(length):
    """Two sides with variants of ``length`` symbols and of one less and one
    more, and an empty variant on each side."""
    rng = random.Random(length)

    def variant(size):
        return tuple(rng.choice("abcd") for _ in range(size))

    return [[(), variant(length), variant(length + 1)], [variant(length - 1), variant(length), ()]]


class TestEditDistanceKernel:
    @given(sides=variant_lists())
    @example(sides=[[(), ("a",)], [(), ("a", "b"), ("b",) * 40]])
    # the 64-bit word edges of the kernel's patterns
    @example(sides=_word_edge(63))
    @example(sides=_word_edge(64))
    @example(sides=_word_edge(65))
    @example(sides=_word_edge(128))
    @example(sides=_word_edge(129))
    @settings(max_examples=200, deadline=None)
    def test_matrix_equals_the_scalar_dp_exactly(self, sides):
        va, vb = sides
        got = metrics._edit_distance_matrix(va, vb)
        assert got.dtype == np.float64
        assert got.shape == (len(va), len(vb))
        assert got.tolist() == scalar_cost_matrix(va, vb)
        for x, y in zip(va, vb):
            assert distance(x, y) == scalar_levenshtein(x, y)

    @pytest.mark.parametrize(
        "pair, ps, accuracy",
        [
            ("hospital-treatment", Perspective.A, TimestampAccuracy.SECONDS),
            ("treatment-reference", Perspective.A, HOURS),
            ("treatment-reference", Perspective.AR, HOURS),
            ("treatment-reference", Perspective.ART, HOURS),
            ("random", Perspective.AR, HOURS),
            ("random", Perspective.RT, HOURS),
        ],
    )
    def test_report_equals_the_scalar_build(
        self, pair, ps, accuracy, hospital_log, treatment_log
    ):
        if pair == "hospital-treatment":
            original, anonymized = hospital_log, treatment_log
        elif pair == "treatment-reference":
            original = treatment_log
            anonymized = TlkcAnonymizer(**REFERENCE).anonymize(treatment_log).log
        else:
            rng = random.Random(31)
            original = random_log(rng, max_cases=12, max_events=8)
            anonymized = random_log(rng, max_cases=12, max_events=8)
        with pytest.MonkeyPatch.context() as mp:
            solves = _record_solves(mp)
            report = emd_data_utility(original, anonymized, ps, accuracy)
        assert report.transport_cost > 0
        du, transport_cost, _ = scalar_emd_report(original, anonymized, ps, accuracy)
        assert abs(report.du - du) <= 1e-12
        assert abs(report.transport_cost - transport_cost) <= 1e-12
        # the plan is one optimal plan, not necessarily the full solve's vertex
        cost = np.array(scalar_cost_matrix(report.original_variants, report.anonymized_variants))
        flow = np.zeros(cost.shape)
        for (i, j), mass, cell_cost in report.plan:
            assert cell_cost == cost[i, j]
            flow[i, j] = mass
        assert abs(sum(m * c for _, m, c in report.plan) - report.transport_cost) <= 1e-12
        wa = _weights(original, report.original_variants, ps, accuracy)
        wb = _weights(anonymized, report.anonymized_variants, ps, accuracy)
        _assert_certified(flow, wa, wb, cost, solves[-1].eqlin.marginals)

    def test_one_kernel_call_per_report(self, treatment_log, monkeypatch):
        # the whole matrix comes from one call, never from a per-cell distance
        kernel, calls = metrics._edit_distance_matrix, []

        def counting(va, vb):
            calls.append((len(va), len(vb)))
            return kernel(va, vb)

        monkeypatch.setattr(metrics, "_edit_distance_matrix", counting)
        anonymized = TlkcAnonymizer(**REFERENCE).anonymize(treatment_log).log
        report = emd_data_utility(treatment_log, anonymized, Perspective.AR, HOURS)
        assert calls == [(len(report.original_variants), len(report.anonymized_variants))]
        assert calls[0][0] * calls[0][1] > 1

    def test_cap_size_call_holds_its_memory_bound(self):
        # 500 x 500 variants of up to 100 symbols (two words per pattern): the
        # blocks of CHUNK_CELLS keep the growth near the 6 MiB of the integer,
        # length and float matrices (about 9 MiB in all); all 500 sequences in
        # one block grew it by 48 MiB
        script = """
import random, resource
from tlkcpriv.metrics import _edit_distance_matrix
rng = random.Random(5)
va, vb = ([tuple(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(1, 100)))
           for _ in range(500)] for _ in range(2))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
_edit_distance_matrix(va, vb)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
        src = os.path.dirname(os.path.dirname(metrics.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert int(run.stdout) <= 16 * 1024  # KiB


COST_LEVELS = [0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0]


@st.composite
def transport_instances(draw):
    """Weights from case counts and a cost matrix of 1 to 9 rows and columns,
    with ties, zero cells and repeated rows.

    Cells are normalized edit distances, ``k / L`` for a longer length ``L``
    of at most 40, so two distinct costs lie at least 1/1600 apart.  Costs
    closer than HiGHS's dual tolerance (1e-10) could not be told apart by
    any HiGHS solve, this one or the oracle's."""
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    counts = st.integers(1, 9)
    counts_a = draw(st.lists(counts, min_size=n, max_size=n))
    counts_b = draw(st.lists(counts, min_size=m, max_size=m))
    cell = st.sampled_from(COST_LEVELS) | st.integers(1, 40).flatmap(
        lambda longer: st.integers(0, longer).map(lambda edits: edits / longer)
    )
    rows = []
    for i in range(n):
        if i and draw(st.booleans()):
            rows.append(rows[draw(st.integers(0, i - 1))])
        else:
            rows.append(draw(st.lists(cell, min_size=m, max_size=m)))
    return counts_a, counts_b, rows


# an instance that the north-west staircase does not solve: its first round
# prices in cell (2, 0) at a reduced cost of -1e-6 and no other cell below
# zero, so a pricing tolerance looser than that would stop one round early,
# 7.7e-8 above the optimum
TWO_ROUNDS = (
    [5, 2, 4],
    [1, 7, 5],
    [[2 / 9, 2 / 9, 2 / 9], [1 / 2, 1 / 3, 1 / 6 - 1e-6], [1 / 2, 1, 1 / 3]],
)


def _record_solves(mp):
    """Record the result of every ``metrics.linprog`` call in a list."""
    solves, solve = [], metrics.linprog

    def recording(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    mp.setattr(metrics, "linprog", recording)
    return solves


def _weights(log, variant_order, ps, accuracy):
    mult, _ = variants(log, ps, accuracy)
    w = np.array([mult[v] for v in variant_order], dtype=float)
    return w / w.sum()


def _staircase(wa, wb):
    """The north-west-corner cells alone, as a start support."""
    support = np.zeros((len(wa), len(wb)), dtype=bool)
    support[metrics._north_west(wa, wb)] = True
    return support


def _assert_certified(flow, wa, wb, cost, duals):
    """``flow`` is a feasible plan and ``duals`` price no cell below zero."""
    assert np.all(flow >= 0)
    assert np.abs(flow.sum(axis=1) - wa).max() <= 1e-12
    assert np.abs(flow.sum(axis=0) - wb).max() <= 1e-12
    n = len(wa)
    reduced = cost - duals[:n, None] - duals[None, n:]
    assert reduced.min() >= -1e-9


class TestTransport:
    def test_equals_the_full_lp(self):
        rounds = []

        @given(instance=transport_instances())
        @example(instance=TWO_ROUNDS)
        # one cost 1e-6 below its level, in a 6 x 5 instance
        @example(instance=(
            [2, 1, 4, 8, 4, 3],
            [9, 6, 2, 2, 5],
            [
                [0, 2 / 3, 1 / 3, 2 / 9, 1 / 3],
                [1 / 6, 1 / 3, 1 / 3, 2 / 9, 1 / 3],
                [0, 1 / 3, 2 / 3, 4 / 9, 4 / 9],
                [2 / 3, 4 / 9, 1 / 3, 1 / 3, 1 - 1e-6],
                [1 / 3, 0, 1 / 3, 0, 2 / 3],
                [0, 1 / 3, 2 / 9, 1 / 6, 0],
            ],
        ))
        # a cost below HiGHS's default dual tolerance, 1e-7
        @example(instance=([1, 1, 1, 1], [1, 1], [[0, 0], [0, 0], [0, 0], [0, 6e-8]]))
        @example(instance=([3], [1, 2, 1], [[0.5, 0.0, 0.5]]))
        @example(instance=([1, 1, 2], [5], [[1.0], [0.0], [1.0]]))
        @settings(max_examples=200, deadline=None)
        def check(instance):
            counts_a, counts_b, rows = instance
            wa = np.array(counts_a, dtype=float) / sum(counts_a)
            wb = np.array(counts_b, dtype=float) / sum(counts_b)
            cost = np.array(rows)
            full = full_lp_transport_cost(wa, wb, cost)
            # the entropic start, then the pricing loop from the staircase alone
            for start in (None, _staircase(wa, wb)):
                with pytest.MonkeyPatch.context() as mp:
                    solves = _record_solves(mp)
                    flow = metrics._optimal_flow(wa, wb, cost, start)
                assert abs(float(np.sum(flow * cost)) - full) <= 1e-12
                _assert_certified(flow, wa, wb, cost, solves[-1].eqlin.marginals)
            rounds.append(len(solves))  # the staircase's

        check()
        # not vacuous: TWO_ROUNDS, an explicit example, needs the pricing loop
        # from the staircase
        assert max(rounds) >= 2

    @pytest.mark.parametrize(
        "counts_a, counts_b, cost",
        [
            ([3, 1, 2], [1, 4], np.zeros((3, 2))),
            ([3, 1, 2], [1, 4, 2, 2], np.full((3, 4), 0.5)),
            ([2], [1, 5, 3, 1], [[0.25, 1.0, 0.0, 0.5]]),
            ([1, 5, 3, 1], [2], [[0.25], [1.0], [0.0], [0.5]]),
            ([2, 3, 1, 4], [5, 1, 2], [[0, 1, 1], [1, 0, 1], [1, 1, 1], [0, 0, 1]]),
            ([990] + [1] * 10, [1] * 6 + [994], np.linspace(0, 1, 77).reshape(11, 7)),
        ],
        ids=["all-zero", "all-equal", "one-row", "one-column", "zero-one", "one-heavy-variant"],
    )
    def test_entropic_start_on_degenerate_inputs(self, counts_a, counts_b, cost):
        wa = np.array(counts_a, dtype=float) / sum(counts_a)
        wb = np.array(counts_b, dtype=float) / sum(counts_b)
        cost = np.array(cost, dtype=float)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.MonkeyPatch.context() as mp:
                solves = _record_solves(mp)
                flow = metrics._optimal_flow(wa, wb, cost)
        assert np.isfinite(flow).all()
        assert abs(float(np.sum(flow * cost)) - full_lp_transport_cost(wa, wb, cost)) <= 1e-12
        _assert_certified(flow, wa, wb, cost, solves[-1].eqlin.marginals)

    def test_scalar_oracle_solves_at_the_package_tolerance(self):
        # at HiGHS's default dual tolerance, 1e-7, the oracle's full solve
        # stopped at a plan costing 1.5e-8 on this instance; the optimum is 0
        wa, wb = np.full(4, 0.25), np.full(2, 0.5)
        cost = np.array([[0, 0], [0, 0], [0, 0], [0, 6e-8]])
        flow = scalar_transport_flow(wa, wb, cost)
        assert float(np.sum(flow * cost)) <= 1e-12


class TestEmd:
    def test_identity_is_exactly_one(self, hospital_log):
        report = emd_data_utility(hospital_log, hospital_log, Perspective.A)
        assert report.du == 1.0
        assert report.transport_cost == 0.0

    def test_single_pair(self):
        original = build_log({"1": [("a", None, 0), ("b", None, 60)]})
        anonymized = build_log({"1": [("a", None, 0)]})
        report = emd_data_utility(original, anonymized, Perspective.A)
        assert report.du == pytest.approx(0.5)

    def test_cost_matrix_over_the_cap_rejected(self, hospital_log, treatment_log, monkeypatch):
        n = len(variants(hospital_log, Perspective.A)[1])
        m = len(variants(treatment_log, Perspective.A)[1])
        monkeypatch.setattr(metrics, "TRANSPORT_SIZE_CAP", n * m)
        emd_data_utility(hospital_log, treatment_log, Perspective.A)  # at the cap: solved
        monkeypatch.setattr(metrics, "TRANSPORT_SIZE_CAP", n * m - 1)
        with pytest.raises(LogError) as err:
            emd_data_utility(hospital_log, treatment_log, Perspective.A)
        assert str(err.value) == (
            f"variant cost matrix {n}x{m} exceeds the exact-transport cap ({n * m - 1}); "
            "sample the logs before comparing"
        )

    def test_symmetry(self, hospital_log, treatment_log):
        ab = emd_data_utility(hospital_log, treatment_log, Perspective.A)
        ba = emd_data_utility(treatment_log, hospital_log, Perspective.A)
        assert ab.du == pytest.approx(ba.du, abs=1e-9)

    def test_range_on_random_pairs(self):
        rng = random.Random(17)
        for _ in range(10):
            a, b = random_log(rng), random_log(rng)
            du = emd_data_utility(a, b, Perspective.A).du
            assert -1e-9 <= du <= 1 + 1e-9

    def test_matches_bruteforce_grid(self):
        rng = random.Random(23)
        for _ in range(8):
            a = random_log(rng, max_cases=4, max_events=3)
            b = random_log(rng, max_cases=4, max_events=3)
            report = emd_data_utility(a, b, Perspective.A)
            from tlkcpriv import variants

            mult_a, _ = variants(a, Perspective.A)
            mult_b, _ = variants(b, Perspective.A)
            va = sorted(mult_a, key=lambda v: tuple(e.sort_key() for e in v))
            vb = sorted(mult_b, key=lambda v: tuple(e.sort_key() for e in v))
            steps = len(a) * len(b)
            wa = [mult_a[v] / len(a) for v in va]
            wb = [mult_b[v] / len(b) for v in vb]
            cost = [[scalar_levenshtein(x, y) for y in vb] for x in va]
            oracle = brute_transport_cost(wa, wb, cost, steps=steps)
            assert report.transport_cost == pytest.approx(oracle, abs=1e-6)

    def test_weights_one_case_apart_move_mass(self):
        # the same variants at 100,000 : 100,001 and 100,001 : 100,000 cases:
        # the weights differ by 1/200,001, which np.allclose would call equal
        def log(n_ab, n_c):
            ab, c = (Event("a", None, 0), Event("b", None, 3600)), (Event("c", None, 0),)
            cases = (
                ProcessInstance(f"{i:06d}", ab if i < n_ab else c, {})
                for i in range(n_ab + n_c)
            )
            return EventLog(tuple(cases))

        original, anonymized = log(100_000, 100_001), log(100_001, 100_000)
        seconds = TimestampAccuracy.SECONDS
        report = emd_data_utility(original, anonymized, Perspective.A, seconds)
        du, transport_cost, _ = scalar_emd_report(original, anonymized, Perspective.A, seconds)
        assert report.transport_cost == pytest.approx(1 / 200_001, rel=1e-9)
        assert abs(report.du - du) <= 1e-12
        assert abs(report.transport_cost - transport_cost) <= 1e-12
        flow = np.zeros((2, 2))
        for (i, j), mass, _ in report.plan:
            flow[i, j] = mass
        wa = _weights(original, report.original_variants, Perspective.A, seconds)
        wb = _weights(anonymized, report.anonymized_variants, Perspective.A, seconds)
        assert np.abs(flow.sum(axis=1) - wa).max() <= 1e-12
        assert np.abs(flow.sum(axis=0) - wb).max() <= 1e-12

    def test_empty_log_rejected(self, hospital_log):
        with pytest.raises(LogError):
            emd_data_utility(hospital_log, EventLog(()), Perspective.A)


class TestDfg:
    def test_identical_logs(self, hospital_log):
        cmp = dfg_compare(hospital_log, hospital_log)
        assert (cmp.fitness, cmp.precision, cmp.f1) == (1.0, 1.0, 1.0)

    def test_hand_computed_toy(self):
        original = build_log(
            {
                "1": [("a", None, 0), ("b", None, 1), ("c", None, 2)],
                "2": [("a", None, 0), ("b", None, 1), ("c", None, 2)],
            }
        )
        anonymized = build_log(
            {"1": [("a", None, 0), ("c", None, 2)], "2": [("a", None, 0), ("c", None, 2)]}
        )
        cmp = dfg_compare(original, anonymized)
        # all original edges touch b and disappear; (a,c) is new
        assert cmp.fitness == 0.0
        assert cmp.precision == pytest.approx(6 / 7)
        assert cmp.f1 == 0.0
        assert ("a", "c") in cmp.extra_edges

    def test_precision_one_without_new_edges(self, hospital_log):
        from tlkcpriv import suppress_global, ProjectedEvent

        # dropping the always-final activity cannot create new adjacencies
        anonymized, _ = suppress_global(
            hospital_log, [ProjectedEvent(activity="RL")], Perspective.A
        )
        cmp = dfg_compare(hospital_log, anonymized)
        assert cmp.precision == 1.0
        assert cmp.extra_edges == ()

    def test_counts_shared_with_log_core(self, hospital_log):
        df = directly_follows(hospital_log, Perspective.A)
        cmp = dfg_compare(hospital_log, hospital_log)
        assert cmp.fitness == sum(df.values()) / sum(df.values()) == 1.0

    def test_reference_pair(self, treatment_log):
        anonymized = TlkcAnonymizer(**REFERENCE).anonymize(treatment_log).log
        cmp = dfg_compare(treatment_log, anonymized)
        # suppression introduced the HO->BT adjacency, so one of the 16
        # original non-edges is lost: precision 15/16
        assert cmp.precision == pytest.approx(15 / 16)
        assert ("HO", "BT") in cmp.extra_edges

    def test_no_edges_rejected(self):
        log = build_log({"1": [("a", None, 0)]})
        with pytest.raises(LogError):
            dfg_compare(log, log)


class TestGraphPrecision:
    def test_counted_complements_equal_the_built_sets(self):
        """Precision from edge counts is the set formula's float, bit for bit,
        for DFG and handover, on anonymized and on unrelated logs."""
        from tlkcpriv import suppress_global

        rng = random.Random(3303)
        seen = set()
        for _ in range(150):
            original = random_log(rng, max_cases=rng.randint(2, 8))
            if rng.random() < 0.5:
                labels = sorted(original.activities())
                gone = [ProjectedEvent(a) for a in rng.sample(labels, rng.randint(0, 2))]
                anonymized, _ = suppress_global(original, gone, Perspective.A)
            else:
                anonymized = random_log(rng, max_cases=4)
            if not len(anonymized):
                continue
            for compare, ps, vertices in [
                (dfg_compare, Perspective.A, original.activities()),
                (handover_compare, Perspective.R, original.resources()),
            ]:
                df_o = directly_follows(original, ps)
                if not df_o:
                    continue
                want = set_graph_precision(df_o, directly_follows(anonymized, ps), vertices)
                got = compare(original, anonymized).precision
                assert got == want
                seen.add("one" if want == 1.0 else "below one")
                seen.add("complete" if len(df_o) == len(vertices) ** 2 else "sparse")
        assert seen == {"one", "below one", "complete", "sparse"}


class TestHandover:
    def test_identical_logs(self, hospital_log):
        cmp = handover_compare(hospital_log, hospital_log)
        assert (cmp.fitness, cmp.precision, cmp.f1) == (1.0, 1.0, 1.0)

    def test_known_edges_present(self, hospital_log):
        df = directly_follows(hospital_log, Perspective.R)
        assert ("E4", "D3") in df and ("E1", "E3") in df

    def test_single_resource_self_loop(self):
        log = build_log({"1": [("a", "r", 0), ("b", "r", 1)]})
        cmp = handover_compare(log, log)
        assert (cmp.fitness, cmp.precision, cmp.f1) == (1.0, 1.0, 1.0)

    def test_missing_resources_rejected(self, hospital_log):
        bare = build_log({"1": [("a", None, 0), ("b", None, 1)]})
        with pytest.raises(LogError):
            handover_compare(hospital_log, bare)

    def test_f1_is_harmonic_mean(self, treatment_log):
        anonymized = TlkcAnonymizer(**REFERENCE).anonymize(treatment_log).log
        cmp = handover_compare(treatment_log, anonymized)
        if cmp.fitness and cmp.precision:
            expected = 2 * cmp.fitness * cmp.precision / (cmp.fitness + cmp.precision)
            assert cmp.f1 == pytest.approx(expected)
