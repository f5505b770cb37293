"""Optimization layer tests: fixture values, minimality, rigidity."""

import importlib
import itertools
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkclust import (
    InvalidInput,
    NumericFailure,
    OptConfig,
    Pattern,
    SimplexPoint,
    is_minimal,
    lagrange_eval,
    lagrange_grad,
    lagrangian,
    lagrangian_grid,
    parse_pattern,
    phi,
    phi_grid,
    rigidity_report,
    serialize_pattern,
)
from helpers import (
    interior_points,
    reference_calc,
    reference_optimize,
    reference_polish_face_max,
    reference_polish_maximin,
    reference_select,
)

# the module, not the function of the same name that the package exports
lagrangian_module = importlib.import_module("linkclust.lagrangian")

CFG = OptConfig()
NUMERIC = OptConfig(closed_forms=False)

# the complete r-graphs K_l^(r) for r = 2..5 and l = r..r+2: complete graphs
# for r = 2, the single transversal edge for l = r
COMPLETE = [(r, l) for r in range(2, 6) for l in range(r, r + 3)]


def _complete(r, l):
    return Pattern.from_multisets(r, l, list(itertools.combinations(range(l), r)))


class TestLagrangian:
    @pytest.mark.parametrize("r, l", COMPLETE, ids=[f"r{r}-l{l}" for r, l in COMPLETE])
    def test_complete_graph_closed_form(self, r, l):
        pattern = _complete(r, l)
        exact = Fraction(math.comb(l, r), l**r)
        rep = lagrangian(pattern, CFG)
        assert rep.value_exact == exact and rep.value == float(exact)
        assert rep.argmax == SimplexPoint.uniform(l) and rep.witness_set == (rep.argmax,)
        assert abs(lagrangian(pattern, NUMERIC).value - exact) <= 1e-9
        # the grid of resolution 2l contains the uniform point
        assert lagrangian_grid(pattern, 2 * l) == pytest.approx(float(exact), abs=1e-15)

    @pytest.mark.parametrize("num", [2, 3, 4, 5, 6])
    def test_optimizer_agrees_with_closed_form(self, num):
        rep = lagrangian(Pattern.complete_graph(num), NUMERIC)
        assert rep.value_exact is None
        assert abs(rep.value - (num - 1) / (2 * num)) <= 1e-6
        assert rep.converged and rep.restarts_used == NUMERIC.restarts

    @pytest.mark.parametrize(
        "pattern",
        [
            # every point of the simplex is optimal, so 1/l is no smallest coordinate
            Pattern.from_multisets(1, 3, [(0,), (1,), (2,)]),
            Pattern.from_multisets(3, 5, list(itertools.combinations(range(5), 3))[1:]),
            Pattern.from_multisets(3, 4, [*itertools.combinations(range(4), 3), (0, 0, 1)]),
            # fewer vertices than the uniformity: empty, so exactly 0
            Pattern(3, 2, []),
            Pattern(4, 3, []),
        ],
        ids=[
            "r1",
            "K5^(3)-minus-an-edge",
            "K4^(3)-plus-001",
            "r3-l2",
            "r4-l3",
        ],
    )
    def test_patterns_off_the_closed_form(self, pattern):
        expected = None if pattern.edges else 0
        assert lagrangian(pattern, CFG).value_exact == expected
        assert phi(pattern, CFG).value_exact == expected
        assert rigidity_report(pattern, CFG).smallest_exact is None

    def test_empty_pattern(self):
        rep = lagrangian(Pattern(2, 4, []), CFG)
        assert rep.value == 0.0 and rep.value_exact == 0

    def test_cycle_values(self):
        # odd cycles top out on a single edge, value 1/4
        assert abs(lagrangian(Pattern.cycle(5), CFG).value - 0.25) <= 1e-9
        assert abs(lagrangian(Pattern.cycle(7), CFG).value - 0.25) <= 1e-9

    def test_value_matches_argmax_evaluation(self):
        for pattern in (Pattern.cycle(5), Pattern.single_edge(3), Pattern(3, 2, [(0, 0, 1)])):
            rep = lagrangian(pattern, NUMERIC)
            assert abs(rep.value - lagrange_eval(pattern, rep.argmax)) <= 1e-10

    def test_grid_oracle_is_a_lower_bound(self):
        for pattern in (Pattern.cycle(4), Pattern.path(3), Pattern(3, 2, [(0, 0, 1)])):
            assert lagrangian_grid(pattern, 60) <= lagrangian(pattern, CFG).value + 1e-9


class TestPhi:
    @pytest.mark.parametrize("r, l", COMPLETE, ids=[f"r{r}-l{l}" for r, l in COMPLETE])
    def test_complete_graph_closed_form(self, r, l):
        pattern = _complete(r, l)
        exact = Fraction(math.comb(l - 1, r - 1), l ** (r - 1))
        rep = phi(pattern, CFG)
        assert rep.value_exact == exact and rep.value == float(exact)
        assert abs(phi(pattern, NUMERIC).value - exact) <= 1e-9
        rig = rigidity_report(pattern, CFG)
        assert rig.rigid and rig.maximin_exact == exact and rig.smallest_exact == Fraction(1, l)
        assert phi_grid(pattern, l) == pytest.approx(float(exact), abs=1e-15)

    def test_optimizer_matches_closed_forms(self):
        assert abs(phi(Pattern.complete_graph(3), NUMERIC).value - 2 / 3) <= 1e-6
        assert abs(phi(Pattern.single_edge(3), NUMERIC).value - 1 / 9) <= 1e-6

    def test_cycle_five(self):
        rep = phi(Pattern.cycle(5), CFG)
        assert abs(rep.value - 2 / 5) <= 1e-6
        assert max(abs(c - 0.2) for c in rep.argmax.coords) <= 1e-6

    def test_cycle_four_flat_optimum(self):
        rep = phi(Pattern.cycle(4), NUMERIC)
        assert abs(rep.value - 0.5) <= 1e-6
        # the optimal set is a continuum; restarts land on distinct points
        assert len(rep.witness_set) > 1
        uniform = SimplexPoint.uniform(4)
        assert any(
            max(abs(a - b) for a, b in zip(w.coords, uniform.coords)) > 1e-2
            for w in rep.witness_set
        )

    def test_value_is_min_partial_at_argmax(self):
        for pattern in (Pattern.cycle(5), Pattern.cycle(4), Pattern.single_edge(3)):
            rep = phi(pattern, NUMERIC)
            assert abs(rep.value - min(lagrange_grad(pattern, rep.argmax))) <= 1e-10

    def test_grid_oracle_is_a_lower_bound(self):
        for pattern in (Pattern.cycle(5), Pattern.path(3)):
            assert phi_grid(pattern, 60) <= phi(pattern, CFG).value + 1e-9


class TestMinimality:
    def test_complete_graphs_are_minimal(self):
        for num in (2, 3, 4, 5):
            rep = is_minimal(Pattern.complete_graph(num), CFG)
            assert rep.minimal and rep.margin > 1e-3

    def test_path_is_not(self):
        # deleting an endpoint leaves a single edge with the same maximum
        rep = is_minimal(Pattern.path(3), CFG)
        assert not rep.minimal and abs(rep.margin) <= 1e-9

    def test_odd_cycle_is_not(self):
        assert not is_minimal(Pattern.cycle(5), CFG).minimal

    def test_single_transversal_is_minimal(self):
        rep = is_minimal(Pattern.single_edge(3), CFG)
        assert rep.minimal

    def test_minimal_patterns_balance_value_and_maximin(self):
        for pattern in (
            Pattern.complete_graph(3),
            Pattern.complete_graph(4),
            Pattern.single_edge(3),
        ):
            assert is_minimal(pattern, CFG).minimal
            gap = pattern.r * lagrangian(pattern, CFG).value - phi(pattern, CFG).value
            assert abs(gap) <= 2e-6

    def test_needs_two_vertices(self):
        with pytest.raises(InvalidInput):
            is_minimal(Pattern(2, 1, [(0, 0)]), CFG)


class TestRigidity:
    @pytest.mark.parametrize(
        "pattern",
        [Pattern.complete_graph(k) for k in (2, 3, 4, 5)]
        + [Pattern.cycle(5), Pattern.cycle(7), Pattern.single_edge(3)],
        ids=repr,
    )
    def test_rigid_fixtures(self, pattern):
        rep = rigidity_report(pattern, CFG)
        assert rep.rigid and rep.certificate is None
        assert rep.smallest_coordinate > 1e-3

    def test_even_cycle_fails_through_twins(self):
        rep = rigidity_report(Pattern.cycle(4), CFG)
        assert not rep.rigid
        assert rep.certificate["kind"] == "twins"
        assert rep.smallest_coordinate == pytest.approx(0.0, abs=1e-12)
        assert min(min(w.coords) for w in rep.witness_set) <= 1e-12

    def test_path_fails(self):
        rep = rigidity_report(Pattern.path(3), CFG)
        assert not rep.rigid

    def test_twins_force_non_rigid(self):
        shared = Pattern.from_multisets(3, 3, [(0, 0, 2), (0, 1, 2), (1, 1, 2)])
        assert not rigidity_report(shared, CFG).rigid

    def test_report_is_flagged_numerical(self):
        assert "not a proof" in rigidity_report(Pattern.cycle(5), NUMERIC).note

    def test_exact_report_says_so(self):
        for pattern in (Pattern.cycle(5), Pattern.cycle(4), _k4_3_pattern()):
            assert rigidity_report(pattern, CFG).note == "exact rational result"

    def test_empty_pattern_is_not_rigid(self):
        rep = rigidity_report(Pattern(2, 3, []), CFG)
        assert not rep.rigid

    def test_isolated_twins_cost_one_slid_witness(self):
        # the 98 isolated vertices make 4 753 twin pairs; two slid witnesses
        # per pair would be 9 507 witnesses and a 31.7 MB peak
        pattern = parse_pattern("2 100 1\n1 2\n")
        tracemalloc.start()
        try:
            rep = rigidity_report(pattern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert len(rep.witness_set) == 2 and not rep.rigid
        assert {k: rep.certificate[k] for k in ("kind", "pair")} == {"kind": "twins", "pair": (2, 3)}
        assert rep.certificate["witness"][2] == 0.0 and rep.smallest_coordinate == 0.0


# -- the exact path of r = 2 patterns ----------------------------------------------


def _graph_patterns():
    """One r = 2 pattern with an edge per isomorphism class on at most 3
    vertices (loops allowed), then 40 seeded ones on 4-6 vertices."""
    out, seen = [], set()
    for n in (1, 2, 3):
        pairs = list(itertools.combinations_with_replacement(range(n), 2))
        for k in range(1, len(pairs) + 1):
            for edges in itertools.combinations(pairs, k):
                canon = n, min(
                    tuple(sorted(tuple(sorted((q[a], q[b]))) for a, b in edges))
                    for q in itertools.permutations(range(n))
                )
                if canon not in seen:
                    seen.add(canon)
                    out.append((f"{n}v:" + ",".join(f"{a}{b}" for a, b in edges), edges, n))
    rng = np.random.Generator(np.random.Philox(15))
    for i in range(40):
        n = int(rng.integers(4, 7))
        pairs = list(itertools.combinations_with_replacement(range(n), 2))
        edges = [e for e, keep in zip(pairs, rng.random(len(pairs)) < 0.45) if keep]
        out.append((f"seeded-{i}", edges, n))
    return [(name, Pattern.from_multisets(2, n, edges)) for name, edges, n in out]


GRAPHS = _graph_patterns()


def _exact_monomial(e, x):
    return math.prod(Fraction(x[v]) ** m / math.factorial(m) for v, m in Counter(e).items())


def _exact_partials(pattern, x):
    return [
        sum(_exact_monomial(e, x) for e in pattern.links()[i])
        for i in range(pattern.num_vertices)
    ]


# where the numeric φ stops about 6.7e-5 short of the exact 1/2: the maximin
# polish fails and the best soft-min ascent point is reported
NUMERIC_SHORT = {"seeded-10", "seeded-25", "seeded-35"}


class TestExactGraph:
    @pytest.mark.parametrize(
        "pattern",
        [
            pytest.param(
                pattern,
                id=name,
                marks=[pytest.mark.xfail(strict=True, reason="numeric φ falls short")]
                if name in NUMERIC_SHORT
                else [],
            )
            for name, pattern in GRAPHS
        ],
    )
    def test_numeric_optimizer_agrees(self, pattern):
        for solve in (lagrangian, phi):
            exact, numeric = solve(pattern, CFG), solve(pattern, NUMERIC)
            assert abs(numeric.value - exact.value_exact) <= 1e-9, solve.__name__

    @pytest.mark.parametrize("pattern", [p for _, p in GRAPHS], ids=[name for name, _ in GRAPHS])
    def test_exact_points_attain_the_values(self, pattern):
        record = lagrangian_module._exact(pattern)
        lam_point, phi_point = record.points
        for solve, point in ((lagrangian, lam_point), (phi, phi_point)):
            rep = solve(pattern, CFG)
            assert rep.value == float(rep.value_exact) and rep.witness_set == (rep.argmax,)
            assert rep.argmax == SimplexPoint(float(c) for c in point)
        lam, maximin = record.values
        assert sum(_exact_monomial(e, lam_point) for e in pattern.edges) == lam
        partials = _exact_partials(pattern, phi_point)
        assert sum(phi_point) == 1 and min(phi_point) >= 0 and min(partials) == maximin
        # no grid point at the resolution of an exact point does better
        for grid, point, value in (
            (lagrangian_grid, lam_point, lam),
            (phi_grid, phi_point, maximin),
        ):
            resolution = math.lcm(*(c.denominator for c in point))
            assert grid(pattern, resolution) == pytest.approx(float(value), rel=0, abs=1e-12)
        # a rigid optimum is positive with equal partials; otherwise the
        # optimum found lies on the boundary, where the smallest coordinate is
        if record.rigid:
            assert min(phi_point) == record.smallest > 0 and set(partials) == {maximin}
        else:
            assert min(phi_point) == record.smallest == 0

    @pytest.mark.parametrize(
        "pattern",
        [
            Pattern.cycle(5),
            Pattern.cycle(7),
            Pattern.cycle(4),
            Pattern.path(3),
            Pattern.complete_graph(3),
            Pattern.from_multisets(2, 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
            Pattern.from_multisets(2, 3, [(0, 0), (0, 1), (1, 2)]),
        ],
        ids=["C5", "C7", "C4", "P3", "K3", "twin-pair", "loop"],
    )
    def test_rigidity_matches_the_numeric_verdict(self, pattern):
        exact, numeric = rigidity_report(pattern, CFG), rigidity_report(pattern, NUMERIC)
        assert exact.rigid == numeric.rigid
        assert (exact.certificate or {}).get("kind") == (numeric.certificate or {}).get("kind")
        assert abs(exact.smallest_coordinate - numeric.smallest_coordinate) <= 1e-6
        assert abs(exact.maximin - numeric.maximin) <= 1e-9

    @pytest.mark.parametrize(
        "pattern, lam, maximin, smallest",
        [
            (Pattern.cycle(5), Fraction(1, 4), Fraction(2, 5), Fraction(1, 5)),
            (Pattern.cycle(7), Fraction(1, 4), Fraction(2, 7), Fraction(1, 7)),
            (Pattern.cycle(4), Fraction(1, 4), Fraction(1, 2), 0),
            (Pattern.from_multisets(2, 3, [(0, 1), (0, 2), (1, 2), (0, 0)]), Fraction(1, 2), 1, 0),
            # as many edges as K3, but one of them a loop
            (Pattern.from_multisets(2, 3, [(0, 0), (0, 1), (0, 2)]), Fraction(1, 2), 1, 0),
            (Pattern.from_multisets(2, 3, [(0, 1)]), Fraction(1, 4), 0, 0),
        ],
        ids=["C5", "C7", "C4", "K3-plus-a-loop", "K3-loop-for-an-edge", "isolated-vertex"],
    )
    def test_pinned_records(self, pattern, lam, maximin, smallest):
        assert lagrangian(pattern, CFG).value_exact == lam
        rig = rigidity_report(pattern, CFG)
        assert rig.maximin_exact == maximin and rig.smallest_exact == smallest
        assert rig.rigid == (smallest > 0)
        if rig.rigid:
            assert phi(pattern, CFG).argmax == SimplexPoint.uniform(pattern.num_vertices)

    def test_memory_follows_the_edges_not_the_vertex_count(self):
        # an l x l list-of-lists matrix took 32.4 MB at l = 2000 for one edge
        pattern = Pattern.from_multisets(2, 2000, [(1, 2)])
        tracemalloc.start()
        try:
            record = lagrangian_module._graph(pattern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.values == (Fraction(1, 4), 0) and not record.rigid
        assert record.points[0][1:3] == (Fraction(1, 2),) * 2
        assert peak < 2 << 20


def _k4_3_pattern():
    return Pattern.from_multisets(3, 4, list(itertools.combinations(range(4), 3)))


def _k4_3_minus_an_edge():
    return Pattern.from_multisets(3, 4, list(itertools.combinations(range(4), 3))[1:])


class _ConstantCalc:
    """Partials (1/64, -1/128, -1/128) and Hessian I at every point.

    On the full face the Newton system is never solved: each step moves
    y by (-1/64, 1/128, 1/128), and the 40 steps from (5/8, 3/16, 3/16) end
    exactly on (0, 1/2, 1/2), so the face polish returns no point.
    """

    def grad(self, X):
        return np.tile([1 / 64, -1 / 128, -1 / 128], (X.shape[0], 1))

    def grad_hess(self, X):
        return self.grad(X), np.tile(np.eye(3), (X.shape[0], 1, 1))


class _SingularRowCalc(_ConstantCalc):
    """:class:`_ConstantCalc`, except that at a point with x0 = 1/2 the
    Hessian's first two rows are equal, so that point's Newton system is
    exactly singular."""

    def grad_hess(self, X):
        g, H = super().grad_hess(X)
        H[X[:, 0] == 0.5, 1] = H[X[:, 0] == 0.5, 0]
        return g, H


def _assert_rows_match(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            _assert_same_bits(g, w)


def _counting(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


class TestOptimizerBranches:
    def test_singular_row_falls_back_to_per_row_solves(self, monkeypatch):
        # one face, three rows; the stacked solve of the first step raises on
        # row 1, so every row of that step is solved alone
        X = np.array([[5 / 8, 3 / 16, 3 / 16], [1 / 2, 1 / 4, 1 / 4], [3 / 4, 1 / 8, 1 / 8]])
        calc = _SingularRowCalc()
        counts = {}
        _counting(monkeypatch, lagrangian_module, "_solve_one", counts)
        got = lagrangian_module._polish_face_max(calc, X)
        assert counts["_solve_one"] >= 3
        _assert_rows_match(got, [reference_polish_face_max(calc, x) for x in X])
        alone = lagrangian_module._polish_face_max(calc, X[[0, 2]])
        _assert_rows_match([got[0], got[2]], alone)

    def test_twin_pattern_batch_matches_the_per_row_polish(self, monkeypatch):
        # vertices 2 and 3 are twins: their Jacobian rows are equal, so the
        # stacked solve raises at some steps of this batch
        pattern = Pattern.from_multisets(3, 4, [(1, 1, 1), (0, 0, 0), (1, 1, 2), (1, 1, 3)])
        calc = lagrangian_module._Calc(pattern)
        rng = np.random.default_rng(5)
        X = np.array([0.3, 1e-7, 0.1, 0.6]) * (1 + 1e-10 * rng.standard_normal((24, 4)))
        X /= X.sum(axis=1, keepdims=True)
        X = np.vstack([X, interior_points(4, 8, seed=6)])
        counts = {}
        _counting(monkeypatch, lagrangian_module, "_solve_one", counts)
        got = lagrangian_module._polish_face_max(calc, X)
        assert counts.get("_solve_one", 0) > 0
        _assert_rows_match(got, [reference_polish_face_max(calc, x) for x in X])
        _assert_rows_match(lagrangian_module._polish_face_max(calc, X[24:]), got[24:])

    def test_non_square_systems_are_solved_row_by_row(self, monkeypatch):
        # near (a, .15, .1, .2, .25) the least partials of C5, x1 + x3 and
        # x2 + x4, are within 1e-8 but not equal: two active against a
        # support of five, a least-squares system; at the random points one
        # partial is active, which is solved at once
        pattern = Pattern.cycle(5)
        calc = lagrangian_module._Calc(pattern)
        tied = np.array(
            [[a, 0.15 + 1e-9 * k, 0.1, 0.2, 0.25] for k, a in enumerate(np.linspace(0.25, 0.35, 8))]
        )
        X = np.vstack([tied / tied.sum(axis=1, keepdims=True), interior_points(5, 8, seed=7)])
        shapes = []
        original = lagrangian_module._solve_one

        def spy(J, b):
            shapes.append(J.shape)
            return original(J, b)

        monkeypatch.setattr(lagrangian_module, "_solve_one", spy)
        got = lagrangian_module._polish_maximin(calc, X)
        assert any(rows != cols for rows, cols in shapes)
        _assert_rows_match(got, [reference_polish_maximin(calc, x) for x in X])
        _assert_rows_match(lagrangian_module._polish_maximin(calc, X[1::2]), got[1::2])

    @pytest.mark.parametrize(
        "solve, polish, score, name",
        [
            (lagrangian, "_polish_face_max", lagrange_eval, "simplex"),
            (phi, "_polish_maximin", lambda p, x: min(lagrange_grad(p, x)), "maximin"),
        ],
        ids=["lagrangian", "phi"],
    )
    def test_ascent_that_never_converges_raises(self, monkeypatch, solve, polish, score, name):
        # no ascent converges and no polish succeeds: the run must refuse
        # and report the best start; a config no other test uses keeps the
        # result caches out of it
        monkeypatch.setattr(
            lagrangian_module,
            "_ascend",
            lambda evaluate, X, *limits: (X, np.zeros(X.shape[0], dtype=bool)),
        )
        monkeypatch.setattr(lagrangian_module, polish, lambda calc, X: [None] * len(X))
        cfg = OptConfig(restarts=3, seed=97, closed_forms=False)
        pattern = Pattern.cycle(5)
        with pytest.raises(NumericFailure, match=f"{name} ascent did not converge") as info:
            solve(pattern, cfg)
        starts = lagrangian_module._starts(5, cfg.restarts, cfg.seed)
        assert info.value.best_value == max(score(pattern, x) for x in starts)


# -- the batched optimizer against the per-row reference --------------------------


@st.composite
def polish_cases(draw):
    """A pattern (up to 10 vertices for r = 2, so that row sums of 9 or more
    terms occur) and simplex points: random ones, some coordinates zero, and
    the same points after a short ascent."""
    r = draw(st.sampled_from([2, 3, 4]))
    dim = draw(st.integers(2, 10 if r == 2 else 5))
    multisets = list(itertools.combinations_with_replacement(range(dim), r))
    edges = draw(st.lists(st.sampled_from(multisets), min_size=1, max_size=14, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.dirichlet(np.ones(dim), size=8)
    X[rng.random(X.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    X[:, 0] += X.sum(axis=1) == 0
    return Pattern.from_multisets(r, dim, edges), X / X.sum(axis=1, keepdims=True)


class TestBatchedOptimizer:
    @given(case=polish_cases())
    @example(
        # full support of 9 vertices: each row's mean adds 9 partials, which
        # numpy sums pairwise in one vector and in a C-contiguous row alike
        case=(
            Pattern.from_multisets(3, 9, list(itertools.combinations(range(9), 3))),
            interior_points(9, 16, seed=4),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_polish_matches_the_per_row_reference(self, case):
        pattern, X = case
        calc = lagrangian_module._Calc(pattern)
        lam = lagrangian_module._value_stages(calc)[0][0]
        soft = lagrangian_module._softmin_stages(calc)[1][0]
        for polish, reference, evaluate in (
            (lagrangian_module._polish_face_max, reference_polish_face_max, lam),
            (lagrangian_module._polish_maximin, reference_polish_maximin, soft),
        ):
            Y = np.vstack([X, lagrangian_module._ascend(evaluate, X, 200)[0]])
            _assert_rows_match(polish(calc, Y), [reference(calc, y) for y in Y])

    @given(
        points=st.lists(
            st.tuples(st.sampled_from([0.0, 1e-6, 2e-6, 0.5]), st.sampled_from([0.0, 1e-6, 0.25])),
            min_size=1,
            max_size=12,
        )
    )
    @example(points=[(0.0, 0.5), (1e-6, 0.5)])  # exactly WITNESS_TOL apart: not distinct
    @settings(max_examples=60, deadline=None)
    def test_select_matches_the_reference(self, points):
        # scores 1e-9 apart sit exactly on the VALUE_WINDOW edge; equal
        # scores fall back to the lexicographic order of the points
        def score(c):
            return float(-(c[0] + c[1]) * 1e-3)

        C = np.array(points)
        assert lagrangian_module._select(C, score) == reference_select(list(C), score)

    def test_each_trial_point_is_evaluated_once(self, monkeypatch):
        # a λ step costs one power table; a φ step one grad_hess (and its
        # table); the ascent evaluates its start and each of its 6 steps
        calc = lagrangian_module._Calc(Pattern.cycle(5))
        X = lagrangian_module._starts(5, 8, seed=3)
        counts = {}
        for name in ("_table", "value", "grad", "grad_hess"):
            _counting(monkeypatch, calc, name, counts)
        for stages, want in (
            (lagrangian_module._value_stages, {"_table": 7}),
            (lagrangian_module._softmin_stages, {"_table": 7, "grad_hess": 7}),
        ):
            counts.clear()
            _, converged = lagrangian_module._ascend(stages(calc)[0][0], X, 6)
            assert not converged.all()  # no early stop: all 6 steps ran
            assert counts == want

    @pytest.mark.parametrize(
        "pattern",
        [
            Pattern.cycle(5),
            Pattern.cycle(4),
            Pattern.path(3),
            Pattern.complete_graph(4),
            _k4_3_pattern(),
            Pattern.from_multisets(3, 3, [(0, 0, 2), (0, 1, 2), (1, 1, 2)]),
            Pattern.from_multisets(2, 3, [(0, 0), (0, 1), (1, 2)]),
            Pattern.from_multisets(3, 2, [(0, 0, 1), (0, 1, 1)]),
            Pattern.from_multisets(4, 3, [(0, 0, 0, 1), (1, 1, 2, 2), (0, 1, 2, 2)]),
            Pattern.from_multisets(3, 4, [(1, 1, 1), (0, 0, 0), (1, 1, 2), (1, 1, 3)]),
        ],
        ids=["C5", "C4", "P3", "K4", "K4^(3)", "twins", "loop", "r3-loops", "r4", "twins-r3"],
    )
    def test_reports_match_the_per_row_driver(self, monkeypatch, pattern):
        # the numeric path of every pattern, three seeds each; the per-row
        # driver also ascends as before, evaluating each point twice
        calls = (lagrangian, phi, is_minimal, rigidity_report)
        cfgs = [OptConfig(seed=seed, closed_forms=False) for seed in (1729, 1, 2)]
        got = [repr(call(pattern, cfg)) for cfg in cfgs for call in calls]
        monkeypatch.setattr(lagrangian_module, "_optimize", reference_optimize)
        assert got == [repr(call(pattern, cfg)) for cfg in cfgs for call in calls]


    @pytest.mark.parametrize(
        "pattern, lam, phi_value, smallest",
        [
            (
                Pattern.from_multisets(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]),
                "0x1.948b0fcd6e9eap-5",
                "0x1.2f684bda12f68p-3",
                "0x1.c71c71c71c71ep-3",
            ),
            (
                Pattern.from_multisets(3, 2, [(0, 0, 1), (0, 1, 1)]),
                "0x1.0000000000003p-3",
                "0x1.8000000000001p-2",
                "0x1.0000000000000p-1",
            ),
            (
                Pattern.from_multisets(2, 3, [(0, 0), (0, 1), (1, 2)]),
                "0x1.0000000000000p-1",
                "0x1.0000000000000p-1",
                "0x0.0p+0",
            ),
        ],
        ids=["K4^(3)-", "001-011", "loop"],
    )
    def test_numeric_bits_are_pinned(self, pattern, lam, phi_value, smallest):
        # the driver test above compares two evaluators that share the
        # pattern's term order; these bits also catch a change of that order
        assert lagrangian(pattern, NUMERIC).value.hex() == lam
        assert phi(pattern, NUMERIC).value.hex() == phi_value
        assert rigidity_report(pattern, NUMERIC).smallest_coordinate.hex() == smallest


# -- the batched evaluator --------------------------------------------------------


@st.composite
def calc_cases(draw):
    """A pattern (loops and multiplicities up to r allowed) and a batch of
    points, some of their coordinates exactly zero and, as in Newton steps,
    some slightly negative."""
    r = draw(st.sampled_from([2, 3, 4]))
    dim = draw(st.integers(1, 5))
    multisets = list(itertools.combinations_with_replacement(range(dim), r))
    edges = draw(st.lists(st.sampled_from(multisets), min_size=1, max_size=12, unique=True))
    rows = draw(st.sampled_from([1, 64, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.dirichlet(np.ones(dim), size=rows)
    X[rng.random(X.shape) < draw(st.sampled_from([0.0, 0.2, 0.5]))] = 0.0
    X[rng.random(X.shape) < draw(st.sampled_from([0.0, 0.1]))] *= -1e-3
    return Pattern.from_multisets(r, dim, edges), X


def _assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 too


def _numeric_hessian(calc, X, h=1e-5):
    cols = []
    for j in range(X.shape[1]):
        step = np.zeros(X.shape[1])
        step[j] = h
        cols.append((calc.grad(X + step) - calc.grad(X - step)) / (2 * h))
    return np.stack(cols, axis=2)


def _k7_3():
    return Pattern.from_multisets(3, 7, list(itertools.combinations(range(7), 3)))


class TestCalc:
    @given(case=calc_cases())
    @example(case=(Pattern.from_multisets(2, 2, [(0, 0), (0, 1)]), np.array([[0.25, 0.75]])))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_direct_evaluation(self, case):
        pattern, X = case
        calc, ref = lagrangian_module._Calc(pattern), reference_calc(pattern)
        _assert_same_bits(calc.value(X), ref.value(X))
        grad, hess = calc.grad_hess(X)
        _assert_same_bits(hess, ref.hess(X))
        _assert_same_bits(grad, calc.grad(X))
        # the reference sums each partial sequentially on two or more rows;
        # on one row numpy sums a partial of 8 or more terms pairwise
        _assert_same_bits(grad, ref.grad(np.concatenate([X, X]))[: len(X)])
        np.testing.assert_allclose(grad, ref.grad(X), rtol=0, atol=1e-14)
        if len(X) > 1:
            _assert_same_bits(grad, ref.grad(X))
        for x, v, g in zip(X[:3], calc.value(X[:3]), grad[:3]):
            assert abs(v - lagrange_eval(pattern, x)) <= 1e-12
            np.testing.assert_allclose(g, lagrange_grad(pattern, x), rtol=0, atol=1e-12)
        np.testing.assert_allclose(hess[:3], _numeric_hessian(calc, X[:3]), rtol=0, atol=1e-7)

    @pytest.mark.parametrize(
        "pattern",
        [
            _k7_3(),
            Pattern.from_multisets(
                2, 10, [*itertools.combinations(range(10), 2), (0, 0)]
            ),
        ],
        ids=["K7^(3)", "K10+loop"],
    )
    def test_single_row_partials_of_8_terms_are_summed_in_order(self, pattern):
        # every vertex of K7^(3) is in 15 edges, and vertex 0 of K10 plus a
        # loop in 10: the direct single-row evaluation sums these pairwise
        # and may differ by an ulp; here every row keeps its batch bits
        calc, ref = lagrangian_module._Calc(pattern), reference_calc(pattern)
        X = interior_points(pattern.num_vertices, 64, seed=2)
        batch = calc.grad(X)
        assert np.array_equal(batch, ref.grad(X))
        for i, x in enumerate(X):
            single = calc.grad(x[None, :])[0]
            assert np.array_equal(single, batch[i])
            np.testing.assert_array_max_ulp(single, ref.grad(x[None, :])[0], maxulp=2)

    def test_gradient_memory_is_proportional_to_the_batch(self):
        # one float per point and gradient term plus the power table: the
        # direct evaluation's (points, terms, dim) power array is 1.18 GB
        pattern = _k7_3()
        calc = lagrangian_module._Calc(pattern)
        X = interior_points(7, 200_000, seed=3)
        terms = int(np.count_nonzero(pattern.multiplicity_matrix()))
        per_batch = X.shape[0] * (terms + 7 * 2) * 8
        tracemalloc.start()
        try:
            calc.grad(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * per_batch


class TestOptionLimits:
    @pytest.mark.parametrize(
        "kwargs, match",
        [({"seed": -1}, "seed"), ({"restarts": 0}, "restarts"), ({"restarts": -3}, "restarts")],
    )
    def test_invalid_options_are_refused(self, kwargs, match):
        with pytest.raises(InvalidInput, match=match):
            OptConfig(**kwargs)

    def test_hessian_batch_above_the_cap_is_refused(self, monkeypatch):
        # 4 restarts of C5 need 4 * 5 * 5 * 8 = 800 bytes of Hessians; the
        # cap is lowered instead of asking for a real huge batch
        monkeypatch.setattr(lagrangian_module, "MAX_BATCH_BYTES", 800)
        with pytest.raises(InvalidInput, match="MAX_BATCH_BYTES = 800"):
            lagrangian(Pattern.cycle(5), OptConfig(restarts=5, seed=70_001, closed_forms=False))
        with pytest.raises(InvalidInput, match="MAX_BATCH_BYTES"):
            lagrangian_module._starts(5, 5, 70_001)
        cfg = OptConfig(restarts=4, seed=70_001, closed_forms=False)
        assert lagrangian(Pattern.cycle(5), cfg).restarts_used == 4

    def test_closed_forms_need_no_batch(self, monkeypatch):
        monkeypatch.setattr(lagrangian_module, "MAX_BATCH_BYTES", 0)
        assert phi(Pattern.complete_graph(3), OptConfig(seed=70_002)).value_exact == Fraction(2, 3)
        assert phi(Pattern.cycle(7), OptConfig(seed=70_002)).value_exact == Fraction(2, 7)


class TestDebugLog:
    def test_one_record_per_run_names_the_path(self, caplog):
        caplog.set_level(logging.DEBUG, logger="linkclust")
        cfg = OptConfig(restarts=4, seed=60_013)
        lagrangian(_k4_3_minus_an_edge(), cfg)
        phi(Pattern.complete_graph(3), cfg)
        lagrangian(_k4_3_pattern(), cfg)
        lagrangian(Pattern(2, 3, []), cfg)
        phi(Pattern.cycle(5), cfg)
        lagrangian(_k4_3_minus_an_edge(), cfg)  # cached: no new run
        records = [r for r in caplog.records if r.name.startswith("linkclust")]
        assert [r.levelno for r in records] == [logging.DEBUG] * 5
        numeric, closed, closed_k4_3, empty, graph = (r.getMessage() for r in records)
        assert numeric.startswith("simplex of Pattern(r=3, num_vertices=4, edges=3): ")
        assert "numeric path, 4 restarts, " in numeric
        assert closed.endswith("closed-form path, 0 restarts, 0 converged, 0 polished")
        assert closed_k4_3 == (
            "simplex of Pattern(r=3, num_vertices=4, edges=4): "
            "closed-form path, 0 restarts, 0 converged, 0 polished"
        )
        assert empty.endswith("empty path, 0 restarts, 0 converged, 0 polished")
        assert graph == (
            "maximin of Pattern(r=2, num_vertices=5, edges=5): "
            "exact-graph path, 0 restarts, 0 converged, 0 polished"
        )

    def test_cli_is_silent_by_default(self, tmp_path):
        path = tmp_path / "c5.txt"
        path.write_text(serialize_pattern(Pattern.cycle(5)))
        src = os.path.dirname(os.path.dirname(lagrangian_module.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "from linkclust.cli import main; main()",
             "lagrangian", "--pattern", str(path), "--restarts", "4"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["results"]["value"] == pytest.approx(0.25)
