"""Pattern type, weight polynomial, gradient, and twin tests."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkclust import (
    Hypergraph,
    InvalidInput,
    Pattern,
    SimplexPoint,
    has_twins,
    lagrange_eval,
    lagrange_grad,
)
from linkclust.patterns import _monomial
from helpers import interior_points
from helpers import (
    multiset_patterns,
    reference_completions,
    reference_link,
    reference_twin_pairs,
)

MULTI = Pattern(3, 2, [(0, 0, 1)])  # one edge using vertex 0 twice, vertex 1 once

FIXTURES = [
    Pattern.complete_graph(2),
    Pattern.complete_graph(4),
    Pattern.cycle(4),
    Pattern.cycle(5),
    Pattern.path(3),
    Pattern.single_edge(3),
    MULTI,
    Pattern(3, 3, [(0, 0, 1), (0, 1, 1), (1, 1, 2)]),
]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SimplexPoint([]), "a simplex point needs at least one coordinate"),
        (lambda: SimplexPoint.uniform(0), "dimension must be positive"),
        (lambda: Pattern(0, 2, []), "uniformity must be a positive integer, got 0"),
        (lambda: Pattern(2, 0, []), "vertex count must be a positive integer, got 0"),
        (lambda: Pattern.cycle(2), "a cycle pattern needs at least 3 vertices"),
        (lambda: Pattern.path(1), "a path pattern needs at least 2 vertices"),
        (lambda: Pattern.path(3).vertex_deleted(3), "vertex 3 outside [0, 3)"),
        (lambda: Pattern.path(3).vertex_deleted(-1), "vertex -1 outside [0, 3)"),
        (lambda: Pattern(2, 1, []).vertex_deleted(0), "cannot delete the only vertex"),
    ],
    ids=[
        "empty_point",
        "uniform_zero",
        "r_zero",
        "l_zero",
        "cycle_two",
        "path_one",
        "delete_above",
        "delete_negative",
        "delete_only_vertex",
    ],
)
def test_argument_refusals(make, message):
    with pytest.raises(InvalidInput) as err:
        make()
    assert type(err.value) is InvalidInput
    assert str(err.value) == message


class TestSimplexPoint:
    def test_valid(self):
        p = SimplexPoint([0.25, 0.75])
        assert p.coords == (0.25, 0.75) and len(p) == 2 and p[1] == 0.75

    def test_sum_tolerance(self):
        SimplexPoint([0.5, 0.5 + 4e-13])
        with pytest.raises(InvalidInput):
            SimplexPoint([0.5, 0.6])

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            SimplexPoint([1.2, -0.2])

    def test_normalized(self):
        p = SimplexPoint.normalized([2.0, 2.0, -1e-15])
        assert p.coords == (0.5, 0.5, 0.0)
        with pytest.raises(InvalidInput):
            SimplexPoint.normalized([0.0, 0.0])

    def test_uniform(self):
        assert SimplexPoint.uniform(4).coords == (0.25,) * 4


class TestPatternType:
    def test_edges_are_vertex_multisets(self):
        # for r = l a multiplicity vector is also a valid multiset: (1, 1)
        # is the loop at vertex 1, not the edge {0, 1}
        loop = Pattern(2, 2, [(1, 1)])
        assert loop.edges == ((1, 1),)
        assert loop.max_multiplicities() == (0, 2)
        assert Pattern(3, 2, [(1, 0, 0), (1, 1, 0)]).edges == ((0, 0, 1), (0, 1, 1))

    @pytest.mark.parametrize(
        "r, l, edges, message",
        [
            (3, 2, [(0, 1)], r"^edge \(0, 1\) has 2 vertices, expected 3$"),
            (2, 2, [(0, 2)], r"^vertex 2 outside \[0, 2\)$"),
            (2, 2, [(1, -1)], r"^vertex -1 outside \[0, 2\)$"),
            (2, 2, [(0, 1), (1, 0)], r"^duplicate edge \(0, 1\)$"),
        ],
        ids=["length", "above", "negative", "duplicate"],
    )
    def test_edges_validated(self, r, l, edges, message):
        with pytest.raises(InvalidInput, match=message):
            Pattern(r, l, edges)

    def test_from_multisets(self):
        p = Pattern.from_multisets(3, 2, [(0, 0, 1)])
        assert p == MULTI

    def test_complete_graph_on_one_vertex_has_no_edges(self):
        assert Pattern.complete_graph(1) == Pattern(2, 1, [])
        with pytest.raises(InvalidInput, match="needs at least 1 vertex"):
            Pattern.complete_graph(0)

    def test_hypergraph_round_trip(self):
        k4 = Pattern.complete_graph(4)
        assert Pattern.from_hypergraph(k4.to_hypergraph()) == k4

    def test_multiset_pattern_has_no_hypergraph_form(self):
        with pytest.raises(InvalidInput):
            MULTI.to_hypergraph()

    def test_vertex_deleted(self):
        p3 = Pattern.path(3)
        end_removed = p3.vertex_deleted(2)
        assert end_removed.edges == ((0, 1),)
        mid_removed = p3.vertex_deleted(1)
        assert mid_removed.edges == ()

    def test_structure_predicates(self):
        assert Pattern.complete_graph(3).is_complete()
        assert not Pattern.cycle(4).is_complete()
        assert Pattern.single_edge(4).is_complete()
        assert not MULTI.is_complete()
        assert not Pattern(3, 2, []).is_complete()
        assert not Pattern.from_multisets(2, 3, [(0, 0), (0, 1), (0, 2)]).is_complete()
        assert Pattern.from_multisets(1, 3, [(0,), (1,), (2,)]).is_complete() is True
        assert MULTI.max_multiplicities() == (2, 1)


class TestEval:
    def test_triangle_uniform(self):
        val = lagrange_eval(Pattern.complete_graph(3), SimplexPoint.uniform(3))
        assert val == pytest.approx(1 / 3, abs=1e-15)

    def test_single_transversal_uniform(self):
        val = lagrange_eval(Pattern.single_edge(3), SimplexPoint.uniform(3))
        assert val == pytest.approx(1 / 27, abs=1e-15)

    def test_multiset_edge_half_half(self):
        # (1/2)^2/2! * (1/2) = 1/16
        val = lagrange_eval(MULTI, SimplexPoint([0.5, 0.5]))
        assert val == pytest.approx(1 / 16, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            lagrange_eval(MULTI, SimplexPoint.uniform(3))

    def test_empty_pattern(self):
        assert lagrange_eval(Pattern(2, 3, []), SimplexPoint.uniform(3)) == 0.0


class TestGrad:
    @pytest.mark.parametrize("num", [2, 3, 4, 5])
    def test_complete_graph_uniform(self, num):
        grad = lagrange_grad(Pattern.complete_graph(num), SimplexPoint.uniform(num))
        for g in grad:
            assert g == pytest.approx(1 - 1 / num, abs=1e-14)

    def test_single_transversal_uniform(self):
        grad = lagrange_grad(Pattern.single_edge(3), SimplexPoint.uniform(3))
        assert all(g == pytest.approx(1 / 9, abs=1e-15) for g in grad)

    def test_basis_vector_reads_off_the_link(self):
        # edges {0,1} and {0,2}: at a basis vector the partial for 0 sums the
        # monomials with one copy of 0 removed
        p = Pattern.from_multisets(2, 3, [(0, 1), (0, 2)])
        grad = lagrange_grad(p, SimplexPoint([1.0, 0.0, 0.0]))
        assert grad == (0.0, 1.0, 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            lagrange_grad(MULTI, SimplexPoint.uniform(3))

    @pytest.mark.parametrize("pattern", FIXTURES, ids=repr)
    def test_matches_central_differences(self, pattern):
        h = 1e-5
        for x in interior_points(pattern.num_vertices, 25, seed=5):
            grad = lagrange_grad(pattern, tuple(x))
            for i in range(pattern.num_vertices):
                up = list(x)
                dn = list(x)
                up[i] += h
                dn[i] -= h
                fd = (lagrange_eval(pattern, up) - lagrange_eval(pattern, dn)) / (2 * h)
                rel = abs(grad[i] - fd) / max(abs(grad[i]), 1e-9)
                assert rel <= 1e-4

    @pytest.mark.parametrize("pattern", FIXTURES, ids=repr)
    def test_euler_identity(self, pattern):
        # sum_i x_i * d_i equals r times the polynomial, degree homogeneity
        for x in interior_points(pattern.num_vertices, 50, seed=11):
            lhs = math.fsum(
                xi * gi for xi, gi in zip(x, lagrange_grad(pattern, tuple(x)))
            )
            rhs = pattern.r * lagrange_eval(pattern, tuple(x))
            assert abs(lhs - rhs) <= 1e-10


class TestTwins:
    def test_even_cycle_has_twins(self):
        assert has_twins(Pattern.cycle(4))

    def test_complete_graphs_do_not(self):
        for num in (2, 3, 4, 5):
            assert not has_twins(Pattern.complete_graph(num))

    def test_odd_cycle_does_not(self):
        assert not has_twins(Pattern.cycle(5))

    def test_path_endpoints_are_twins(self):
        assert has_twins(Pattern.path(3))

    def test_multiset_twins_through_a_shared_edge(self):
        # edges {0,0,2}, {0,1,2}, {1,1,2}: vertices 0 and 1 have equal links
        p = Pattern.from_multisets(3, 3, [(0, 0, 2), (0, 1, 2), (1, 1, 2)])
        assert has_twins(p)
        # and the polynomial really only depends on x0 + x1
        a = lagrange_eval(p, (0.3, 0.2, 0.5))
        b = lagrange_eval(p, (0.1, 0.4, 0.5))
        assert a == pytest.approx(b, abs=1e-15)


@st.composite
def twin_patterns(draw):
    """Patterns with r in {2, 3} whose edges may repeat a vertex, on l <= 7
    vertices of which the last few, before a random relabeling, are isolated."""
    r = draw(st.sampled_from([2, 3]))
    l = draw(st.integers(min_value=1, max_value=7))
    used = draw(st.integers(min_value=1, max_value=l))
    pool = list(itertools.combinations_with_replacement(range(used), r))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    perm = draw(st.permutations(range(l)))
    return Pattern(r, l, [[perm[v] for v in e] for e in edges])


@settings(max_examples=300, deadline=None)
@given(twin_patterns(), st.lists(st.floats(0.01, 1.0), min_size=7, max_size=7))
def test_twin_classes_and_gradient_match_the_per_vertex_reference(pattern, weights):
    l = pattern.num_vertices
    assert pattern.links() == tuple(reference_link(pattern, i) for i in range(l))
    pairs = reference_twin_pairs(pattern)
    roots = pattern.twin_classes()
    # the classes group exactly the reference pairs, each under its least vertex
    assert {(i, j) for i, j in itertools.combinations(range(l), 2) if roots[i] == roots[j]} == set(pairs)
    assert list(roots) == [min([v] + [i for i, j in pairs if j == v]) for v in range(l)]
    assert has_twins(pattern) == bool(pairs)
    least = min(((root, v) for v, root in enumerate(roots) if root != v), default=None)
    assert least == (pairs[0] if pairs else None)
    # the partials from the one-pass links are the per-vertex sums, bit for bit
    x = tuple(w / math.fsum(weights[:l]) for w in weights[:l])
    assert lagrange_grad(pattern, x) == tuple(
        math.fsum(_monomial(x, e) for e in reference_link(pattern, i)) for i in range(l)
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(lambda r: multiset_patterns(r, 6, 30)))
def test_completions_and_degrees_match_a_direct_scan(pattern):
    r, l = pattern.r, pattern.num_vertices
    assert pattern.degrees().tolist() == [sum(v in e for e in pattern.edges) for v in range(l)]
    counts = {frozenset(Counter(e).items()) for e in pattern.edges}
    for size in range(r):
        for face in itertools.combinations_with_replacement(range(l), size):
            want = [
                c not in face
                and frozenset((Counter(face) + Counter({c: r - size})).items()) in counts
                for c in range(l)
            ]
            # a face is read in any order
            for given_face in (face, face[::-1]):
                assert np.unpackbits(pattern.completions(given_face), count=l).tolist() == want
    with pytest.raises(InvalidInput):
        pattern.completions((0,) * r)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 4])
    .flatmap(lambda r: multiset_patterns(r, 7, 40))
    .flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.integers(0, p.num_vertices - 1), max_size=p.r - 1),
        )
    )
)
def test_completions_from_the_first_vertex_link_match_the_edge_scan(drawn):
    # any face below r vertices: empty, repeating a vertex, in any order
    pattern, face = drawn
    assert pattern.completions(face).tolist() == reference_completions(pattern, face).tolist()
    assert pattern.links() is pattern.links()  # built once and kept
