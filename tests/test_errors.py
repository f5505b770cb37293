"""The integer rule of ``errors``: every count a public entry point takes is
an integer, checked by one rule, and is never truncated or rounded."""

import numpy as np
import pytest

from linkclust import (
    Hypergraph,
    InvalidInput,
    OptConfig,
    Partition,
    Pattern,
    SimplexPoint,
    balanced_sizes,
    bench,
    catalog,
    contiguous_classes,
    delete_random_edges,
    join_construction,
    lagrangian_grid,
    pattern_blowup,
    phi_grid,
    rng_from_seed,
    turan_classes,
    turan_graph,
    turan_number,
)
from linkclust.errors import _integer

C5 = Pattern.cycle(5)
T93 = turan_graph(9, 3)


@pytest.mark.parametrize(
    "make, message",
    [
        # each of these read the count as a truncated or rounded integer
        (lambda: pattern_blowup(C5, [2.7] * 5), "class size must be an integer, got 2.7"),
        (lambda: turan_graph(10.5, 3), "vertex count must be an integer, got 10.5"),
        (lambda: balanced_sizes(10.5, 3), "vertex count must be an integer, got 10.5"),
        (lambda: turan_number(10.5, 3), "vertex count must be an integer, got 10.5"),
        (lambda: turan_number(10, 2.5), "part count must be an integer, got 2.5"),
        (
            lambda: catalog("complete_blowup", n=3, t=2.5),
            "class size must be an integer, got 2.5",
        ),
        (lambda: C5.vertex_deleted(1.5), "vertex 1.5 outside [0, 5)"),
        (lambda: T93.induced([0, 1.5]), "the subset has a value"),
        (lambda: bench("kcolor", [60.9]), "size must be an integer, got 60.9"),
        # each of these leaked a TypeError, or failed later
        (lambda: contiguous_classes([2.5, 2]), "class size must be an integer, got 2.5"),
        (lambda: turan_classes(10.5, 3), "vertex count must be an integer, got 10.5"),
        (lambda: delete_random_edges(T93, 2.5, 0), "edge count must be an integer, got 2.5"),
        (
            lambda: join_construction(catalog("cycle", k=5), 1.5, 2),
            "added part count must be an integer, got 1.5",
        ),
        (
            lambda: join_construction(catalog("cycle", k=5), 1, 2.5),
            "part size must be an integer, got 2.5",
        ),
        (lambda: Pattern.complete_graph(2.5), "vertex count must be an integer, got 2.5"),
        (lambda: Pattern.cycle(5.5), "cycle length must be an integer, got 5.5"),
        (lambda: Pattern.path(2.5), "vertex count must be an integer, got 2.5"),
        (lambda: Pattern.single_edge(2.5), "uniformity must be a positive integer, got 2.5"),
        (lambda: lagrangian_grid(C5, 2.5), "grid resolution must be an integer, got 2.5"),
        (lambda: phi_grid(C5, 2.5), "grid resolution must be an integer, got 2.5"),
        (lambda: OptConfig(seed="1"), "the optimizer seed must be an integer, got '1'"),
        (
            lambda: T93.label_signatures(np.arange(9) % 3, 2.5),
            "class count must be an integer, got 2.5",
        ),
        (
            lambda: T93.first_repeating_edge(np.arange(9) % 3, 2.5),
            "class count must be an integer, got 2.5",
        ),
        (lambda: SimplexPoint.uniform(2.5), "dimension must be an integer, got 2.5"),
    ],
    ids=[
        "blowup-sizes",
        "turan-graph",
        "balanced-sizes",
        "turan-number-n",
        "turan-number-parts",
        "catalog-blowup-factor",
        "vertex-deleted",
        "induced",
        "bench-size",
        "contiguous-classes",
        "turan-classes",
        "delete-edges",
        "join-parts",
        "join-part-size",
        "complete-graph",
        "cycle",
        "path",
        "single-edge",
        "lagrangian-grid",
        "phi-grid",
        "optimizer-seed",
        "label-signatures",
        "first-repeating-edge",
        "uniform-simplex-point",
    ],
)
def test_a_count_that_is_not_an_integer_is_refused(make, message):
    with pytest.raises(InvalidInput) as err:
        make()
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: balanced_sizes(-1.5, 3), "need n >= 0 and parts >= 1, got n = -1.5 and parts = 3"),
        (lambda: turan_number(-1.5, 3), "need n >= 0 and parts >= 1"),
        (lambda: turan_graph(2.5, 3), "need n >= parts >= 1"),
        (lambda: Pattern.complete_graph(0.5), "a complete graph pattern needs at least 1 vertex"),
        (lambda: Pattern.cycle(2.5), "a cycle pattern needs at least 3 vertices"),
        (lambda: C5.vertex_deleted(-0.5), "vertex -0.5 outside [0, 5)"),
        (lambda: lagrangian_grid(C5, 0.5), "grid resolution must be at least 1"),
        (lambda: delete_random_edges(T93, -0.5, 0), "cannot delete -0.5 edges from a hypergraph with 27"),
        (lambda: join_construction(catalog("cycle", k=5), 0.5, 2), "need at least one added part"),
    ],
    ids=[
        "balanced-sizes",
        "turan-number",
        "turan-graph",
        "complete-graph",
        "cycle",
        "vertex-deleted",
        "grid",
        "delete-edges",
        "join",
    ],
)
def test_a_number_out_of_range_keeps_its_range_message(make, message):
    # the range test runs before the integer rule where it refused numbers
    with pytest.raises(InvalidInput) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: balanced_sizes("10", 3), "vertex count must be an integer, got '10'"),
        (lambda: balanced_sizes(10, None), "part count must be an integer, got None"),
        (lambda: turan_number("10", 3), "vertex count must be an integer, got '10'"),
        (lambda: turan_graph(10, "3"), "part count must be an integer, got '3'"),
        (lambda: turan_graph(None, 3), "vertex count must be an integer, got None"),
        (lambda: Pattern.complete_graph("3"), "vertex count must be an integer, got '3'"),
        (lambda: Pattern.cycle(None), "cycle length must be an integer, got None"),
        (lambda: Pattern.path("3"), "vertex count must be an integer, got '3'"),
        (lambda: SimplexPoint.uniform("3"), "dimension must be an integer, got '3'"),
        (lambda: delete_random_edges(T93, "1", 0), "edge count must be an integer, got '1'"),
        (
            lambda: join_construction(catalog("cycle", k=5), "1", 2),
            "added part count must be an integer, got '1'",
        ),
        (
            lambda: join_construction(catalog("cycle", k=5), 1, None),
            "part size must be an integer, got None",
        ),
        (lambda: lagrangian_grid(C5, "3"), "grid resolution must be an integer, got '3'"),
        (lambda: phi_grid(C5, None), "grid resolution must be an integer, got None"),
    ],
    ids=[
        "balanced-sizes-n",
        "balanced-sizes-parts",
        "turan-number",
        "turan-graph-parts",
        "turan-graph-n",
        "complete-graph",
        "cycle",
        "path",
        "uniform-simplex-point",
        "delete-edges",
        "join-parts",
        "join-part-size",
        "lagrangian-grid",
        "phi-grid",
    ],
)
def test_a_string_or_none_is_refused_before_the_range_test(make, message):
    # each of these leaked the comparison's TypeError
    with pytest.raises(InvalidInput) as err:
        make()
    assert str(err.value) == message


def test_a_mixed_list_names_its_own_value():
    # the array made of [0, 1.5] holds 0.0, which is not the bad value
    with pytest.raises(InvalidInput) as err:
        Partition([[0, 1.5]], 2)
    assert str(err.value) == "class 0 has a value 1.5 that is not an integer"
    with pytest.raises(InvalidInput) as err:
        T93.induced([0, "1"])
    assert str(err.value) == "the subset has a value '1' that is not an integer"


def test_numpy_bools_count_as_python_bools_do():
    assert Hypergraph(np.int64(2), np.True_, []) == Hypergraph(2, True, [])
    assert Pattern(np.True_, 2, [(0,), (1,)]) == Pattern(True, 2, [(0,), (1,)])
    assert Partition([[0]], np.True_) == Partition([[0]], True)
    assert Partition.from_labels([0, 0], np.True_) == Partition.from_labels([0, 0], True)
    assert T93.degree(np.True_) == T93.degree(True)
    seeded = rng_from_seed(np.True_).integers(2**32, size=4)
    assert np.array_equal(seeded, rng_from_seed(True).integers(2**32, size=4))


def test_a_bool_label_array_reads_as_zeros_and_ones():
    bools = np.arange(9) < 3
    ints = bools.astype(np.int64)
    assert T93.first_repeating_edge(bools, 2) == T93.first_repeating_edge(ints, 2)
    for got, want in zip(T93.label_signatures(bools, 2), T93.label_signatures(ints, 2)):
        assert np.array_equal(got, want)
    assert Partition.from_labels(bools, 2) == Partition.from_labels(ints, 2)


@pytest.mark.parametrize(
    "low, kind, below",
    [(None, "an integer", ()), (0, "a nonnegative integer", (-1,)), (1, "a positive integer", (0,)),
     (2, "an integer >= 2", (1, np.False_))],
)
def test_the_integer_rule_names_its_bound(low, kind, below):
    for value in (2.0, "2", None, *below):
        with pytest.raises(InvalidInput) as err:
            _integer(value, "the count", low)
        assert str(err.value) == f"the count must be {kind}, got {value!r}"


def test_every_integer_kind_is_returned_as_an_int():
    for value in (5, True, np.int8(5), np.uint64(5), np.True_):
        got = _integer(value, "the count")
        assert got == value and type(got) is int
