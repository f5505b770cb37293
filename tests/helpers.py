"""Shared test utilities: tiny brute-force checkers and graph enumeration."""

from __future__ import annotations

import contextlib
import importlib.util
import itertools
import math
from pathlib import Path
from types import ModuleType

import numpy as np
from hypothesis import strategies as st

from linkclust import (
    Hypergraph,
    Pattern,
    contiguous_classes,
    join_construction,
    pattern_blowup,
    plant_violation,
    rng_from_seed,
)
from linkclust import oracles
from linkclust.corpus import _sample_without_replacement


def load_tool(name: str) -> ModuleType:
    """The script ``tools/<name>.py``, imported as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_parse_hypergraph(source) -> Hypergraph:
    """The reference edge-list parser: one line at a time, a tuple and a
    ``seen`` entry per edge, naming the first bad line."""
    from linkclust.formats import _content_lines, _edge_key, _hypergraph_header

    lines = _content_lines(source)
    r, n, _ = _hypergraph_header(lines)
    seen: dict[tuple[int, ...], int] = {}
    edges = [_edge_key(lineno, line, r, n, seen) for lineno, line in lines[1:]]
    return Hypergraph(r, n, edges)


def reference_blowup(pattern: Pattern, sizes) -> Hypergraph:
    """The blow-up of ``pattern`` with the given class sizes, from its edge
    set: per pattern edge, one edge per element of the ``itertools.product``
    over each class's ``combinations`` of the edge's multiplicity there."""
    starts = [0, *itertools.accumulate(sizes)]
    edges = set()
    for mult in pattern.multiplicity_matrix().tolist():
        choices = [
            itertools.combinations(range(starts[i], starts[i + 1]), m)
            for i, m in enumerate(mult)
        ]
        for pick in itertools.product(*choices):
            edges.add(tuple(sorted(itertools.chain.from_iterable(pick))))
    return Hypergraph(pattern.r, starts[-1], sorted(edges))


def reference_find_embedding(small: Hypergraph, host: Hypergraph):
    """The reference embedding search: recursive, every host vertex tried at
    every depth, one ``has_edge`` call per edge closing there.  Same order as
    ``find_embedding``: next the small vertex with the most neighbours already
    placed, then the highest degree, then the lowest index; host vertices
    ascending."""
    if small.n > host.n or len(small) > len(host):
        return None
    order: list[int] = []
    for _ in range(small.n):
        placed = [len({u for e in small if v in e for u in e} & set(order)) for v in range(small.n)]
        left = [v for v in range(small.n) if v not in order]
        order.append(min(left, key=lambda v: (-placed[v], -small.degree(v), v)))
    pos = {v: i for i, v in enumerate(order)}
    # edges of the small graph that become fully mapped at each depth
    closing: list[list[tuple[int, ...]]] = [[] for _ in order]
    for e in small:
        d = max(pos[v] for v in e)
        closing[d].append(tuple(pos[v] for v in e))
    host_degs = host.degrees()
    small_degs = [small.degree(v) for v in order]

    images = [-1] * small.n
    used = set()

    def rec(depth: int) -> bool:
        if depth == small.n:
            return True
        for w in range(host.n):
            if w in used or host_degs[w] < small_degs[depth]:
                continue
            images[depth] = w
            ok = all(
                host.has_edge(tuple(images[p] for p in e)) for e in closing[depth]
            )
            if ok:
                used.add(w)
                if rec(depth + 1):
                    return True
                used.discard(w)
        images[depth] = -1
        return False

    if rec(0):
        return {order[i]: images[i] for i in range(small.n)}
    return None


def is_valid_embedding(small: Hypergraph, host: Hypergraph, mapping: dict) -> bool:
    if len(set(mapping.values())) != small.n:
        return False
    return all(host.has_edge(tuple(mapping[v] for v in e)) for e in small)


def is_valid_coloring(host: Hypergraph, pattern: Pattern, colors) -> bool:
    """Every host edge's color multiset is a pattern edge; checked once per
    distinct multiset, so hosts with many edges stay cheap."""
    colors = np.asarray(colors, dtype=np.int64)
    if len(colors) != host.n or ((colors < 0) | (colors >= pattern.num_vertices)).any():
        return False
    if not len(host):
        return True
    allowed = set(map(tuple, pattern.multiplicity_matrix().tolist()))
    for row in np.unique(np.sort(colors[host.edge_array], axis=1), axis=0).tolist():
        vec = [0] * pattern.num_vertices
        for c in row:
            vec[c] += 1
        if tuple(vec) not in allowed:
            return False
    return True


def brute_force_homomorphism(host: Hypergraph, pattern: Pattern, surjective: bool = False):
    """The lexicographically first of all k**n color lists that sends every
    host edge onto a pattern edge (and hits every color, if ``surjective``),
    or None."""
    k = pattern.num_vertices
    allowed = {
        tuple(c for c, m in enumerate(e) for _ in range(m))
        for e in pattern.multiplicity_matrix().tolist()
    }
    edges = host.edge_list()
    for colors in itertools.product(range(k), repeat=host.n):
        if surjective and len(set(colors)) < k:
            continue
        if all(tuple(sorted(colors[v] for v in e)) in allowed for e in edges):
            return list(colors)
    return None


def coloring_instance(num_colors: int, seed: int):
    """A complete-multipartite-based instance meeting the strict degree
    precondition by construction; odd seeds get a planted internal edge."""
    rng = rng_from_seed(seed)
    n = int(rng.integers(20, 81))
    l = num_colors
    min_req = (3 * l - 4) * n // (3 * l - 1) + 1
    if n - math.ceil(n / l) < min_req:
        # balanced bases off a multiple of l can miss the strict bound;
        # multiples always satisfy it
        n = (n // l) * l
        min_req = (3 * l - 4) * n // (3 * l - 1) + 1
    q, s = divmod(n, l)
    sizes = [q + 1 if i < s else q for i in range(l)]
    # optionally unbalance by one vertex while keeping the degree budget
    if rng.integers(2) and n - (max(sizes) + 1) >= min_req and min(sizes) > 2:
        sizes[sizes.index(min(sizes))] -= 1
        sizes[sizes.index(max(sizes))] += 1
    base = pattern_blowup(Pattern.complete_graph(l), sizes)
    budget = (n - max(sizes)) - min_req
    drop = int(rng.integers(0, max(budget, 0) + 1)) if budget > 0 else 0
    drop = min(drop, 10)
    host = base
    if drop:
        pick = _sample_without_replacement(rng, len(base), drop)
        keep = np.setdiff1d(np.arange(len(base)), pick, assume_unique=True)
        host = Hypergraph(2, n, base.edge_array[keep])
    if seed % 2 == 1:
        host = plant_violation(host, contiguous_classes(sizes), int(rng.integers(2**32)))
    return host


@st.composite
def multiset_patterns(draw, r: int, max_vertices: int, max_edges: int) -> Pattern:
    """Patterns of uniformity ``r`` on at most ``max_vertices`` vertices with
    at most ``max_edges`` edges, each of which may repeat a vertex."""
    l = draw(st.integers(min_value=1, max_value=max_vertices))
    pool = list(itertools.combinations_with_replacement(range(l), r))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=min(max_edges, len(pool))))
    return Pattern(r, l, edges)


def brute_force_embeddings(small: Pattern, host: Pattern):
    """Every injective map of the vertices of ``small`` into those of
    ``host`` under which each edge of ``small`` is an edge of ``host``, as
    tuples of images."""
    allowed = set(host.edges)
    for images in itertools.permutations(range(host.num_vertices), small.num_vertices):
        if all(tuple(sorted(images[v] for v in e)) in allowed for e in small.edges):
            yield images


def reference_twin_before(multisets, k: int) -> list[int]:
    """``oracles._twin_before`` by remapping every tuple for every pair."""
    edges = set(multisets)
    before = [-1] * k
    for j in range(k):
        for i in range(j - 1, -1, -1):
            swap = {i: j, j: i}
            if all(tuple(sorted(swap.get(v, v) for v in e)) in edges for e in edges):
                before[j] = i
                break
    return before


def aes_host(l: int, s: int) -> Hypergraph:
    """The Andrasfai-Erdos-Sos extremal host: the C5 blow-up with parts of
    size s joined to l - 2 parts of size 3s.  K_{l+1}-free, not
    l-colorable, with minimum degree exactly (3l-4)/(3l-1) of its
    (3l-1)s vertices; almost all of its vertices are twins."""
    host = pattern_blowup(Pattern.cycle(5), (s,) * 5)
    return join_construction(host, l - 2, 3 * s) if l > 2 else host


def erdos_renyi(n: int, p: float, seed: int, r: int = 2) -> Hypergraph:
    """The random r-graph on n vertices keeping each r-set with probability p."""
    rng = rng_from_seed(seed)
    edges = [e for e in itertools.combinations(range(n), r) if rng.random() < p]
    return Hypergraph(r, n, edges)


class CountingDeadline(oracles._Deadline):
    """The oracles' search deadline, keeping every instance made so that a
    test can read a search's tick count, which does not depend on the
    machine.  Patch it in with :func:`count_ticks`."""

    made: list["CountingDeadline"] = []

    def __init__(self, budget_s):
        super().__init__(budget_s)
        self.made.append(self)


def count_ticks(monkeypatch, search, *args, **kwargs):
    """Run the oracle ``search`` under a :class:`CountingDeadline`; return its
    result and the ticks it took."""
    monkeypatch.setattr(oracles, "_Deadline", CountingDeadline)
    CountingDeadline.made.clear()
    result = search(*args, **kwargs)
    (deadline,) = CountingDeadline.made
    return result, deadline.ticks


def graphs_up_to_iso(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All graphs on exactly n labeled vertices, one per isomorphism class."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        canon = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
            for p in perms
        )
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


def brute_force_max_edges_without(small: Hypergraph, n: int) -> int:
    """Maximum edge count of an n-vertex graph avoiding ``small`` entirely,
    by exhaustive enumeration (tiny n only)."""
    from linkclust import find_embedding

    pairs = list(itertools.combinations(range(n), 2))
    best = 0
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if len(edges) <= best:
            continue
        g = Hypergraph(2, n, edges)
        if find_embedding(small, g) is None:
            best = len(edges)
    return best


def interior_points(dim: int, count: int, seed: int) -> np.ndarray:
    rng = rng_from_seed(seed)
    return rng.dirichlet(np.full(dim, 1.5), size=count)


# -- reference twins ------------------------------------------------------------
# The links one vertex at a time and the twins as a list of every pair: the
# direct definitions that the one-pass links and twin classes must match.


def reference_link(pattern: Pattern, i: int) -> tuple[tuple[int, ...], ...]:
    """The edges using vertex ``i``, each with one copy of ``i`` removed."""
    out = []
    for e in pattern.edges:
        if i in e:
            k = e.index(i)
            out.append(e[:k] + e[k + 1 :])
    return tuple(sorted(out))


def reference_completions(pattern: Pattern, face) -> np.ndarray:
    """:meth:`Pattern.completions` by a scan of every edge for the face."""
    face = tuple(face)
    fill = pattern.r - len(face)
    bits = np.zeros(pattern.num_vertices, dtype=bool)
    for e in pattern.edges:
        for c in set(e).difference(face):
            bits[c] |= e == tuple(sorted(face + (c,) * fill))
    return np.packbits(bits)


def reference_twin_pairs(pattern: Pattern) -> list[tuple[int, int]]:
    """All pairs ``i < j`` of vertices whose links are identical, in
    increasing order."""
    links = [reference_link(pattern, i) for i in range(pattern.num_vertices)]
    out = []
    for i in range(pattern.num_vertices):
        for j in range(i + 1, pattern.num_vertices):
            if links[i] == links[j]:
                out.append((i, j))
    return out


# -- reference signature verdict ------------------------------------------------
# The count-matrix implementation the deciders used before signatures became
# codes of sorted label tuples: an (m, l) class-count matrix, its distinct
# rows, and a linear search for the shortest unmatchable prefix.


def _reference_edge_signatures(hypergraph: Hypergraph, labels, num_classes: int):
    m = len(hypergraph)
    if m == 0:
        return np.zeros((0, num_classes), dtype=np.int64), np.zeros(0, dtype=np.int64)
    lab = labels[hypergraph.edge_array]
    counts = np.zeros((m, num_classes), dtype=np.int64)
    rows = np.arange(m)
    for j in range(hypergraph.r):
        np.add.at(counts, (rows, lab[:, j]), 1)
    distinct, inverse = np.unique(counts, axis=0, return_inverse=True)
    reps = np.full(distinct.shape[0], m, dtype=np.int64)
    np.minimum.at(reps, inverse, rows)
    return distinct, reps


def _reference_match(distinct: np.ndarray, pattern: Pattern):
    allowed = set(map(tuple, pattern.multiplicity_matrix().tolist()))
    num = pattern.num_vertices
    active = sorted({int(c) for sig in distinct for c in np.nonzero(sig)[0]})
    sigs = [tuple(int(x) for x in sig) for sig in distinct]
    assignment: dict[int, int] = {}

    def feasible() -> bool:
        for sig in sigs:
            ok = False
            for a in allowed:
                if all(a[img] >= sig[c] for c, img in assignment.items()):
                    ok = True
                    break
            if not ok:
                return False
        return True

    def complete() -> bool:
        for sig in sigs:
            target = [0] * num
            leftover = 0
            for c, count in enumerate(sig):
                if count == 0:
                    continue
                if c in assignment:
                    target[assignment[c]] = count
                else:
                    leftover += count
            if leftover:
                return False  # unreachable: every active cluster is assigned
            if tuple(target) not in allowed:
                return False
        return True

    def search(i: int) -> bool:
        if i == len(active):
            return complete()
        for img in range(num):
            if img in assignment.values():
                continue
            assignment[active[i]] = img
            if feasible() and search(i + 1):
                return True
            del assignment[active[i]]
        return False

    if len(active) > num:
        return None
    if not search(0):
        return None
    leftover_imgs = [p for p in range(num) if p not in assignment.values()]
    for c in range(num):
        if c not in assignment:
            assignment[c] = leftover_imgs.pop(0)
    return assignment


def reference_signature_verdict(hypergraph: Hypergraph, pattern: Pattern, labels):
    """(relabeled labels, None) or (None, violating edge), as the deciders'
    ``_signature_verdict`` returns them, by the count-matrix method."""
    num = pattern.num_vertices
    distinct, reps = _reference_edge_signatures(hypergraph, labels, num)
    allowed_profiles = {
        tuple(sorted(x for x in e if x)) for e in pattern.multiplicity_matrix().tolist()
    }
    bad = [
        int(reps[i])
        for i in range(distinct.shape[0])
        if tuple(sorted(int(x) for x in distinct[i] if x)) not in allowed_profiles
    ]
    if bad:
        return None, tuple(int(v) for v in hypergraph.edge_array[min(bad)])
    mapping = _reference_match(distinct, pattern)
    if mapping is None:
        order = np.argsort(reps)
        for t in range(1, len(order) + 1):
            if _reference_match(distinct[order[:t]], pattern) is None:
                idx = int(reps[order[t - 1]])
                return None, tuple(int(v) for v in hypergraph.edge_array[idx])
        raise AssertionError("unmatchable signature set had no bad prefix")
    remap = np.zeros(num, dtype=np.int64)
    for cluster, img in mapping.items():
        remap[cluster] = img
    return remap[labels], None


# -- reference polynomial evaluator ----------------------------------------------
# The evaluator the optimizer used before the power table and index plans:
# each monomial as the product over all coordinates of X ** M, each partial
# summed by numpy (boolean column selection for the gradient, one += per
# term for the Hessian).


class _ReferenceCalc:
    def __init__(self, pattern: Pattern):
        self.dim = pattern.num_vertices
        M = pattern.multiplicity_matrix().astype(np.float64)
        coeffs = pattern.monomial_coeffs()
        self._M = M
        self._c = coeffs
        g_rows, g_cols, g_coef = [], [], []
        h_rows, h_idx, h_coef = [], [], []
        for e in range(M.shape[0]):
            for k in range(self.dim):
                if M[e, k] >= 1:
                    row = M[e].copy()
                    row[k] -= 1
                    g_rows.append(row)
                    g_cols.append(k)
                    g_coef.append(coeffs[e] * M[e, k])
                    for k2 in range(self.dim):
                        if row[k2] >= 1:
                            row2 = row.copy()
                            row2[k2] -= 1
                            h_rows.append(row2)
                            h_idx.append((k, k2))
                            h_coef.append(coeffs[e] * M[e, k] * row[k2])
        self._g_rows = np.array(g_rows, dtype=np.float64).reshape(-1, self.dim)
        self._g_cols = np.array(g_cols, dtype=np.int64)
        self._g_coef = np.array(g_coef, dtype=np.float64)
        self._h_rows = np.array(h_rows, dtype=np.float64).reshape(-1, self.dim)
        self._h_idx = np.array(h_idx, dtype=np.int64).reshape(-1, 2)
        self._h_coef = np.array(h_coef, dtype=np.float64)

    def value(self, X: np.ndarray) -> np.ndarray:
        if self._M.shape[0] == 0:
            return np.zeros(X.shape[0])
        mono = np.prod(X[:, None, :] ** self._M[None, :, :], axis=2)
        return mono @ self._c

    def grad(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((X.shape[0], self.dim))
        if self._g_rows.shape[0] == 0:
            return out
        terms = np.prod(X[:, None, :] ** self._g_rows[None, :, :], axis=2)
        terms *= self._g_coef[None, :]
        for k in range(self.dim):
            sel = self._g_cols == k
            if np.any(sel):
                out[:, k] = terms[:, sel].sum(axis=1)
        return out

    def hess(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((X.shape[0], self.dim, self.dim))
        if self._h_rows.shape[0] == 0:
            return out
        terms = np.prod(X[:, None, :] ** self._h_rows[None, :, :], axis=2)
        terms *= self._h_coef[None, :]
        for t in range(self._h_idx.shape[0]):
            k, k2 = self._h_idx[t]
            out[:, k, k2] += terms[:, t]
        return out


def reference_calc(pattern: Pattern) -> _ReferenceCalc:
    """Value, gradient and Hessian evaluator with ``value``, ``grad`` and
    ``hess`` methods, computed the direct way."""
    return _ReferenceCalc(pattern)


# -- reference optimizer driver ----------------------------------------------------
# The simplex optimizer as it ran before its stages were batched: an ascent
# that evaluates the objective at every trial point and its gradient again at
# every accepted one, a Newton polish of one restart at a time with a
# single-row evaluation and solve per step, and witness selection by Python
# comparisons.  It shares the evaluator, the starts, the projection, the
# closed forms and the tolerances with ``linkclust.lagrangian``.


def _reference_ascend(value_fn, grad_fn, X, max_iter):
    from linkclust.lagrangian import GRAD_TOL, STEP_INIT, _project_rows

    R = X.shape[0]
    step = np.full(R, STEP_INIT)
    f = value_fn(X)
    converged = np.zeros(R, dtype=bool)
    for _ in range(max_iter):
        G = grad_fn(X)
        Y = _project_rows(X + step[:, None] * G)
        fY = value_fn(Y)
        disp = np.max(np.abs(Y - X), axis=1)
        converged |= disp <= GRAD_TOL * np.maximum(step, 1e-300)
        better = fY > f
        X = np.where(better[:, None], Y, X)
        f = np.where(better, fY, f)
        step = np.where(better, np.minimum(step * 1.25, 4.0), step * 0.5)
        converged |= step < 1e-13
        if converged.all():
            break
    return X, converged


def _reference_stages(calc, which):
    from linkclust.lagrangian import MAX_ITER, SOFTMIN_BETAS

    if which == 0:
        return [(calc.value, calc.grad, MAX_ITER)]
    stages = []
    for beta in SOFTMIN_BETAS:

        def value_fn(Z, b=beta):
            g = calc.grad(Z)
            m = g.min(axis=1)
            return m - np.log(np.exp(-b * (g - m[:, None])).sum(axis=1)) / b

        def grad_fn(Z, b=beta):
            g, H = calc.grad_hess(Z)
            w = np.exp(-b * (g - g.min(axis=1, keepdims=True)))
            w /= w.sum(axis=1, keepdims=True)
            return np.einsum("rk,rkj->rj", w, H)

        stages.append((value_fn, grad_fn, MAX_ITER // len(SOFTMIN_BETAS)))
    return stages


def _reference_feasible(x):
    if np.min(x) < -1e-9:
        return None
    x = np.maximum(x, 0.0)
    s = x.sum()
    if s <= 0 or abs(s - 1.0) > 1e-6:
        return None
    return x / s


def reference_newton(calc, x, support, active):
    """Newton on one row: the ``active`` partials equal, the ``support``
    coordinates sum to one.  Returns (last iterate, solved)."""
    a, s = len(active), len(support)
    y = x[support]
    solved = False
    for _ in range(40):
        full = np.zeros_like(x)
        full[support] = y
        g, H = calc.grad_hess(full[None, :])
        g, H = g[0][active], H[0][np.ix_(active, support)]
        F = np.concatenate([g - g.mean(), [y.sum() - 1.0]])
        if np.max(np.abs(F)) < 1e-13:
            solved = True
            break
        J = np.zeros((a + 1, s + 1))
        J[:a, :s] = H
        J[:a, s] = -1.0
        J[a, :s] = 1.0
        try:
            if a == s:
                delta = np.linalg.solve(J, -F)
            else:
                delta, *_ = np.linalg.lstsq(J, -F, rcond=None)
        except np.linalg.LinAlgError:
            delta, *_ = np.linalg.lstsq(J, -F, rcond=None)
        if not np.all(np.isfinite(delta)) or np.max(np.abs(delta)) > 10.0:
            break
        y = y + delta[:s]
        if np.min(y) < -1e-6:
            break
    full = np.zeros_like(x)
    full[support] = y
    return full, solved


def reference_polish_face_max(calc, x):
    """One row's face polish, or None."""
    support = np.nonzero(x > 1e-9)[0]
    full, solved = reference_newton(calc, x, support, support)
    return _reference_feasible(full) if solved else None


def reference_polish_maximin(calc, x):
    """One row's maximin polish at both active tolerances, or None."""
    g0 = calc.grad(x[None, :])[0]
    support = np.nonzero(x > 1e-9)[0]
    best = None
    for active_tol in (1e-8, 1e-4):
        active = np.nonzero(g0 <= g0.min() + active_tol)[0]
        cand = _reference_feasible(reference_newton(calc, x, support, active)[0])
        if cand is not None:
            val = calc.grad(cand[None, :])[0].min()
            if best is None or val > best[0]:
                best = (val, cand)
    return None if best is None else best[1]


def reference_select(candidates, score):
    """(best score, its point, witnesses) by sorting and Python comparisons."""
    from linkclust.lagrangian import VALUE_WINDOW, WITNESS_TOL

    scored = sorted(
        ((score(c), tuple(float(v) for v in c)) for c in candidates),
        key=lambda t: (-t[0], t[1]),
    )
    best_val, best_arg = scored[0]
    witnesses = []
    for val, arg in scored:
        if val < best_val - VALUE_WINDOW:
            break
        if all(max(abs(a - b) for a, b in zip(arg, w)) > WITNESS_TOL for w in witnesses):
            witnesses.append(arg)
    return best_val, best_arg, witnesses


@contextlib.contextmanager
def numeric_path():
    """Send every pattern with an edge through the numeric optimizer inside
    the block, as if it had no exact record (``lagrangian._exact`` answers
    None).  An edgeless pattern keeps its record: the optimizer has nothing
    to climb there, and never ran on one.

    ``_optimize``'s cache is cleared on entry and on exit, since exact and
    numeric runs share its keys.  The cached driver is held here, so the
    clearing holds even when a test swaps ``_optimize`` inside the block.
    """
    module = importlib.import_module("linkclust.lagrangian")
    optimize, exact = module._optimize, module._exact
    optimize.cache_clear()
    module._exact = lambda pattern: None if pattern.edges else exact(pattern)
    try:
        yield
    finally:
        module._exact = exact
        optimize.cache_clear()


def reference_optimize(pattern, cfg, which):
    """Drop-in for ``linkclust.lagrangian._optimize`` (uncached) built on the
    per-row references above; ``which`` 0 is λ, 1 is φ."""
    from linkclust import NumericFailure, OptReport, SimplexPoint
    from linkclust.lagrangian import _Calc, _exact, _starts
    from linkclust.patterns import lagrange_eval, lagrange_grad

    exact = _exact(pattern)
    if exact is not None:
        point = SimplexPoint(float(c) for c in exact.points[which])
        return OptReport(float(exact.values[which]), point, 0, True, (point,), exact.values[which])
    calc = _Calc(pattern)
    X = _starts(pattern.num_vertices, cfg.seed)
    for value_fn, grad_fn, max_iter in _reference_stages(calc, which):
        X, conv = _reference_ascend(value_fn, grad_fn, X, max_iter)
    polish = reference_polish_maximin if which else reference_polish_face_max
    polished = [p for p in (polish(calc, x) for x in X) if p is not None]
    if which:
        score = lambda c: min(lagrange_grad(pattern, c))  # noqa: E731
    else:
        score = lambda c: lagrange_eval(pattern, c)  # noqa: E731
    best_val, best_arg, witnesses = reference_select([*X, *polished], score)
    if not (bool(conv.any()) or polished):
        name = ("simplex", "maximin")[which]
        raise NumericFailure(f"{name} ascent did not converge", best_val)
    return OptReport(
        value=best_val,
        argmax=SimplexPoint.normalized(best_arg),
        restarts_used=X.shape[0],
        converged=True,
        witness_set=tuple(SimplexPoint.normalized(w) for w in witnesses),
        value_exact=None,
    )
