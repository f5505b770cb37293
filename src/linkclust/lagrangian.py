"""Simplex optimization layer for patterns.

Computes the maximum λ of a pattern's weight polynomial over the probability
simplex, the maximin φ of its partial derivatives, and the minimality and
rigidity certificates derived from them.  Both values come from one driver,
:func:`_optimize`: the uniform point plus Dirichlet samples, all restarts
batched as rows of a numpy array, climb by projected-gradient ascent in
stages, are polished together by Newton steps (the rows on one face share
each step's evaluation and stacked solve), and the best candidate wins.
The two problems differ only in what they pass: λ climbs the polynomial in
one stage and polishes on a face of the simplex; φ climbs a soft minimum of
the partials with annealed sharpness (one stage per sharpness) and polishes
on the active set of the least partials.

Every value, gradient and Hessian comes from :class:`_Calc`: monomials are
products of gathered columns of one power table per call, and partials are
summed in term order by index plans fixed at construction.

Each pattern has one calibration path.  Four kinds of pattern never reach
the numerics and get exact rational records (:func:`_exact`), so the
deciders built on them are float-free: edgeless patterns, every pattern
with r = 1 (a linear polynomial), complete r-graphs K_l^(r) through one
closed form, and every pattern with r = 2 (graphs, loops allowed) through
Motzkin–Straus for λ and an exact matrix-game LP for φ and rigidity.  Only
patterns with r >= 3 that have edges and are not complete are certified
numerically, and their reports say so.

Only the seed is an option (:class:`OptConfig`).  The restart count,
iteration budget, step size and tolerances below are fixed: they are tuned
together, the minimality and rigidity verdicts are read against them, and
nothing calls for other values.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import InvalidInput, NumericFailure, _integer
from .patterns import Pattern, SimplexPoint, lagrange_eval, lagrange_grad

__all__ = [
    "OptConfig",
    "OptReport",
    "MinimalityReport",
    "RigidityReport",
    "lagrangian",
    "phi",
    "is_minimal",
    "rigidity_report",
]

_NUMERICAL_NOTE = "numerical estimate, not a proof"
_EXACT_NOTE = "exact rational result"
_log = logging.getLogger(__name__)
_RUN_RECORD = "%s of %r: %s path, %d restarts, %d converged, %d polished"

# Starting points of a numeric run: the uniform point and RESTARTS - 1
# Dirichlet samples.
RESTARTS = 64
# Ascent: iterations in all (the φ stages share them equally), the first
# step length, and the displacement per unit step under which a row counts
# as converged.
MAX_ITER = 10_000
STEP_INIT = 0.25
GRAD_TOL = 1e-10
# Sharpness of the soft minimum in the successive φ stages.
SOFTMIN_BETAS = (16.0, 128.0, 1024.0, 8192.0)
# Candidates within VALUE_WINDOW of the best value are optimal; those more
# than WITNESS_TOL apart (max norm) are distinct witnesses.
VALUE_WINDOW = 1e-9
WITNESS_TOL = 1e-6
# Minimality: every vertex deletion must drop λ by more than STRICT_GAP.
STRICT_GAP = 1e-7
# Rigidity: every witness coordinate above POS_GAP, every partial within TOL
# of φ.
POS_GAP = 1e-6
TOL = 1e-6
# The largest batch of restart Hessians (RESTARTS x dim x dim floats) a run
# may ask for, the cap ``Hypergraph`` puts on its vertex tables.
MAX_BATCH_BYTES = 1 << 30


@dataclass(frozen=True)
class OptConfig:
    """Options of the simplex optimizer.

    ``seed`` draws the Dirichlet starting points of a numeric run, so it
    serves only the patterns with no exact record (:func:`_exact`).  The
    restart count and the tolerances are the module constants above.  A
    seed that is not an integer, or is below 0, is refused with
    :class:`InvalidInput`; so is a ``cfg`` that is not an ``OptConfig``, by
    every entry point of this module.
    """

    seed: int = 1729

    def __post_init__(self) -> None:
        if _integer(self.seed, "the optimizer seed") < 0:
            raise InvalidInput(f"the optimizer seed must be nonnegative, got {self.seed}")


def _opt_config(cfg: OptConfig, what: str = "cfg") -> OptConfig:
    """``cfg``, refused with :class:`InvalidInput` unless it is an
    :class:`OptConfig`; ``what`` names it in the message."""
    if not isinstance(cfg, OptConfig):
        raise InvalidInput(f"{what} must be an OptConfig, got {cfg!r}")
    return cfg


@dataclass(frozen=True)
class OptReport:
    """Result of one simplex optimization run.  ``converged`` is always True:
    a run that converges nowhere raises :class:`NumericFailure` instead."""

    value: float
    argmax: SimplexPoint
    restarts_used: int
    converged: bool
    witness_set: tuple[SimplexPoint, ...]
    value_exact: Optional[Fraction] = None


@dataclass(frozen=True)
class MinimalityReport:
    minimal: bool
    margin: float
    gaps: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.minimal


@dataclass(frozen=True)
class RigidityReport:
    """Rigidity classification of a pattern.

    ``maximin`` is the best guaranteed level of all partials, ``smallest_
    coordinate`` the least coordinate over the optimal set (seen across the
    sampled optimal set when numerical).  ``certificate`` describes the
    obstruction when ``rigid`` is false.  ``witness_set`` is the maximin
    run's witnesses, plus, when the pattern has twins, the first of them
    slid along the least twin pair only.  ``note`` says whether the result
    is exact.
    """

    maximin: float
    smallest_coordinate: float
    rigid: bool
    certificate: Optional[dict]
    witness_set: tuple[SimplexPoint, ...]
    maximin_exact: Optional[Fraction] = None
    smallest_exact: Optional[Fraction] = None
    note: str = field(default=_NUMERICAL_NOTE)


# -- batched polynomial evaluation ------------------------------------------


class _Calc:
    """Batched value, gradient and Hessian of a pattern's weight polynomial.

    A call raises X to the powers 0..max multiplicity once, in one power
    table.  Each monomial is a row of at most r table columns (its factors
    in vertex order, padded with power 0), multiplied left to right: the
    pow calls and product order of ``prod(X ** M)``, so the terms keep their
    bits.  Each partial sums its terms in term order, one column of an
    index plan (padded with a zero term) at a time from zero: the order of
    ``terms[:, sel].sum(axis=1)`` on two or more rows.  On one row numpy
    sums 8 or more terms pairwise, so there a partial that long (K7^(3),
    K10 with a loop) may differ from that sum by an ulp or two; here a row
    gets the same bits in any batch.
    """

    def __init__(self, pattern: Pattern):
        self.dim = dim = pattern.num_vertices
        M = pattern.multiplicity_matrix()
        self._c = pattern.monomial_coeffs()
        self._pows = np.arange(int(M.max(initial=0)) + 1, dtype=np.float64)
        unit = np.eye(dim, dtype=np.int64)
        # one gradient term per (edge, vertex of the edge), one Hessian term
        # per (gradient term, vertex left in it), both in row-major order
        e, k = np.nonzero(M)
        g_rows = M[e] - unit[k]
        g_coef = self._c[e] * M[e, k]
        t, k2 = np.nonzero(g_rows)
        self._v_idx = self._monomials(M)
        self._g = self._partials(g_rows, g_coef, k, dim)
        self._h = self._partials(
            g_rows[t] - unit[k2], g_coef[t] * g_rows[t, k2], k[t] * dim + k2, dim * dim
        )

    def _monomials(self, rows: np.ndarray) -> np.ndarray:
        nz = rows > 0
        width = max(1, int(nz.sum(axis=1).max(initial=0)))
        idx = np.zeros((rows.shape[0], width), dtype=np.intp)
        t, k = np.nonzero(nz)
        idx[t, np.cumsum(nz, axis=1)[t, k] - 1] = k * len(self._pows) + rows[t, k]
        return idx

    def _partials(
        self, rows: np.ndarray, coef: np.ndarray, targets: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Monomial indices and coefficients of the terms, a zero term
        appended, and the plan whose row i lists the terms of partial i."""
        n = np.bincount(targets, minlength=count)
        order = np.argsort(targets, kind="stable")
        slot = np.arange(len(order)) - np.repeat(np.cumsum(n) - n, n)
        plan = np.full((count, int(n.max(initial=0))), len(targets), dtype=np.intp)
        plan[targets[order], slot] = order
        rows = np.concatenate([rows, np.zeros((1, self.dim), dtype=np.int64)])
        return self._monomials(rows), np.append(coef, 0.0), plan

    def _table(self, X: np.ndarray) -> np.ndarray:
        return (X[:, :, None] ** self._pows).reshape(X.shape[0], -1)

    @staticmethod
    def _product(T: np.ndarray, idx: np.ndarray) -> np.ndarray:
        out = T.take(idx[:, 0], axis=1)
        for col in idx.T[1:]:
            out *= T.take(col, axis=1)
        return out

    def _sum(self, T: np.ndarray, partials: tuple[np.ndarray, ...]) -> np.ndarray:
        idx, coef, plan = partials
        terms = self._product(T, idx)
        terms *= coef
        out = np.zeros((T.shape[0], plan.shape[0]))
        for col in plan.T:
            out += terms.take(col, axis=1)
        return out

    def value(self, X: np.ndarray) -> np.ndarray:
        return self._product(self._table(X), self._v_idx) @ self._c

    def grad(self, X: np.ndarray) -> np.ndarray:
        return self._sum(self._table(X), self._g)

    def value_grad(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Value and gradient from one power table."""
        T = self._table(X)
        return self._product(T, self._v_idx) @ self._c, self._sum(T, self._g)

    def grad_hess(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian from one power table."""
        T = self._table(X)
        return self._sum(T, self._g), self._sum(T, self._h).reshape(-1, self.dim, self.dim)


def _project_rows(Y: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    R, dim = Y.shape
    U = np.sort(Y, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    ks = np.arange(1, dim + 1, dtype=np.float64)
    positive = U - css / ks > 0
    rho = dim - 1 - np.argmax(positive[:, ::-1], axis=1)
    theta = css[np.arange(R), rho] / (rho + 1.0)
    return np.maximum(Y - theta[:, None], 0.0)


def _starts(dim: int, seed: int) -> np.ndarray:
    """The uniform point and ``RESTARTS - 1`` Dirichlet samples drawn from
    ``seed``, refused when a batch of their Hessians would pass
    ``MAX_BATCH_BYTES``."""
    batch_bytes = RESTARTS * dim * dim * 8
    if batch_bytes > MAX_BATCH_BYTES:
        raise InvalidInput(
            f"{RESTARTS} restarts in dimension {dim} need {batch_bytes} bytes of "
            f"Hessians, above MAX_BATCH_BYTES = {MAX_BATCH_BYTES}"
        )
    X = np.empty((RESTARTS, dim))
    X[0] = 1.0 / dim
    X[1:] = np.random.Generator(np.random.Philox(seed)).dirichlet(np.ones(dim), RESTARTS - 1)
    return X


_Evaluate = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
_Stage = tuple[_Evaluate, int]


def _ascend(evaluate: _Evaluate, X: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Projected-gradient ascent on all rows of X; returns (X, converged).

    ``evaluate`` gives the objective and the ascent direction at each row,
    so every trial point is evaluated once: an accepted row carries both on.
    """
    R = X.shape[0]
    step = np.full(R, STEP_INIT)
    f, G = evaluate(X)
    converged = np.zeros(R, dtype=bool)
    for _ in range(max_iter):
        Y = _project_rows(X + step[:, None] * G)
        fY, GY = evaluate(Y)
        disp = np.max(np.abs(Y - X), axis=1)
        converged |= disp <= GRAD_TOL * np.maximum(step, 1e-300)
        better = fY > f
        X = np.where(better[:, None], Y, X)
        f = np.where(better, fY, f)
        G = np.where(better[:, None], GY, G)
        step = np.where(better, np.minimum(step * 1.25, 4.0), step * 0.5)
        converged |= step < 1e-13
        if converged.all():
            break
    return X, converged


def _value_stages(calc: _Calc) -> list[_Stage]:
    """λ: one ascent on the polynomial itself."""
    return [(calc.value_grad, MAX_ITER)]


def _softmin_stages(calc: _Calc) -> list[_Stage]:
    """φ: one ascent per sharpness on the soft minimum of the partials, whose
    gradient weighs the Hessian rows by the soft-min weights."""
    stages = []
    for beta in SOFTMIN_BETAS:

        def evaluate(Z: np.ndarray, b: float = beta) -> tuple[np.ndarray, np.ndarray]:
            g, H = calc.grad_hess(Z)
            m = g.min(axis=1)
            w = np.exp(-b * (g - m[:, None]))
            total = w.sum(axis=1)
            return m - np.log(total) / b, np.einsum("rk,rkj->rj", w / total[:, None], H)

        stages.append((evaluate, MAX_ITER // len(SOFTMIN_BETAS)))
    return stages


# -- Newton polish -----------------------------------------------------------
# Every row is polished on its own system, but the rows that share a face
# (support and active set) take their Newton steps together.  Row sums and
# means reduce C-contiguous rows, which numpy sums as it sums one vector, so
# each row gets the bits it would get alone.


def _feasible(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row clipped at zero and rescaled to sum one, and whether it was
    close enough to the simplex for that."""
    ok = ~(X.min(axis=1) < -1e-9)
    X = np.maximum(X, 0.0)
    s = X.sum(axis=1)
    ok &= ~((s <= 0) | (np.abs(s - 1.0) > 1e-6))
    return np.divide(X, s[:, None], out=np.zeros_like(X), where=ok[:, None]), ok


def _solve_one(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a square system directly, falling back to least squares when it
    is singular; solve any other in the least-squares sense."""
    if J.shape[0] == J.shape[1]:
        try:
            return np.linalg.solve(J, b)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(J, b, rcond=None)[0]


def _newton(
    calc: _Calc, X: np.ndarray, support: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Newton on every row of X for one system: the ``active`` partials all
    equal a common level, the ``support`` coordinates (the only ones that
    move) sum to one.

    Returns the last iterates and which rows solved the system.  A row stops
    when it is solved, when a step is not finite or longer than 10 (the step
    is not taken), when a coordinate drops below -1e-6, or after 40 steps.
    Square systems of the live rows are solved in one stacked call, each row
    on its own when one of them is singular; others row by row in the
    least-squares sense.
    """
    a, s = len(active), len(support)
    Y = X.take(support, axis=1)
    solved = np.zeros(len(X), dtype=bool)
    live = np.arange(len(X))
    full = np.zeros((len(X), X.shape[1]))
    for _ in range(40):
        full[:, support] = Y
        g, H = calc.grad_hess(full[live])
        g = g.take(active, axis=1)
        F = np.empty((len(live), a + 1))
        F[:, :a] = g - g.mean(axis=1, keepdims=True)
        F[:, a] = Y[live].sum(axis=1) - 1.0
        done = np.abs(F).max(axis=1) < 1e-13
        solved[live[done]] = True
        live, rhs, H = live[~done], -F[~done], H[~done]
        if not live.size:
            break
        J = np.zeros((len(live), a + 1, s + 1))
        J[:, :a, :s] = H[:, active[:, None], support]
        J[:, :a, s] = -1.0
        J[:, a, :s] = 1.0
        try:
            delta = np.linalg.solve(J, rhs[:, :, None])[:, :, 0] if a == s else None
        except np.linalg.LinAlgError:
            delta = None
        if delta is None:
            delta = np.array([_solve_one(j, b) for j, b in zip(J, rhs)])
        ok = np.isfinite(delta).all(axis=1) & ~(np.abs(delta).max(axis=1) > 10.0)
        live, delta = live[ok], delta[ok]
        Y[live] = Y[live] + delta[:, :s]
        live = live[~(Y[live].min(axis=1) < -1e-6)]
        if not live.size:
            break
    full[:, support] = Y
    return full, solved


def _newton_by_face(
    calc: _Calc, X: np.ndarray, support: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_newton` on every row of X, with its own ``support`` and
    ``active`` masks; rows with equal masks are batched."""
    full = np.empty_like(X)
    solved = np.empty(len(X), dtype=bool)
    faces, inverse = np.unique(np.hstack([support, active]), axis=0, return_inverse=True)
    dim = X.shape[1]
    for f, face in enumerate(faces):
        rows = np.nonzero(inverse == f)[0]
        full[rows], solved[rows] = _newton(
            calc, X[rows], np.nonzero(face[:dim])[0], np.nonzero(face[dim:])[0]
        )
    return full, solved


def _polish_face_max(calc: _Calc, X: np.ndarray) -> list[Optional[np.ndarray]]:
    """Newton on the first-order system of a maximum restricted to the face
    of each row's support (all support partials equal).  Returns each row's
    polished point, or None."""
    support = X > 1e-9
    full, solved = _newton_by_face(calc, X, support, support)
    polished, ok = _feasible(full)
    return [p if good else None for p, good in zip(polished, solved & ok)]


def _polish_maximin(calc: _Calc, X: np.ndarray) -> list[Optional[np.ndarray]]:
    """Newton on the maximin first-order system: the active partials (the
    ones within a tolerance of the least) all equal a common level.  Both
    tolerances are tried on every row; per row, the result with the larger
    least partial wins.  Returns each row's polished point, or None."""
    g0 = calc.grad(X)
    support = X > 1e-9
    best = np.zeros_like(X)
    best_val = np.zeros(len(X))
    have = np.zeros(len(X), dtype=bool)
    for active_tol in (1e-8, 1e-4):
        active = g0 <= g0.min(axis=1, keepdims=True) + active_tol
        cand, ok = _feasible(_newton_by_face(calc, X, support, active)[0])
        val = calc.grad(cand).min(axis=1)
        take = ok & (~have | (val > best_val))
        best[take], best_val[take] = cand[take], val[take]
        have |= take
    return [b if h else None for b, h in zip(best, have)]


# -- the driver ----------------------------------------------------------------


class _Exact(NamedTuple):
    """The exact results of a pattern: λ and φ with an optimal point of
    each, the least coordinate over φ's optimal set, whether that set is one
    strictly positive point (rigidity), and the name of the path."""

    path: str
    values: tuple[Fraction, Fraction]
    points: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    smallest: Fraction
    rigid: bool


@lru_cache(maxsize=1024)
def _exact(pattern: Pattern) -> Optional[_Exact]:
    """The exact record of an edgeless pattern, of any pattern with r = 1,
    of a complete r-graph K_l^(r) with r >= 2 or of any pattern with r = 2;
    None for any other pattern, which the numeric optimizer serves.

    An edgeless pattern's polynomial is 0: λ = φ = 0 at every point, the
    uniform one reported, and for l >= 2 the optimal set reaches the
    boundary, so its smallest coordinate is 0 and it is not rigid.
    """
    if not pattern.edges:
        u = (Fraction(1, pattern.num_vertices),) * pattern.num_vertices
        return _Exact("empty", (Fraction(0), Fraction(0)), (u, u), Fraction(0), False)
    if pattern.r == 1:
        return _linear(pattern)
    if pattern.is_complete():
        return _complete(pattern)
    if pattern.r == 2:
        return _graph(pattern)
    return None


def _linear(pattern: Pattern) -> _Exact:
    """r = 1: p(x) = Σ_{v∈S} x_v over the set S of vertices with an edge.
    λ = 1, at the unit point of the least vertex of S.  Each partial is 1 on
    S and 0 off it at every point, so φ = 1 when S holds every vertex and 0
    otherwise, reported at the uniform point; every point is optimal, so
    for l >= 2 the smallest coordinate is 0 and the pattern is not rigid
    (l = 1 leaves the one point 1)."""
    l, least = pattern.num_vertices, pattern.edges[0][0]
    unit = tuple(Fraction(int(v == least)) for v in range(l))
    u = (Fraction(1, l),) * l
    values = Fraction(1), Fraction(int(len(pattern.edges) == l))
    return _Exact("linear", values, (unit, u), Fraction(int(l == 1)), l == 1)


def _complete(pattern: Pattern) -> _Exact:
    """K_l^(r): the uniform point is the unique optimum of both problems.
    λ = C(l,r)/l^r by Maclaurin's inequality, and as the weighted partials
    sum to Σ x_i ∂_i p = r·p <= r·λ, the least partial is at most
    r·λ = C(l-1,r-1)/l^(r-1) = φ."""
    l, r = pattern.num_vertices, pattern.r
    u = (Fraction(1, l),) * l
    values = Fraction(comb(l, r), l**r), Fraction(comb(l - 1, r - 1), l ** (r - 1))
    return _Exact("closed-form", values, (u, u), Fraction(1, l), True)


def _graph(pattern: Pattern) -> _Exact:
    """A pattern with r = 2.  Let A be its 0/1 matrix with a 1 on the
    diagonal for a loop, so that p = ½xᵀAx and ∇p = Ax.

    λ: with a loop at v, xᵀAx <= (Σx)² = 1 is attained at e_v, so λ = ½;
    otherwise λ = ½(1 - 1/ω) on the uniform point of a maximum clique
    (Motzkin–Straus).

    φ is the value of the symmetric matrix game A: max t with Ax >= t·1 on
    the simplex Δ.  An isolated vertex v has (Ax)_v = 0 everywhere, so φ = 0
    and every point is optimal; otherwise :func:`_game` solves it exactly.

    Rigidity: let x* be the game's optimum.  If x* > 0 and Ax* = φ·1, x*
    also solves the minimizer's side (min over y of max_j (Ay)_j), so
    complementary slackness gives Ax = φ·1 at every optimum x; a
    nonsingular bordered matrix [[A, -1], [1ᵀ, 0]] then leaves x* as the
    only one, and the pattern is rigid.  (For the basic x* of :func:`_game`,
    x* > 0 makes A its basis, so the other two conditions follow; they are
    checked so that the verdict does not rest on that.)  Conversely, if every optimum is
    positive, slackness with one of them gives Ay = φ·1 at every optimum y
    of the minimizer's side; such a y is an optimum here, so positive, and
    slackness with it gives Ax = φ·1 at every optimum x.  The optimal set
    {x ∈ Δ : Ax = φ·1} is then one point, as a longer one would reach the
    boundary of Δ, and the bordered matrix is nonsingular: along a kernel
    vector (d, s), s ≠ 0 would raise φ and s = 0 would stay optimal.  So a
    pattern that is not rigid has an optimum on the boundary, and its
    smallest coordinate is 0.
    """
    n = pattern.num_vertices
    adj = [0] * n  # neighbour bitmasks, a loop at v setting bit v of adj[v]
    for i, j in pattern.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i

    def unit(v: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(int(w == v)) for w in range(n))

    loops = [v for v in range(n) if adj[v] >> v & 1]
    if loops:
        lam, lam_point = Fraction(1, 2), unit(loops[0])
    else:
        clique = _max_clique(adj)
        k = clique.bit_count()
        lam = Fraction(k - 1, 2 * k)
        lam_point = tuple(Fraction(clique >> v & 1, k) for v in range(n))
    isolated = [v for v in range(n) if not adj[v]]
    if isolated:
        points = lam_point, unit(isolated[0])
        return _Exact("exact-graph", (lam, Fraction(0)), points, Fraction(0), False)
    A = [[mask >> j & 1 for j in range(n)] for mask in adj]
    value, x = _game(A)
    rigid = (
        min(x) > 0
        and all(sum(a * c for a, c in zip(row, x)) == value for row in A)
        and _nonsingular([row + [-1] for row in A] + [[1] * n + [0]])
    )
    smallest = min(x) if rigid else Fraction(0)
    return _Exact("exact-graph", (lam, value), (lam_point, x), smallest, rigid)


def _max_clique(adj: list[int]) -> int:
    """Bitmask of a maximum clique of the loopless graph with neighbour
    masks ``adj``: branch and bound on the lowest candidate, taken first."""
    best = 0
    stack = [(0, (1 << len(adj)) - 1)]
    while stack:
        clique, cand = stack.pop()
        if clique.bit_count() + cand.bit_count() <= best.bit_count():
            continue
        if not cand:
            best = clique
            continue
        v = cand & -cand
        stack.append((clique, cand & ~v))
        stack.append((clique | v, cand & adj[v.bit_length() - 1]))
    return best


def _pivot(rows: list[list[Fraction]], r: int, c: int) -> None:
    """Scale row r to 1 in column c and clear column c from the other rows."""
    p = rows[r]
    p[:] = [v / p[c] for v in p]
    for row in rows:
        if row is not p and row[c]:
            f = row[c]
            row[:] = [a - f * b for a, b in zip(row, p)]


def _game(A: list[list[int]]) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Value φ and an optimal point of the maximizer of the game A, which
    has no zero row or column.

    Solves max Σy subject to Ay <= 1, y >= 0 from the slack basis by the
    simplex method under Bland's rule (the least improving column enters;
    ties in the ratio test go to the least basic variable), which always
    terminates.  Each y_j has a 1 in some row, so the LP is bounded.  Its
    optimum is 1/φ, and the row prices u (minus the final reduced costs of
    the slacks) solve the dual min Σu subject to Au >= 1, u >= 0: the
    maximizer's side scaled by 1/φ, so x* = u / Σu.
    """
    n = len(A)
    rows = [
        [Fraction(a) for a in A[i]] + [Fraction(int(i == j)) for j in range(n)] + [Fraction(1)]
        for i in range(n)
    ]
    cost = [Fraction(1)] * n + [Fraction(0)] * (n + 1)
    basis = list(range(n, 2 * n))
    while (enter := next((j for j in range(2 * n) if cost[j] > 0), None)) is not None:
        leave = min(
            (i for i in range(n) if rows[i][enter] > 0),
            key=lambda i: (rows[i][-1] / rows[i][enter], basis[i]),
        )
        _pivot([*rows, cost], leave, enter)
        basis[leave] = enter
    u = [-c for c in cost[n : 2 * n]]
    total = sum(u)
    return 1 / total, tuple(c / total for c in u)


def _nonsingular(M: list[list[int]]) -> bool:
    """Whether a square integer matrix is nonsingular, by exact elimination."""
    rows = [[Fraction(v) for v in row] for row in M]
    for c in range(len(rows)):
        r = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if r is None:
            return False
        rows[c], rows[r] = rows[r], rows[c]
        _pivot(rows, c, c)
    return True


def _select(
    candidates: np.ndarray, score: Callable[[np.ndarray], float]
) -> tuple[float, tuple[float, ...], list[tuple[float, ...]]]:
    """The best score, its point (ties go to the lexicographically smallest)
    and, best first, the distinct points scoring within ``VALUE_WINDOW`` of
    it: a point is distinct when it lies more than ``WITNESS_TOL`` (max norm)
    from every distinct point before it."""
    vals = [score(c) for c in candidates]
    args = [tuple(c) for c in candidates.tolist()]
    order = sorted(range(len(vals)), key=lambda i: (-vals[i], args[i]))
    best_val = vals[order[0]]
    witnesses = np.empty_like(candidates)
    kept: list[int] = []
    for i in order:
        if vals[i] < best_val - VALUE_WINDOW:
            break
        dist = np.abs(witnesses[: len(kept)] - candidates[i]).max(axis=1)
        if (dist > WITNESS_TOL).all():
            witnesses[len(kept)] = candidates[i]
            kept.append(i)
    return best_val, args[order[0]], [args[i] for i in kept]


_LAMBDA, _PHI = 0, 1  # which entry of an exact record a run reports
_NAMES = ("simplex", "maximin")


@lru_cache(maxsize=1024)
def _optimize(
    pattern: Pattern,
    cfg: OptConfig,
    which: int,
    stages: Callable[[_Calc], list[_Stage]],
    polish: Callable[[_Calc, np.ndarray], list[Optional[np.ndarray]]],
    score: Callable[[Pattern, np.ndarray], float],
) -> OptReport:
    """The pattern's exact record (:func:`_exact`) when it has one, with its
    point as the one witness.  Otherwise one multistart run: ascend all
    restarts through ``stages``, polish them all, and report the best
    ``score`` with its distinct near-optimal points as witnesses, ties
    broken toward the lexicographically smallest point."""
    exact = _exact(pattern)
    if exact is not None:
        _log.debug(_RUN_RECORD, _NAMES[which], pattern, exact.path, 0, 0, 0)
        point = SimplexPoint(float(c) for c in exact.points[which])
        return OptReport(float(exact.values[which]), point, 0, True, (point,), exact.values[which])

    calc = _Calc(pattern)
    X = _starts(pattern.num_vertices, cfg.seed)
    for evaluate, max_iter in stages(calc):
        X, conv = _ascend(evaluate, X, max_iter)
    polished = [p for p in polish(calc, X) if p is not None]
    _log.debug(
        _RUN_RECORD, _NAMES[which], pattern, "numeric", len(X), conv.sum(), len(polished)
    )
    best_val, best_arg, witnesses = _select(
        np.vstack([X, *polished]), lambda c: score(pattern, c)
    )
    if not (bool(conv.any()) or polished):
        raise NumericFailure(f"{_NAMES[which]} ascent did not converge", best_val)
    return OptReport(
        value=best_val,
        argmax=SimplexPoint.normalized(best_arg),
        restarts_used=X.shape[0],
        converged=True,
        witness_set=tuple(SimplexPoint.normalized(w) for w in witnesses),
        value_exact=None,
    )


def _min_partial(pattern: Pattern, x: np.ndarray) -> float:
    return min(lagrange_grad(pattern, x))


def lagrangian(pattern: Pattern, cfg: OptConfig = OptConfig()) -> OptReport:
    """Maximum of the pattern's weight polynomial over the simplex.

    Numerically, returns the best value across all restarts, with ties
    broken toward the lexicographically smallest maximizer.  ``value_exact``
    is set when the value is exact; the report then has one witness, the
    exact optimal point.
    """
    return _optimize(
        pattern, _opt_config(cfg), _LAMBDA, _value_stages, _polish_face_max, lagrange_eval
    )


def phi(pattern: Pattern, cfg: OptConfig = OptConfig()) -> OptReport:
    """Maximin of the weight polynomial's partials over the simplex.

    Numerically, the witness set collects the distinct near-optimal points
    found across restarts; it samples the optimal set of the maximin
    problem.  An exact report has one witness, an exact optimal point.
    """
    return _optimize(
        pattern, _opt_config(cfg), _PHI, _softmin_stages, _polish_maximin, _min_partial
    )


def is_minimal(pattern: Pattern, cfg: OptConfig = OptConfig()) -> MinimalityReport:
    """Whether deleting any vertex strictly drops the simplex maximum.

    The drop must exceed ``STRICT_GAP`` for every vertex; the report
    carries the smallest drop seen.
    """
    if pattern.num_vertices < 2:
        raise InvalidInput("minimality needs at least 2 vertices")
    whole = lagrangian(pattern, cfg)
    gaps = []
    for i in range(pattern.num_vertices):
        sub = lagrangian(pattern.vertex_deleted(i), cfg)
        if whole.value_exact is not None and sub.value_exact is not None:
            gaps.append(float(whole.value_exact - sub.value_exact))
        else:
            gaps.append(whole.value - sub.value)
    margin = min(gaps)
    return MinimalityReport(minimal=margin > STRICT_GAP, margin=margin, gaps=tuple(gaps))


def rigidity_report(pattern: Pattern, cfg: OptConfig = OptConfig()) -> RigidityReport:
    """Rigidity classification: whether the optimal set of the maximin
    problem is one point with every coordinate positive.

    With an exact record (see :func:`_exact`) the verdict and the
    smallest coordinate over the optimal set are exact.  Otherwise they are
    numerical: rigid means the sampled optimal set stays away from the
    simplex boundary (smallest coordinate above ``POS_GAP``) and every
    sampled optimum has all partials equal to the maximin level within
    ``TOL``.  Twin vertices defeat both conditions, because mass can be
    shifted freely between twins without leaving the optimal set; for the
    least twin pair (i, j) only, the first witness with its mass at i slid
    onto j is added, which drives the smallest coordinate to exactly zero.
    """
    if pattern.num_vertices < 2:
        raise InvalidInput("rigidity needs at least 2 vertices")
    rep = phi(pattern, cfg)
    exact = _exact(pattern)
    witnesses = list(rep.witness_set)
    roots = pattern.twin_classes()
    pair = min(((root, v) for v, root in enumerate(roots) if root != v), default=None)
    if pair is not None:
        i, j = pair
        slid = list(witnesses[0].coords)
        slid[i], slid[j] = 0.0, slid[j] + slid[i]
        witnesses.append(SimplexPoint.normalized(slid))

    if exact is None:
        smallest = min(min(w.coords) for w in witnesses)
        worst_dev = max(
            max(abs(g - rep.value) for g in lagrange_grad(pattern, w)) for w in witnesses
        )
        rigid = pair is None and smallest > POS_GAP and worst_dev <= TOL
    else:
        smallest, rigid = float(exact.smallest), exact.rigid

    certificate: Optional[dict] = None
    if not rigid:
        if pair is not None:
            certificate = {"kind": "twins", "pair": pair, "witness": witnesses[-1].coords}
        elif smallest <= POS_GAP:
            bad = min(witnesses, key=lambda w: min(w.coords))
            certificate = {
                "kind": "boundary_witness",
                "witness": bad.coords,
                "smallest_coordinate": smallest,
            }
        else:
            bad = max(
                witnesses,
                key=lambda w: max(abs(g - rep.value) for g in lagrange_grad(pattern, w)),
            )
            certificate = {
                "kind": "unequal_partials",
                "witness": bad.coords,
                "partials": lagrange_grad(pattern, bad),
            }

    return RigidityReport(
        maximin=rep.value,
        smallest_coordinate=smallest,
        rigid=rigid,
        certificate=certificate,
        witness_set=tuple(witnesses),
        maximin_exact=rep.value_exact,
        smallest_exact=None if exact is None else exact.smallest,
        note=_NUMERICAL_NOTE if rep.value_exact is None else _EXACT_NOTE,
    )
