"""Exact monomial computation modulo the 2-minor relations of a ladder.

Each full 2-minor contributes the binomial relation
x[i,j]*x[p,q] = x[i,q]*x[p,j] (i < p, j < q).  Oriented from the diagonal
product to the antidiagonal one, the relations rewrite any monomial to a
unique normal form: one with no cell strictly north-west of another.  By the
closure axiom every such diagonal pair of ladder cells spans a full minor, and
a rewrite keeps the multisets of rows and of columns, so that content fixes
the normal form: the rows in ascending order paired with the columns in
descending order.  This is the Groebner basis of the 2-minors of a ladder
(Narasimhan 1986; Conca, "Ladder determinantal rings", 1995).  Monomials are
handled as run-length content, so costs grow with the support, not the
degree.

The ideal operations work on the same content.  Order the cells by
(i, j) <= (p, q) iff i <= p and j >= q.  A support admits no rule iff no cell
is strictly north-west of another, iff it is a chain: normal monomials are the
multichains, listed once each by adding cells at or above the last.  A content
is realizable iff its ascending-row/descending-column zip lies in the ladder,
as every realization rewrites to that zip.  Under x[i,j] -> s_i*t_j the
quotient is a semigroup ring, where (G) is spanned by the multiples of G: m lies
in (G) iff m - g (m's content less g's row and column) is realizable for a g in
G.  A common member m is not minimal iff m - x is realizable and common for a
cell x (if m = u*t' with t' common and deg u > 0, take x in u: (u/x)*t' is common).

An additive generator set has a closed-form intersection with any other.
Call G additive when its indicator on the cells is f(row) + g(col) for
integer functions f and g.  The height-1 primes are: Q(i) (row a_{i-1}) and
QPrime(i) (column b_i) plainly, and P(j) = [row <= c] + [col <= d] - 1 for
the upper corner (c, d), since an analyzable ladder has no cell below and
right of it.  A rewrite keeps the multisets of rows and of columns, so the
number v_G(m) of G-cells is one number for every realization of m.  Let G1
be additive and m a common member of (G1) and (G2).  Some realization of m
has a cell y of G2, and, as v_G1(m) >= 1, a cell x of G1.  If y lies in G1
or x in G2, that cell lies in G1 & G2 and divides m; otherwise x*y divides
m.  So when one of the two sets is additive, every minimal generator of
(G1) & (G2) has degree <= 2: the cells of G1 & G2, and nf(x*y) for x in
G1 - G2 and y in G2 - G1 unless a cell of G1 & G2 divides x*y.  The content
of x*y has at most two realizations, x*y and the pair with its columns
swapped, so that test reads two cells.

One pass down the rows finds f and g, or shows there are none.  A row's
last column fixes f(row) as [x in G] - g(col) if an earlier row holds it,
and f(row) = 0 otherwise; then f(row) fixes g on each column met for the
first time, and every cell is checked.  So a pass that ends gives f and g.
It fails only if G is not additive.  The rows that hold a column are
consecutive, and row ends never move right down the rows (``ladders``
docstring, "Closed forms").  So the columns of row r_i that earlier rows
hold are K, those it shares with row r_{i-1}, and if K is not empty it holds
the row's last column.  If K is empty, no later row shares a column with an
earlier one, and adding t to f and -t to g from row r_i on keeps any
solution, so f(r_i) = 0 loses nothing.  Otherwise [x in G] - g(col) must be
one number on K, which fixes f(r_i) and then g on the rest of the row.  The
same step shows that G is additive iff every full 2-minor keeps the
G-count: any two columns of K span a full minor on rows r_{i-1} and r_i, and
by those minors [x in G] - g(col) is one number on K.  Two sets of which
neither is additive take the bounded search; their intersection can have
minimal generators of degree 3.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, NamedTuple

from .decompose import decompose
from .ladders import Cell, Ladder, LadderError, _brief_repr, _span_runs, is_int

MAX_DEGREE_BOUND = 8


class Monomial:
    """A monomial over the cells of a ladder, as a sparse exponent map."""

    __slots__ = ("_exps",)

    def __init__(self, exps=()):
        merged: dict[Cell, int] = {}
        items = exps.items() if hasattr(exps, "items") else exps
        for cell, e in items:
            try:
                r, c = cell
            except (TypeError, ValueError):
                raise LadderError(f"bad cell {_brief_repr(cell)}: expected a (row, col) pair") from None
            if not (is_int(r) and is_int(c) and is_int(e)):
                raise LadderError(
                    f"bad monomial entry {_brief_repr([r, c, e])}: row, column and exponent must be integers"
                )
            cell = Cell(r, c)
            if e < 0:
                raise LadderError(f"negative exponent for {cell}")
            if e:
                merged[cell] = merged.get(cell, 0) + e
        object.__setattr__(self, "_exps", tuple(sorted(merged.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def from_cells(cls, cells: Iterable[tuple[int, int]]) -> "Monomial":
        return cls((cell, 1) for cell in cells)

    @classmethod
    def _squarefree(cls, cells) -> "Monomial":
        """The product of distinct cells with integer indices, unchecked."""
        return cls._sorted((tuple.__new__(Cell, c), 1) for c in cells)

    @classmethod
    def _sorted(cls, exps) -> "Monomial":
        """The monomial with these (cell, exponent) pairs: cells of integer
        indices, each once, and positive exponents, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "_exps", tuple(sorted(exps)))
        return self

    @classmethod
    def from_json_dict(cls, doc) -> "Monomial":
        if not isinstance(doc, dict) or "exps" not in doc or not isinstance(doc["exps"], list):
            raise LadderError('monomial JSON must be an object with an "exps" list')
        exps = []
        for entry in doc["exps"]:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise LadderError(f"bad exponent entry {_brief_repr(entry)}: expected [row, col, e]")
            exps.append(((entry[0], entry[1]), entry[2]))
        return cls(exps)

    def items(self) -> tuple:
        return self._exps

    @property
    def degree(self) -> int:
        return sum(e for _, e in self._exps)

    @property
    def support(self) -> tuple[Cell, ...]:
        return tuple(c for c, _ in self._exps)

    def __mul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return Monomial(self._exps + other._exps)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self._exps == other._exps

    def __hash__(self):
        return hash(self._exps)

    def __repr__(self):
        return f"Monomial({self})"

    def __str__(self):
        if not self._exps:
            return "1"
        parts = []
        for (r, c), e in self._exps:
            parts.append(f"x({r},{c})" + (f"^{e}" if e > 1 else ""))
        return "*".join(parts)

    def to_json_dict(self) -> dict:
        return {"exps": [[c.row, c.col, e] for c, e in self._exps]}


def RewriteSystem(ladder: Ladder) -> Ladder:
    """Deprecated: returns the ladder, which the rewrite functions now take directly.

    Its last caller is ``bench/workloads.py``; it goes when that call does.
    """
    return ladder


def _content(mono: Monomial, ladder: Ladder):
    """Row runs ascending and column runs descending, as (index, count) pairs."""
    bad = [c for c in mono.support if c not in ladder]
    if bad:
        raise LadderError(f"monomial uses cells outside the ladder: {bad}")
    rows, cols = Counter(), Counter()
    for (r, c), e in mono.items():
        rows[r] += e
        cols[c] += e
    return sorted(rows.items()), sorted(cols.items(), reverse=True)


def normal_form(mono: Monomial, ladder: Ladder) -> Monomial:
    """The unique normal form: ascending rows zipped with descending columns.

    The rows and columns are a checked monomial's, and each (row, column)
    pair is met once with a positive count, so the result needs no check.
    """
    rows, cols = _content(mono, ladder)
    exps = []
    cols = iter(cols)
    col = left = 0
    for row, need in rows:
        while need:
            if not left:
                col, left = next(cols)
            k = min(need, left)
            exps.append((tuple.__new__(Cell, (row, col)), k))
            need -= k
            left -= k
    return Monomial._sorted(exps)


def equal_mod_minors(m1: Monomial, m2: Monomial, ladder: Ladder) -> bool:
    """Whether two monomials agree in the quotient ring (equal row and column content)."""
    return _content(m1, ladder) == _content(m2, ladder)


# ---------------------------------------------------------------------------
# ideal operations up to a degree bound

def _quotients(rows, cols, among, cells):
    """For each cell x of among with (rows, cols) = x * t modulo the minors, the content of t."""
    for r, c in set(itertools.product(rows, cols)).intersection(among):
        i, j = rows.index(r), cols.index(c)
        rest = (rows[:i] + rows[i + 1:], cols[:j] + cols[j + 1:])
        if cells.issuperset(zip(*rest)):
            yield rest


def _checked(gen_sets, d: int, ladder: Ladder) -> list[list[Cell]]:
    """Each generator set as a sorted list of cells, after the checks every ideal operation makes, in order."""
    if not is_int(d):
        raise LadderError(f"degree bound must be an integer, got {d!r}")
    if d < 1:
        raise LadderError("degree bound must be at least 1")
    if d > MAX_DEGREE_BOUND:
        raise LadderError(f"degree bound exceeds the safety cap {MAX_DEGREE_BOUND}")
    checked = []
    for gens in map(list, gen_sets):
        bad = [g for g in gens if not (isinstance(g, (tuple, list)) and len(g) == 2 and all(map(is_int, g)))]
        if bad:
            raise LadderError(f"generators must be (row, col) pairs of integers: {bad}")
        gens = sorted(Cell(*g) for g in gens)
        bad = [g for g in gens if g not in ladder]
        if bad:
            raise LadderError(f"generators outside the ladder: {bad}")
        checked.append(gens)
    return checked


def _members(gen_sets, d: int, cells) -> set:
    """Sorted content of the degree <= d normal monomials on the cells in (G) for all G in gen_sets; chains carry
    the G they miss.  The caller reads ``ladder.cells`` once and passes it."""
    above = {x: [(r, c) for r, c in cells if r >= x.row and c <= x.col] for x in cells} if d > 1 else {}
    stack = [((r,), (c,), tuple(gen_sets)) for r, c in cells]
    out = set()
    while stack:
        rows, cols, pending = stack.pop()
        pending = tuple(gens for gens in pending if not any(_quotients(rows, cols, gens, cells)))
        if not pending:
            out.add((rows, cols))
        if len(rows) < d:
            stack.extend((rows + (r,), cols + (c,), pending) for r, c in above[rows[-1], cols[-1]])
    return out


def ideal_monomials_bounded(gens, d: int, ladder: Ladder) -> frozenset[Monomial]:
    """Normal forms of all degree <= d monomials in the ideal generated by gens."""
    members = _members(_checked([gens], d, ladder), d, ladder.cells)
    return frozenset(Monomial.from_cells(zip(*content)) for content in members)


def intersect_bounded(gens1, gens2, d: int, ladder: Ladder) -> frozenset[Monomial]:
    """Minimal members of the degree <= d intersection of two monomial-generated ideals.

    When one of the generator sets is additive (module docstring), as those
    of the height-1 primes Q, P and QPrime are, every minimal member has
    degree at most 2 and the closed form gives them in O(|gens1| * |gens2|)
    after a pass over the ladder's cells; other pairs of sets take the
    search over the normal monomials of degree <= d.
    """
    gen_sets = _checked([gens1, gens2], d, ladder)
    if any(_additive(gens, ladder) for gens in gen_sets):
        return _intersect_additive(*gen_sets, d, ladder)
    return _intersect_search(gen_sets, d, ladder)


def _intersect_search(gen_sets, d: int, ladder: Ladder) -> frozenset[Monomial]:
    """Minimal common members of degree <= d of the ideals of the two sets, by the search; any sets of cells."""
    cells = ladder.cells
    common = _members(gen_sets, d, cells)
    return frozenset(
        Monomial.from_cells(zip(*content)) for content in common
        if not any(t in common for t in _quotients(*content, cells, cells))
    )


def _additive(gens, ladder: Ladder):
    """Maps f and g with [x in gens] = f(row) + g(col) on every cell x, found in
    one pass down the rows (module docstring), or None if gens is not additive."""
    by_row = {}
    for r, c in gens:
        by_row.setdefault(r, set()).add(c)
    rows, _, his, _ = spans = ladder._spans
    f, g = {}, {}
    for r, hi, run in zip(rows, his, _span_runs(spans)):
        mine = by_row.get(r, ())
        f[r] = fr = (hi in mine) - g[hi] if hi in g else 0
        for c in run:
            x = (c in mine) - fr
            if g.setdefault(c, x) != x:
                return None
    return f, g


def _intersect_additive(gens1, gens2, d: int, ladder: Ladder) -> frozenset[Monomial]:
    """The minimal generators of (gens1) & (gens2), one set additive, by the module docstring's closed form."""
    s1, s2 = set(gens1), set(gens2)
    both = s1 & s2
    pairs = set()
    if d > 1:
        for (i, j), (p, q) in itertools.product(s1 - s2, s2 - s1):
            # The content's other realization, if its two cells lie in the ladder, is (i, q)*(p, j).
            if not ((i, q) in both and (p, j) in ladder or (p, j) in both and (i, q) in ladder):
                pairs.add(((min(i, p), max(j, q)), (max(i, p), min(j, q))))
    return frozenset(map(Monomial._squarefree, [*((x,) for x in both), *pairs]))


# ---------------------------------------------------------------------------
# the two displayed non-injectivity witnesses

class WitnessCase(NamedTuple):
    name: str
    holds: bool


class WitnessReport(NamedTuple):
    """Outcome of the multiplication-map witness identities on a two-matrix glue."""

    corner: Cell
    lam_top: int
    lam_bottom: int
    cases: tuple[WitnessCase, ...]

    @property
    def vacuous(self) -> bool:
        return not self.cases

    def to_json_dict(self) -> dict:
        return {
            "corner": [self.corner.row, self.corner.col],
            "lambda_top": self.lam_top,
            "lambda_bottom": self.lam_bottom,
            "cases": [{"name": c.name, "holds": c.holds} for c in self.cases],
            "vacuous": self.vacuous,
        }


def verify_witnesses(ladder: Ladder) -> WitnessReport:
    """Check the two witness identities on a glue of two full matrices.

    The ladder must decompose as exactly two full-matrix factors with one
    coincidental corner (a, b).  With lam_top = a + b - 1 - n and
    lam_bottom = m + 1 - a - b, each applicable case hypothesis
    (lam_bottom equal to lam_top or to -lam_top, and positive) is tested by
    checking that its two tensor-argument products agree modulo the minors.
    """
    factorization = decompose(ladder)
    if factorization.w != 1:
        raise LadderError(f"witness check needs exactly one coincidental corner, found {factorization.w}")
    for u, factor in enumerate(factorization.factors):
        if not factor.is_full_matrix:
            raise LadderError(f"witness check needs full-matrix factors; factor {u} is not one")

    a, b = factorization.coincidental[0]
    m, n = ladder.m, ladder.n
    lam_top = a + b - 1 - n
    lam_bottom = m + 1 - a - b
    cases = []

    if lam_bottom > 0 and lam_bottom == -lam_top:
        lam = lam_bottom
        left = Monomial({Cell(a, b): lam}) * Monomial(
            {Cell(1, b): 1, Cell(a, 1): 1, Cell(a, b): lam - 1}
        )
        right = Monomial({Cell(a, 1): 1, Cell(1, b): 1, Cell(a, b): lam - 1}) * Monomial(
            {Cell(a, b): lam}
        )
        cases.append(WitnessCase("opposite-sign", equal_mod_minors(left, right, ladder)))

    if lam_bottom > 0 and lam_bottom == lam_top:
        lam = lam_bottom
        left = Monomial({Cell(1, b): lam - 1, Cell(1, n): 1, Cell(a, 1): 1}) * Monomial(
            {Cell(a, b): 1, Cell(a, n): lam - 1}
        )
        right = Monomial({Cell(a, 1): 1, Cell(1, b): lam}) * Monomial({Cell(a, n): lam})
        cases.append(WitnessCase("equal-sign", equal_mod_minors(left, right, ladder)))

    return WitnessReport(
        corner=Cell(a, b), lam_top=lam_top, lam_bottom=lam_bottom, cases=tuple(cases)
    )
