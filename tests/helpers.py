"""Independent oracles and generators shared across the test suite.

Everything here is written directly from the definitions (quantifier-style
brute force), deliberately not reusing the library's algorithms, so the
suite cross-checks two implementations against each other.
"""

import functools
import itertools
import os
from fractions import Fraction
from typing import NamedTuple

L1_ASCII = ".##\n###\n###\n##.\n##."
L2_ASCII = ".####\n.####\n.###.\n###..\n###.."
L3_ASCII = ".##\n.##\n###\n##.\n##."

L3_CELLS = [
    [1, 2], [1, 3], [2, 2], [2, 3],
    [3, 1], [3, 2], [3, 3],
    [4, 1], [4, 2], [5, 1], [5, 2],
]


def closure_holds(cells):
    """Direct quantifier check of the rectangle-closure axiom."""
    s = set(cells)
    for (i, j) in s:
        for (p, q) in s:
            if i <= p and j <= q and ((i, q) not in s or (p, j) not in s):
                return False
    return True


def naive_corners(cells):
    """Corner scan written from the four-cell membership patterns."""
    s = set(cells)
    m = max(r for r, _ in s)
    n = max(c for _, c in s)
    lower, upper = [], []
    for a in range(1, m + 1):
        for b in range(1, n + 1):
            if (a, b) in s and (a - 1, b) in s and (a, b - 1) in s and (a - 1, b - 1) not in s:
                lower.append((a, b))
            if (a, b) in s and (a + 1, b) in s and (a, b + 1) in s and (a + 1, b + 1) not in s:
                upper.append((a, b))
    return sorted(lower), sorted(upper)


def full_minors(cells):
    """All full 2-minors as 4-cell frozensets."""
    s = set(cells)
    out = []
    for (i, j), (p, q) in itertools.combinations(sorted(s), 2):
        if i < p and j < q and (i, q) in s and (p, j) in s:
            out.append(frozenset({(i, j), (i, q), (p, j), (p, q)}))
    return out


def two_connected_by_partitions(cells):
    """The partition-based 2-connectivity definition, brute-forced.

    Not 2-connected iff the cells split into two nonempty subladders such
    that every full 2-minor lies inside one part.  Only sensible for small
    inputs (2 <= |cells| <= ~14).
    """
    cells = sorted(cells)
    k = len(cells)
    assert 2 <= k <= 16, "partition brute force is for small inputs"
    idx = {c: i for i, c in enumerate(cells)}
    demands = []
    for a, (i, j) in enumerate(cells):
        for b, (p, q) in enumerate(cells):
            if a < b and i <= p and j <= q:
                pm = (1 << a) | (1 << b)
                rm = (1 << idx[(i, q)]) | (1 << idx[(p, j)])
                if rm & pm != rm:
                    demands.append((pm, rm))
            elif a < b and p <= i and q <= j:
                pm = (1 << a) | (1 << b)
                rm = (1 << idx[(p, j)]) | (1 << idx[(i, q)])
                if rm & pm != rm:
                    demands.append((pm, rm))
    minor_masks = []
    for minor in full_minors(cells):
        mask = 0
        for c in minor:
            mask |= 1 << idx[c]
        minor_masks.append(mask)

    full = (1 << k) - 1

    def is_subladder(mask):
        for pm, rm in demands:
            if mask & pm == pm and mask & rm != rm:
                return False
        return True

    for z1 in range(1, full, 2):  # cell 0 always in z1, z1 != full
        z2 = full ^ z1
        if not is_subladder(z1) or not is_subladder(z2):
            continue
        if all(mask & z1 == mask or mask & z2 == mask for mask in minor_masks):
            return False
    return True


class CellSetLadder:
    """A ladder held as its plain set of cells, shifted to start at (1, 1).

    The reference for the library's row spans over the occupied columns:
    size and membership read the set itself.
    """

    def __init__(self, cells):
        dr = 1 - min(r for r, _ in cells)
        dc = 1 - min(c for _, c in cells)
        self.cells = frozenset((r + dr, c + dc) for r, c in cells)
        self.m = max(r for r, _ in self.cells)
        self.n = max(c for _, c in self.cells)

    def __len__(self):
        return len(self.cells)

    def __contains__(self, cell):
        return tuple(cell) in self.cells

    def ascii(self):
        cols = range(1, self.n + 1)
        return "\n".join("".join("#" if (r, c) in self.cells else "." for c in cols) for r in range(1, self.m + 1))


# Closed cell sets whose occupied columns have gaps, or whose occupied rows
# have empty rows between them: spreading a ladder's rows or columns apart
# keeps the closure axiom.
GAPPED_CELLSETS = [
    {(1, 1), (1, 3), (2, 1), (2, 3)},
    {(1, 1), (1, 3), (3, 1), (3, 3)},
    {(1, 2), (1, 4), (2, 2), (2, 4), (3, 1), (3, 2), (3, 4)},
    {(1, 3), (1, 5), (2, 1), (2, 3), (2, 5), (3, 1), (3, 3)},
    {(1, 4), (1, 5), (2, 4), (2, 5), (4, 1), (4, 2), (5, 1), (5, 2)},
    {(1, 7)},
    {(2, 9), (5, 1)},
    {(1, 1), (1, 2), (1, 6), (3, 1), (3, 2), (3, 6), (4, 1), (4, 2), (7, 1)},
    {(2 * r - 1, 3 * c - 2) for r in range(1, 5) for c in range(1, 7 - r)},
]


def enumerate_ladder_cellsets(max_m, max_n):
    """Every normalized closure-valid cell set with m <= max_m, n <= max_n.

    Enumerated row by row from the pairwise row-compatibility form of the
    closure axiom, independently of the library's constructor.
    """
    out = []
    for n in range(1, max_n + 1):
        sets = [frozenset(c) for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
        compat = {}
        for upper_cols in sets:
            for lower_cols in sets:
                ok = all(
                    q in upper_cols and j in lower_cols
                    for j in upper_cols
                    for q in lower_cols
                    if j <= q
                )
                compat[(upper_cols, lower_cols)] = ok
        nonempty = [s for s in sets if s]
        for m in range(1, max_m + 1):
            stack = [()]
            while stack:
                rows = stack.pop()
                if len(rows) == m:
                    cells = frozenset((r + 1, c) for r, cols in enumerate(rows) for c in cols)
                    colsused = {c for _, c in cells}
                    if 1 in colsused and n in colsused:
                        out.append(cells)
                    continue
                choices = nonempty if len(rows) in (0, m - 1) else sets
                for cols in choices:
                    if all(compat[(prev, cols)] for prev in rows):
                        stack.append(rows + (cols,))
    return out


def single_cell_mutants(cellsets, rng, per_set=3, box=5):
    """Each cell set with one seeded cell of the box x box grid toggled, per_set times; empty results dropped."""
    out = []
    for cells in cellsets:
        for _ in range(per_set):
            cell = (rng.randint(1, box), rng.randint(1, box))
            mutant = cells ^ {cell}
            if mutant:
                out.append(mutant)
    return out


def validate_oracle(cells):
    """The validation report as JSON, joining every pair of rows.

    Full minors between rows r1 < r2 live on their common columns, so all
    those cells form one component; unlike the library, which joins
    consecutive occupied rows only, this joins every pair of rows.
    Corners come from ``naive_corners``.
    """
    s = set(cells)
    cells = sorted(s)
    index = {p: i for i, p in enumerate(cells)}
    parent = list(range(len(cells)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    covered = [False] * len(cells)
    rows = {}
    for r, c in cells:
        rows.setdefault(r, set()).add(c)
    order = sorted(rows)
    for a, r1 in enumerate(order):
        for r2 in order[a + 1:]:
            common = sorted(rows[r1] & rows[r2])
            if len(common) < 2:
                continue
            anchor = find(index[(r1, common[0])])
            for c in common:
                for r in (r1, r2):
                    i = index[(r, c)]
                    covered[i] = True
                    root = find(i)
                    if root != anchor:
                        parent[root] = anchor

    every_cell_in_minor = all(covered)
    two_connected = every_cell_in_minor and len({find(i) for i in range(len(cells))}) == 1

    seen = {cells[0]}
    stack = [cells[0]]
    while stack:
        r, c = stack.pop()
        for q in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if q in s and q not in seen:
                seen.add(q)
                stack.append(q)
    path_connected = len(seen) == len(cells)

    lower, upper = naive_corners(s)
    ordered = all(a[0] < b[0] for seq in (lower, upper) for a, b in zip(seq, seq[1:]))
    m = max(r for r, _ in s)
    n = max(c for _, c in s)

    messages = []
    if not every_cell_in_minor:
        messages.append(f"{covered.count(False)} cell(s) belong to no full 2-minor")
    if not two_connected and every_cell_in_minor:
        messages.append("the 2-minor hypergraph is disconnected")
    if not path_connected:
        messages.append("cell set is not path-connected")
    if not ordered:
        messages.append("inside-corner rows are not strictly increasing")

    if not path_connected or not ordered:
        sidedness = "other"
    elif len(s) == m * n:
        sidedness = "matrix"
    elif lower and upper:
        sidedness = "two-sided"
    elif bool(lower) != bool(upper):
        sidedness = "one-sided"
    else:
        sidedness = "other"

    return {
        "is_ladder": True,
        "normalized": min(rows) == 1 and min(c for _, c in s) == 1,
        "every_cell_in_minor": every_cell_in_minor,
        "two_connected": two_connected,
        "path_connected": path_connected,
        "sidedness": sidedness,
        "messages": messages,
    }


def compose_oracle(factors):
    """Glue normalized cell sets corner to corner, re-shifting the accumulated set per factor."""
    acc = set(factors[0])
    acc_m = max(r for r, _ in factors[0])
    for nxt in factors[1:]:
        shift = max(c for _, c in nxt) - 1
        acc = {(r, c + shift) for r, c in acc}
        acc |= {(r + acc_m - 1, c) for r, c in nxt}
        acc_m += max(r for r, _ in nxt) - 1
    return acc


def random_staircase_cells(rng, max_m, max_n):
    """Random path-connected interval ladder (normalized), as a cell set."""
    m = rng.randint(2, max_m)
    n = rng.randint(2, max_n)
    right = [n]
    for _ in range(1, m):
        right.append(rng.randint(1, right[-1]))
    left = [0] * m
    left[m - 1] = 1
    for i in range(m - 2, -1, -1):
        left[i] = rng.randint(left[i + 1], min(right[i], right[i + 1]))
    return {(i + 1, c) for i in range(m) for c in range(left[i], right[i] + 1)}


def random_two_connected_staircase(rng, max_m, max_n):
    """Random 2-connected staircase (normalized), as a cell set.

    Rows are intervals [left, right], both ends moving left going down.
    Consecutive rows share two columns or more, the shared intervals of
    rows i-1, i and of rows i, i+1 meet, and the first two rows end in
    column n and the last two start in column 1, so every cell lies in a
    full 2-minor and the minors form one connected hypergraph.
    """
    m = rng.randint(2, max_m)
    n = rng.randint(2, max_n)
    right = [n, n]
    while len(right) < m:
        right.append(max(2, right[-1] - rng.randint(0, 2)))
    left = [1, 1]
    for i in range(m - 3, -1, -1):
        left.insert(0, min(left[0] + rng.randint(0, 2), right[i + 1] - 1, right[i + 2]))
    return {(i + 1, c) for i in range(m) for c in range(left[i], right[i] + 1)}


# ---------------------------------------------------------------------------
# the 2-minor rewriting oracle
#
# Monomials are sorted tuples of (row, col) pairs, one entry per unit of
# exponent.  A rewrite step replaces a diagonal pair by the antidiagonal pair
# of its 2-minor, and only when all four corners of that minor are cells, so
# the oracle does not lean on the closure axiom the library's closed form uses.

def _redexes(cells, ms):
    """Diagonal pairs of ms whose full 2-minor lies in cells, in lexicographic order."""
    support = sorted(set(ms))
    out = []
    for a, (i, j) in enumerate(support):
        for (p, q) in support[a + 1:]:
            if i < p and j < q and (i, j) in cells and (p, q) in cells and (i, q) in cells and (p, j) in cells:
                out.append(((i, j), (p, q)))
    return out


def _apply(ms, u, v):
    lst = list(ms)
    lst.remove(u)
    lst.remove(v)
    lst.append((u[0], v[1]))
    lst.append((v[0], u[1]))
    return tuple(sorted(lst))


def _reachable(cells, ms, memo):
    found = memo.get(ms)
    if found is not None:
        return found
    reds = _redexes(cells, ms)
    if not reds:
        result = frozenset((ms,))
    else:
        acc = set()
        for u, v in reds:
            acc |= _reachable(cells, _apply(ms, u, v), memo)
        result = frozenset(acc)
    memo[ms] = result
    return result


def reachable_normal_forms(cells, ms):
    """Every terminal multiset reachable from ms by any rewriting order."""
    return _reachable(frozenset(cells), tuple(sorted(ms)), {})


def certify_confluence(cells, max_degree=3):
    """Exhaustively check unique normal forms for all monomials up to max_degree.

    Explores every rewrite order from every monomial of degree 2..max_degree
    over the cells, asserting a single terminal monomial of unchanged degree.
    Returns the number of monomials checked.
    """
    cells = frozenset(cells)
    memo = {}
    checked = 0
    for degree in range(2, max_degree + 1):
        for ms in itertools.combinations_with_replacement(sorted(cells), degree):
            outcomes = _reachable(cells, ms, memo)
            assert len(outcomes) == 1, f"non-confluent rewriting from {ms}: {sorted(outcomes)}"
            terminal = next(iter(outcomes))
            assert len(terminal) == degree, f"degree not preserved rewriting {ms} to {terminal}"
            checked += 1
    return checked


def is_normal(cells, support):
    """Whether no rewrite rule applies: no two cells of support are the diagonal of a full minor in cells."""
    return not _redexes(frozenset(cells), support)


def normal_monomials(cells, degree):
    """All normal monomials of the given exact degree, as sorted cell tuples."""
    cells = frozenset(cells)
    return [
        ms for ms in itertools.combinations_with_replacement(sorted(cells), degree) if is_normal(cells, ms)
    ]


# ---------------------------------------------------------------------------
# the class-group oracle
#
# Ordered by (i, j) <= (p, q) iff i <= p and j >= q, a ladder is a distributive
# lattice (closure makes it closed under meet and join) and each 2-minor is a
# Hibi relation, so the ring is the Hibi ring of that lattice (Hibi 1987).  Let
# P be its join-irreducibles and P-hat = P with a new bottom and top.  The
# facets of the ring's cone are the cover relations p < q of P-hat; a cell x
# has valuation [p <= x] - [q <= x] on facet p < q, the bottom lying below
# every cell and the top below none (Stanley 1986, "Two poset polytopes").  The
# class group is Z^facets modulo the valuation vectors of the cells.


def _below(x, y):
    return x[0] <= y[0] and x[1] >= y[1]


def _leq(p, x):
    """The order of P-hat, extended to the cells: the bottom lies below everything, the top above."""
    if p == "bottom" or x == "top":
        return True
    return p != "top" and x != "bottom" and _below(p, x)


@functools.lru_cache(maxsize=8)  # one ladder's facets, coordinates and grading reuse it
def _hibi_covers(cells):
    """The cover relations (p, q) of P-hat, its bottom and top included; cells is a sorted tuple."""
    lower = {x: [y for y in cells if y != x and _below(y, x)] for x in cells}
    covered = {x: [y for y in lower[x] if not any(y != z and _below(y, z) for z in lower[x])] for x in cells}
    joins = [x for x in cells if len(covered[x]) == 1]
    nodes = ["bottom", *joins, "top"]
    return [
        (p, q)
        for p, q in itertools.permutations(nodes, 2)
        if _leq(p, q) and not any(r not in (p, q) and _leq(p, r) and _leq(r, q) for r in nodes)
    ]


def hibi_facets(cells):
    """{generator set: valuation of each cell} over the facets of the Hibi cone of cells."""
    cells = tuple(sorted(set(map(tuple, cells))))
    facets = {}
    for p, q in _hibi_covers(cells):
        valuation = {x: int(_leq(p, x)) - int(_leq(q, x)) for x in cells}
        gens = frozenset(x for x in cells if valuation[x])
        assert gens not in facets, "two facets with one generator set"
        facets[gens] = valuation
    return facets


def hibi_graded(cells):
    """Whether every maximal chain of P-hat has one length; the Hibi ring is Gorenstein iff so (Hibi 1987)."""
    covers = _hibi_covers(tuple(sorted(set(map(tuple, cells)))))
    lengths = {"bottom": {0}}
    # A cover goes up in the order, so each node's chains are known once all its lower covers' are.
    while "top" not in lengths:
        for q in {q for _, q in covers} - lengths.keys():
            below = [p for p, top in covers if top == q]
            if all(p in lengths for p in below):
                lengths[q] = {n + 1 for p in below for n in lengths[p]}
    return len(lengths["top"]) == 1


def _reduce(columns, targets):
    """Row-reduce [columns | targets] over Q: the pivot columns and the reduced target entries of their rows."""
    width = len(columns)
    rows = [[v[e] for v in [*columns, *targets]] for e in range(len(columns[0]))]
    pivots = []
    for k in range(width):
        row = next((r for r in range(len(pivots), len(rows)) if rows[r][k]), None)
        if row is None:
            continue
        rows[len(pivots)], rows[row] = rows[row], rows[len(pivots)]
        pivot = rows[len(pivots)]
        # Entries start as ints and become Fractions only where a pivot divides them.
        support = [i for i, v in enumerate(pivot) if v]
        if pivot[k] != 1:
            scale = Fraction(1, pivot[k])
            for i in support:
                pivot[i] *= scale
        for other in rows:
            if other is not pivot and other[k]:
                factor = other[k]
                for i in support:
                    other[i] -= factor * pivot[i]
        pivots.append(k)
    assert not any(any(r[width:]) for r in rows[len(pivots):]), "no solution"
    return pivots, [r[width:] for r in rows[:len(pivots)]]


def hibi_coordinates(cells, divisors, basis):
    """Each divisor's class in the basis; divisors are lists, and basis entries, of facet generator sets."""
    facets = hibi_facets(cells)
    order = list(facets)
    cells = sorted(set(map(tuple, cells)))
    assert all(gens in facets for gens in [*basis, *(g for divisor in divisors for g in divisor)]), "not a facet"
    columns = [[facets[f][x] for f in order] for x in cells]
    columns += [[int(f == gens) for f in order] for gens in basis]
    targets = [[sum(f == gens for gens in divisor) for f in order] for divisor in divisors]
    pivots, solved = _reduce(columns, targets)
    # The basis columns come last, so they are pivots iff independent modulo the cells' valuations.
    assert pivots[len(pivots) - len(basis):] == list(range(len(cells), len(columns))), "basis is dependent"
    assert len(pivots) == len(order), "basis does not span"
    coords = [[row[t] for row in solved[len(pivots) - len(basis):]] for t in range(len(divisors))]
    assert all(c.denominator == 1 for coord in coords for c in coord)
    return [[int(c) for c in coord] for coord in coords]


# ---------------------------------------------------------------------------
# the bounded ideal oracle
#
# Every cell multiset of degree < d is multiplied by every generator and the
# product rewritten to its normal form by the rewriting oracle above, using
# none of the library's closed forms (multichains, realizable content).

def _rewritten(cells, ms, memo):
    """The one terminal monomial that rewriting reaches from ms (unpacking fails if there are more)."""
    (terminal,) = _reachable(cells, tuple(sorted(ms)), memo)
    return terminal


def ideal_monomials_oracle(cells, gens, d):
    """Normal forms of all degree <= d monomials in the ideal generated by gens."""
    cells = frozenset(cells)
    memo = {}
    return {
        _rewritten(cells, t + (tuple(g),), memo)
        for degree in range(d)
        for t in normal_monomials(cells, degree)
        for g in gens
    }


def intersect_oracle(cells, gens1, gens2, d):
    """Members of both degree <= d ideals that are not one variable times a lower-degree common member."""
    cells = frozenset(cells)
    memo = {}
    common = ideal_monomials_oracle(cells, gens1, d) & ideal_monomials_oracle(cells, gens2, d)
    multiples = {_rewritten(cells, t + (x,), memo) for t in common if len(t) < d for x in cells}
    return common - multiples


def additive_by_minors(cells, gens):
    """Whether every full 2-minor of cells keeps the number of its cells in gens on either diagonal.

    The oracle for the library's additivity pass: a set whose count every
    2-minor rewrite keeps.
    """
    g = set(map(tuple, gens))
    for minor in full_minors(cells):
        (i, j), (p, q) = min(minor), max(minor)
        if ((i, j) in g) + ((p, q) in g) != ((i, q) in g) + ((p, j) in g):
            return False
    return True


def child_env():
    """The environment in which a child process imports the same ladderdet as the suite."""
    import ladderdet  # for its location only; nothing above uses the library

    src = os.path.dirname(os.path.dirname(ladderdet.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# ---------------------------------------------------------------------------
# the cutting oracle

def spans_from_corners(m, n, lower, upper):
    """The first and the last column of each row 1..m of the analyzable m x n
    ladder with these corners, in any order: lo_r is the column of the first
    lower corner below row r, or 1 if there is none, and hi_r the column of
    the last upper corner above row r, or n if there is none."""
    los = [min(((a, b) for a, b in lower if a > r), default=(m + 1, 1))[1] for r in range(1, m + 1)]
    his = [max(((a, b) for a, b in upper if a < r), default=(0, n))[1] for r in range(1, m + 1)]
    return los, his


def decompose_by_cutting(ladder):
    """The factorization made by cutting every row and merging column runs.

    The oracle for ``decompose``, with or without a corner to cut at.  It
    finds the coincidental corners by sorting the intersection of the two
    corner lists, clips every row of each region to the columns between
    its cuts, sorts and merges the clipped spans into the factor's columns,
    builds each factor from its spans, surveying its rows again, glues them
    back and checks the factors with ``Cell``s rebuilt from each corner.
    Each factor's offset is the closed form (cc[u-1].row - 1, cc[u].col - 1),
    with Y's edges (1, n) and (m, 1) at the ends, not the running sums that
    ``decompose`` takes from ``_offsets``.  Only the glue and the ladder
    constructor are the library's.
    """
    from ladderdet import Cell, Factorization, Ladder, LadderError, corners, require_analyzable, validate
    from ladderdet.ladders import _glue

    require_analyzable(ladder)
    prof = corners(ladder)
    cc = tuple(sorted(set(prof.lower) & set(prof.upper)))
    _, los, his, _ = ladder._spans
    cuts = [Cell(1, ladder.n), *cc, Cell(ladder.m, 1)]
    factors = []
    for (top, hi), (bottom, lo) in zip(cuts, cuts[1:]):
        f_los = [max(c, lo) for c in los[top - 1 : bottom]]
        f_his = [min(c, hi) for c in his[top - 1 : bottom]]
        cols = _merged_columns(f_los, f_his)
        factors.append(Ladder._from_spans(list(range(top, bottom + 1)), f_los, f_his, cols))
    offsets = tuple((top - 1, lo - 1) for (top, _), (_, lo) in zip(cuts, cuts[1:]))
    spans = _glue([f._spans for f in factors])
    for kind in ("lower", "upper"):
        glued = []
        for cut, f, (dr, dc) in zip((None, *cc), factors, offsets):
            if cut:
                glued.append(cut)
            glued += [Cell(r + dr, c + dc) for r, c in getattr(corners(f), kind)]
        if tuple(glued) != getattr(prof, kind):
            raise LadderError(f"cutting oracle: the factors' {kind} corners are not the ladder's")
    for u, f in enumerate(factors):
        if set(corners(f).lower) & set(corners(f).upper) or not validate(f).two_connected:
            raise LadderError(f"cutting oracle: factor {u} is not 2-connected and free of coincidental corners")
    if tuple(map(tuple, spans)) != tuple(map(tuple, ladder._spans)):
        raise LadderError("cutting oracle: composing the factors does not recover the ladder")
    return Factorization(ladder, tuple(factors), cc, offsets)


def _merged_columns(los, his):
    """The columns that lie in some span lo..hi, in order, by sorting and merging the spans."""
    runs = []
    for lo, hi in sorted(zip(los, his)):
        if runs and lo <= runs[-1][1] + 1:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo, hi])
    return [c for lo, hi in runs for c in range(lo, hi + 1)]


# ---------------------------------------------------------------------------
# the factor-embedding oracle
#
# Every global basis label is named by the factor that owns it and its role
# there, through dicts from rows and corner cells to roles, with no use of
# the contiguous label blocks ``classify`` lays the images out in.

class FactorRole(NamedTuple):
    """Double-indexed name of a basis class: q_{u,index} or p_{u,index}."""

    factor: int
    kind: str  # "q" or "p"
    index: int

    def __str__(self):
        return f"{self.kind}[{self.factor},{self.index}]"


def relabel(factorization):
    """Name each global basis label by its factor and local role, in basis order.

    The map is a bijection onto the roles of all factors.  A Q keyed to the
    u-th coincidental corner row belongs to the factor below the cut as
    q_{u,1}; the P at that corner becomes p_{u,0}.  All other labels keep
    their position within the factor that owns the corner.
    """
    from ladderdet import Cell, LadderError, P, Q, corners

    ladder = factorization.ladder
    prof = corners(ladder)
    cc = factorization.coincidental
    cc_of = {cell: u + 1 for u, cell in enumerate(cc)}

    q_row_role = {}
    upper_cell_role = {}
    for u, (factor, (dr, dc)) in enumerate(zip(factorization.factors, factorization.offsets)):
        fprof = corners(factor)
        top_row = 1 if u == 0 else cc[u - 1].row
        key_rows = [top_row] + [p.row + dr for p in fprof.lower]
        for i, row in enumerate(key_rows, start=1):
            if row in q_row_role:
                raise LadderError("relabeling failure: duplicate row key")
            q_row_role[row] = FactorRole(u, "q", i)
        for j, p in enumerate(fprof.upper, start=1):
            upper_cell_role[Cell(p.row + dr, p.col + dc)] = FactorRole(u, "p", j)

    pairs = []
    le = lower_ext(prof)
    for i in range(1, prof.h + 2):
        row = le[i - 1].row
        role = q_row_role.get(row)
        if role is None:
            raise LadderError(f"relabeling failure: no factor owns the row ideal keyed to row {row}")
        pairs.append((Q(i), role))
    for j, cell in enumerate(prof.upper, start=1):
        if cell in cc_of:
            pairs.append((P(j), FactorRole(cc_of[cell], "p", 0)))
        else:
            role = upper_cell_role.get(cell)
            if role is None:
                raise LadderError(f"relabeling failure: no factor owns the upper corner {cell}")
            pairs.append((P(j), role))

    roles = dict(pairs)
    if len(set(roles.values())) != len(roles):
        raise LadderError("relabeling is not a bijection")
    if len(roles) != prof.h + prof.k + 1:
        raise LadderError("relabeling failure: wrong label count")
    return roles


def embed_factor_omega(factorization, u):
    """Image of the u-th factor's canonical class inside the composite group, via ``relabel``.

    The oracle for ``classify``'s factor images, which lay each factor's
    canonical class into a contiguous block of labels instead.  The
    factor-local coefficient on q_{u,1} is carried to both q_{u,1} and
    p_{u,0} for u >= 1; factor 0 has no p-role at the cut.
    """
    from ladderdet import DivisorClass, Q, canonical_class

    label_of = {role: label for label, role in relabel(factorization).items()}
    local = dict(canonical_class(factorization.factors[u]).items())
    coeffs = {label_of[FactorRole(u, label.kind.lower(), label.index)]: c for label, c in local.items()}
    if u >= 1 and Q(1) in local:
        coeffs[label_of[FactorRole(u, "p", 0)]] = local[Q(1)]
    return DivisorClass(factorization.ladder, coeffs)


def classes_by_addition(report):
    """The classes of an ``SdmReport`` as sums of the factor images, in theta order.

    The oracle for ``SdmReport.classes``, which selects coordinates from the
    disjoint supports instead: this one builds each image with
    ``embed_factor_omega``, not from the report's runs, adds with the
    library's ``DivisorClass.__add__`` and its group check, and assumes
    nothing about the supports.  Doubling from the last factor keeps theta
    order.
    """
    from ladderdet import DivisorClass, decompose

    ladder = report.omega.ladder
    factorization = decompose(ladder)
    classes = [DivisorClass(ladder)]
    for u in reversed(range(len(report.factors))):
        if not report.factors[u].gorenstein:
            image = embed_factor_omega(factorization, u)
            classes += [image + c for c in classes]
    return tuple(classes)


def thetas_in_order(report):
    """The theta vectors of an ``SdmReport``, as lists: every 0/1 vector over
    its factors, 0 on each Gorenstein one, in lexicographic order."""
    gorenstein = [f.gorenstein for f in report.factors]
    return [
        list(theta) for theta in itertools.product((0, 1), repeat=len(gorenstein))
        if not any(t and g for t, g in zip(theta, gorenstein))
    ]


def factor_image(report, factor):
    """The dense class of a ``FactorReport``'s image: zero off its runs ``q`` and ``p``."""
    from ladderdet import DivisorClass

    vec = [0] * report.rank
    for start, run in (factor.q, factor.p):
        vec[start : start + len(run)] = run
    return DivisorClass._make(report.omega.ladder, tuple(vec))


def sdm_json(report):
    """The ``sdm --json`` document of an ``SdmReport``, its classes and thetas as lists."""
    doc = report._json_doc()
    return {**doc, "classes": list(doc["classes"]), "thetas": list(doc["thetas"])}


# ---------------------------------------------------------------------------
# the class-group label oracle
#
# The prime ideals and classes of the labels, read off the sentinel-extended
# corner list ``lower_ext`` and the ladder's cells, with a scan of every
# lower corner per upper corner; the library indexes ``lower`` instead.

def lower_ext(prof):
    """(a_0, b_0) = (1, n), the lower inside corners of a ``CornerProfile`` in
    row order, then (a_{h+1}, b_{h+1}) = (m, 1)."""
    from ladderdet import Cell

    return (Cell(1, prof.n), *prof.lower, Cell(prof.m, 1))


def label_generators_oracle(ladder, label):
    """The cells that generate the prime of a Q, P or QPrime label: Q(i) is
    row a_{i-1}, P(j) the cells weakly above and left of upper corner j, and
    QPrime(i) column b_i."""
    from ladderdet import QPrime, corners

    prof = corners(ladder)
    if isinstance(label, QPrime):
        col = lower_ext(prof)[label.index].col
        return {p for p in ladder.cells if p.col == col}
    if label.kind == "Q":
        row = lower_ext(prof)[label.index - 1].row
        return {p for p in ladder.cells if p.row == row}
    c, d = prof.upper[label.index - 1]
    return {p for p in ladder.cells if p.row <= c and p.col <= d}


def canonical_class_oracle(ladder):
    """lambda_i Q(i) and delta_j P(j), as a dict from label to coefficient:
    lambda_i = a_i + b_i - a_{i-1} - b_{i-1} and delta_j = a_i + b_i - c_j - d_j
    for the least i with a_i > c_j."""
    from ladderdet import P, Q, corners

    prof = corners(ladder)
    le = lower_ext(prof)
    coeffs = {Q(i): le[i].row + le[i].col - le[i - 1].row - le[i - 1].col for i in range(1, prof.h + 2)}
    for j, (c, d) in enumerate(prof.upper, start=1):
        a, b = next(p for p in le if p.row > c)
        coeffs[P(j)] = a + b - c - d
    return coeffs


def qprime_class_oracle(ladder, i):
    """-Q(i) minus every P(j) whose corner (c_j, d_j) has a_{i-1} <= c_j and b_i <= d_j."""
    from ladderdet import P, Q, corners

    prof = corners(ladder)
    le = lower_ext(prof)
    coeffs = {Q(i): -1}
    for j, (c, d) in enumerate(prof.upper, start=1):
        if le[i - 1].row <= c and le[i].col <= d:
            coeffs[P(j)] = -1
    return coeffs
