"""Reference computations used to check every benchmark operation.

Written from the definitions and the paper's closed forms, without
importing ladderdet, so a defect in the library cannot hide in its own
check.  Cells are (row, col) pairs, 1-based; monomials are exponent lists
``[[row, col, e], ...]`` sorted by cell.
"""

from __future__ import annotations

import itertools
from collections import Counter


def naive_corners(cells):
    """Lower and upper inside corners from the four-cell membership patterns."""
    s = set(cells)
    lower, upper = [], []
    for a, b in s:
        if (a - 1, b) in s and (a, b - 1) in s and (a - 1, b - 1) not in s:
            lower.append((a, b))
        if (a + 1, b) in s and (a, b + 1) in s and (a + 1, b + 1) not in s:
            upper.append((a, b))
    return sorted(lower), sorted(upper)


def extent(cells):
    return max(r for r, _ in cells), max(c for _, c in cells)


def sidedness(cells, lower, upper):
    m, n = extent(cells)
    if len(cells) == m * n:
        return "matrix"
    if lower and upper:
        return "two-sided"
    return "one-sided" if lower or upper else "other"


def is_gorenstein(cells):
    """m = n and every inside corner (r, s) lies on the antidiagonal r + s = m + 1."""
    m, n = extent(cells)
    lower, upper = naive_corners(cells)
    return m == n and all(r + s == m + 1 for r, s in lower + upper)


def _lower_ext(cells, lower):
    m, n = extent(cells)
    return [(1, n)] + lower + [(m, 1)]


def canonical_class(cells):
    """The paper's canonical class as ``{"Q": {i: coeff}, "P": {j: coeff}}``, zeros omitted."""
    lower, upper = naive_corners(cells)
    le = _lower_ext(cells, lower)
    q = {}
    for i in range(1, len(lower) + 2):
        q[str(i)] = le[i][0] + le[i][1] - le[i - 1][0] - le[i - 1][1]
    p = {}
    for j, (c, d) in enumerate(upper, start=1):
        i_j = next(i for i in range(1, len(le)) if le[i][0] > c)
        p[str(j)] = le[i_j][0] + le[i_j][1] - c - d
    return {"Q": {k: v for k, v in q.items() if v}, "P": {k: v for k, v in p.items() if v}}


def ideal_generators(cells, kind, index):
    """Q(i): the cells of row a_{i-1}; P(j): the cells weakly north-west of the j-th upper corner."""
    lower, upper = naive_corners(cells)
    if kind == "Q":
        row = _lower_ext(cells, lower)[index - 1][0]
        return {p for p in cells if p[0] == row}
    c, d = upper[index - 1]
    return {p for p in cells if p[0] <= c and p[1] <= d}


def _key(multiset):
    return tuple(sorted(r for r, _ in multiset)), tuple(sorted(c for _, c in multiset))


def exponents(multiset):
    """A multiset of cells as a sorted exponent list."""
    return [[r, c, e] for (r, c), e in sorted(Counter(multiset).items())]


def expand(exps):
    return [(r, c) for r, c, e in exps for _ in range(e)]


def _from_key(rows, cols):
    """Rows ascending zipped with columns descending."""
    return exponents(zip(rows, sorted(cols, reverse=True)))


def normal_form(exps):
    """Closed-form normal form modulo the 2-minors of a ladder."""
    return _from_key(*_key(expand(exps)))


def equal_mod_minors(exps1, exps2):
    """Equal in the quotient ring iff the row and the column multisets agree."""
    return _key(expand(exps1)) == _key(expand(exps2))


def intersect_bounded(cells, gens1, gens2, d):
    """Minimal members of degree <= d of the intersection of two variable-generated ideals.

    Brute force over every cell multiset of degree <= d: a class lies in the
    ideal generated by G when one of its realizations uses a cell of G, and
    a member is minimal when no smaller member times a realizable monomial
    gives it.
    """
    cells = sorted(cells)
    g1, g2 = set(gens1), set(gens2)
    realizable = {}
    in1, in2 = set(), set()
    for deg in range(1, d + 1):
        realizable[deg] = set()
        for ms in itertools.combinations_with_replacement(cells, deg):
            key = _key(ms)
            realizable[deg].add(key)
            if any(p in g1 for p in ms):
                in1.add(key)
            if any(p in g2 for p in ms):
                in2.add(key)
    common = in1 & in2
    minimal = []
    for rows, cols in common:
        reducible = False
        for rows2, cols2 in common:
            gap = len(rows) - len(rows2)
            if gap < 1:
                continue
            rdiff = Counter(rows) - Counter(rows2)
            cdiff = Counter(cols) - Counter(cols2)
            if sum(rdiff.values()) == gap and sum(cdiff.values()) == gap:
                if (tuple(sorted(rdiff.elements())), tuple(sorted(cdiff.elements()))) in realizable[gap]:
                    reducible = True
                    break
        if not reducible:
            minimal.append(_from_key(rows, cols))
    return sorted(minimal)
