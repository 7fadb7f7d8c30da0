"""Seeded input generator for the benchmark.

Ladders are built directly as row intervals [s_r, e_r] whose starts and
ends weakly decrease down the rows; that makes the rectangle-closure axiom
hold by construction.  They are 2-connected when consecutive rows share at
least two columns, rows two apart share one, and the first two rows end
(the last two rows start) in the same column.  Nothing here imports
ladderdet: the library only ever sees the text these functions produce.
"""

from __future__ import annotations

import json

import oracle

L1_ASCII = ".##\n###\n###\n##.\n##."
L2_ASCII = ".####\n.####\n.###.\n###..\n###.."
L3_ASCII = ".##\n.##\n###\n##.\n##."


def rows_of_ascii(text):
    return [(line.index("#") + 1, line.rindex("#") + 1) for line in text.split("\n")]


def cells_of(rows):
    return [(r, c) for r, (s, e) in enumerate(rows, start=1) for c in range(s, e + 1)]


def to_json(rows):
    return json.dumps({"cells": [list(p) for p in cells_of(rows)]})


def to_ascii(rows):
    n = rows[0][1]
    return "\n".join("." * (s - 1) + "#" * (e - s + 1) + "." * (n - e) for s, e in rows)


def to_text(rows, rng):
    return to_json(rows) if rng.random() < 0.5 else to_ascii(rows)


def two_connected(rows):
    m = len(rows)
    if m < 2:
        return False
    s = [a for a, _ in rows]
    e = [b for _, b in rows]
    if e[0] != e[1] or s[-1] != s[-2]:
        return False
    if any(s[r] + 1 > e[r + 1] for r in range(m - 1)):
        return False
    return all(s[r] <= e[r + 2] for r in range(m - 2))


def corner_free(rows):
    """No cell is both a lower and an upper inside corner."""
    s = [a for a, _ in rows]
    e = [b for _, b in rows]
    return not any(
        s[r - 1] == e[r + 1] and s[r] < s[r - 1] and e[r + 1] < e[r] for r in range(1, len(rows) - 1)
    )


def random_rows(rng, m, n, lower=True, upper=True):
    """A 2-connected, corner-free m x n interval ladder.

    ``lower`` lets the starts step (lower inside corners), ``upper`` the
    ends (upper inside corners); with neither it is the full matrix.
    """
    if m < 2 or n < 2:
        raise ValueError("a 2-connected ladder needs at least two rows and columns")
    step = max(1, n // max(2, m // 2))
    while True:
        e = [n, n]
        for _ in range(2, m):
            e.append(e[-1] - rng.randint(1, step) if upper and rng.random() < 0.5 else e[-1])
        s = [1, 1]
        for _ in range(2, m):
            s.append(s[-1] + rng.randint(1, step) if lower and rng.random() < 0.5 else s[-1])
        rows = list(zip(reversed(s), e))
        if two_connected(rows) and corner_free(rows):
            return rows


def gorenstein_rows(rng, m):
    """A square 2-connected, corner-free ladder whose corners all lie on r + s = m + 1."""
    while True:
        e = [m, m]
        for i in range(1, m - 1):
            e.append(m - i if m - i < e[i] and rng.random() < 0.5 else e[i])
        s = [1] * m
        for i in range(m - 2, 0, -1):
            s[i - 1] = m - i if m - i > s[i] and rng.random() < 0.5 else s[i]
        rows = list(zip(s, e))
        if two_connected(rows) and corner_free(rows):
            return rows


def closure_work(rows):
    """Shared columns summed over all row pairs: the work of a row-pair closure or 2-minor scan."""
    s = [a for a, _ in rows]
    e = [b for _, b in rows]
    return sum(max(0, e[j] - s[i] + 1) for i in range(len(rows)) for j in range(i + 1, len(rows)))


def glue(factors):
    """Compose factors corner to corner, the first at the top right.

    The lower-left cell of what is built so far is identified with the
    top-right cell of the next factor, which becomes a coincidental corner.
    """
    acc = list(factors[0])
    for nxt in factors[1:]:
        shift = nxt[0][1] - 1
        acc = [(s + shift, e + shift) for s, e in acc]
        merged = (nxt[0][0], acc[-1][1])
        acc = acc[:-1] + [merged] + list(nxt[1:])
    return acc


def full_rows(m, n):
    return [(1, n)] * m


class Distinct:
    """Remembers every shape handed out, so no ladder is used twice in a run."""

    def __init__(self):
        self._seen = set()

    def fresh(self, rows):
        key = hash(tuple(rows))
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


def corpus_factor(rng, side):
    """One corner-free factor for a composite: matrix, one- or two-sided, or Gorenstein."""
    m, n = rng.randint(2, side), rng.randint(2, side)
    kind = rng.random()
    if kind < 0.25:
        return full_rows(m, n)
    if kind < 0.4 and m >= 3:
        return gorenstein_rows(rng, m)
    if m < 3:
        return full_rows(m, n)
    return random_rows(rng, m, n, lower=kind < 0.8, upper=kind >= 0.6)


def corpus_ladder(rng, distinct):
    """A fresh ladder of at most 13 x 13 with its expected analysis.

    Half are single one- or two-sided ladders; the rest compose 2..6
    corner-free factors, so the generator knows every factor and whether
    it is Gorenstein.
    """
    while True:
        if rng.random() < 0.5:
            m, n = rng.randint(4, 12), rng.randint(4, 12)
            kind = rng.random()
            factors = [random_rows(rng, m, n, lower=kind < 0.7, upper=kind >= 0.3)]
        else:
            k = rng.randint(2, 6)
            side = max(2, 13 // k + 1)
            factors = [corpus_factor(rng, side) for _ in range(k)]
        rows = glue(factors)
        if distinct.fresh(rows):
            break
    gorenstein = [oracle.is_gorenstein(cells_of(f)) for f in factors]
    return {
        "text": to_text(rows, rng),
        "cells": cells_of(rows),
        "factors": len(factors),
        "count": 2 ** gorenstein.count(False),
    }


def random_monomial(rng, cells, degree):
    return oracle.exponents(rng.choices(cells, k=degree))


def equal_partner(rng, cells, exps):
    """Another realization of the same class, by random column swaps inside the ladder."""
    cellset = set(cells)
    ms = oracle.expand(exps)
    for _ in range(2 * len(ms)):
        a, b = rng.randrange(len(ms)), rng.randrange(len(ms))
        (i, j), (p, q) = ms[a], ms[b]
        if i != p and j != q and (i, q) in cellset and (p, j) in cellset:
            ms[a], ms[b] = (i, q), (p, j)
    return oracle.exponents(ms)


def unequal_partner(rng, cells, exps):
    """The same monomial with one variable replaced by a different cell."""
    ms = oracle.expand(exps)
    a = rng.randrange(len(ms))
    ms[a] = rng.choice([p for p in cells if p != ms[a]])
    return oracle.exponents(ms)


def partner(rng, cells, exps):
    """A second monomial for an equality query: equal or not, with even odds."""
    if rng.random() < 0.5:
        return equal_partner(rng, cells, exps)
    return unequal_partner(rng, cells, exps)


def mono_json(exps):
    return json.dumps({"exps": exps})
