"""Exact arithmetic in the divisor class group of a ladder determinantal ring.

For a 2-connected ladder with h lower and k upper inside corners the class
group is free abelian of rank h + k + 1, with basis classes Q(1)..Q(h+1)
(row ideals keyed to the rows a_0, ..., a_h) and P(1)..P(k) (one ideal per
upper corner).  A class is a dense integer tuple over these labels, in that
order; labels are checked once when a class is built from a mapping, and
sums and differences are element-wise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Set
from itertools import chain, repeat
from operator import add, neg, sub
from typing import NamedTuple

from .ladders import (
    Cell, CornerProfile, Ladder, LadderError, _new, _span_cells, _span_contains, corners, is_int, require_analyzable
)


class BasisLabel(NamedTuple):
    kind: str  # "Q" or "P"
    index: int

    def __str__(self):
        return f"{self.kind}{self.index}"


class QPrime(NamedTuple):
    """Label for the auxiliary column ideal paired with Q(index)."""

    index: int


def Q(i: int) -> BasisLabel:
    return BasisLabel("Q", i)


def P(j: int) -> BasisLabel:
    return BasisLabel("P", j)


def _labels(ladder: Ladder) -> tuple[BasisLabel, ...]:
    """Q(1)..Q(h+1), P(1)..P(k): the coordinates of every class over the ladder."""
    prof = corners(ladder)
    fields = chain(zip(repeat("Q"), range(1, prof.h + 2)), zip(repeat("P"), range(1, prof.k + 1)))
    return tuple(map(_new, repeat(BasisLabel), fields))


def _check_label(prof: CornerProfile, label) -> None:
    """Raise LadderError unless label is one of Q(1)..Q(h+1), P(1)..P(k).

    The messages name the label's type or bound, not the label or index,
    which may be an integer too long for str().
    """
    if not isinstance(label, BasisLabel):
        raise LadderError(f"not a basis label: got type {type(label).__name__}")
    kind, index = label
    whole = type(index) is int or is_int(index)
    if kind == "Q":
        if not (whole and 1 <= index <= prof.h + 1):
            raise LadderError(f"Q label index out of range 1..{prof.h + 1} (h = {prof.h})")
    elif kind == "P":
        if not (whole and 1 <= index <= prof.k):
            raise LadderError(f"P label index out of range 1..{prof.k} (k = {prof.k})")
    else:
        raise LadderError(f"unknown label kind: expected 'Q' or 'P', got type {type(kind).__name__}")


def _check_qprime(prof: CornerProfile, i) -> None:
    """Raise LadderError unless i is the index of one of QPrime(1)..QPrime(h+1)."""
    if not (is_int(i) and 1 <= i <= prof.h + 1):
        raise LadderError(f"QPrime index out of range 1..{prof.h + 1} (h = {prof.h})")


class DivisorClass:
    """Dense integer vector over the basis labels of a fixed ambient ladder."""

    __slots__ = ("ladder", "_vec")

    def __init__(self, ladder: Ladder, coeffs=None):
        prof = corners(ladder)
        vec = [0] * (prof.h + prof.k + 1)
        if coeffs:
            items = coeffs.items() if hasattr(coeffs, "items") else coeffs
            for label, c in items:
                _check_label(prof, label)
                if not is_int(c):
                    raise LadderError(f"coefficient of {label} must be an integer, got {c!r}")
                vec[label.index - 1 if label.kind == "Q" else prof.h + label.index] += c
        _set_ladder(self, ladder)
        _set_vec(self, tuple(vec))

    @classmethod
    def _make(cls, ladder: Ladder, vec: tuple[int, ...]) -> "DivisorClass":
        """A class from a coordinate tuple already in basis order, unchecked."""
        self = object.__new__(cls)
        _set_ladder(self, ladder)
        _set_vec(self, vec)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("DivisorClass is immutable")

    def items(self) -> tuple:
        """The (label, coefficient) pairs with a nonzero coefficient, in basis order.

        Coordinate i is Q(i + 1) up to h and P(i - h) after it; only the
        labels of nonzero coordinates are built.
        """
        h = corners(self.ladder).h
        return tuple((Q(i + 1) if i <= h else P(i - h), c) for i, c in enumerate(self._vec) if c)

    @property
    def is_zero(self) -> bool:
        return not any(self._vec)

    def _require_same_group(self, other):
        if not isinstance(other, DivisorClass):
            raise TypeError("expected a DivisorClass")
        if other.ladder is not self.ladder and other.ladder != self.ladder:
            raise LadderError("divisor classes live over different ladders")

    def __add__(self, other):
        self._require_same_group(other)
        return DivisorClass._make(self.ladder, tuple(map(add, self._vec, other._vec)))

    def __neg__(self):
        return DivisorClass._make(self.ladder, tuple(-c for c in self._vec))

    def __sub__(self, other):
        self._require_same_group(other)
        return DivisorClass._make(self.ladder, tuple(map(sub, self._vec, other._vec)))

    def __eq__(self, other):
        return (
            isinstance(other, DivisorClass)
            and (self.ladder is other.ladder or self.ladder == other.ladder)
            and self._vec == other._vec
        )

    def __hash__(self):
        return hash(self._vec)

    def __repr__(self):
        return f"DivisorClass({self})"

    def __str__(self):
        items = self.items()
        return _format([l for l, _ in items], [c for _, c in items])

    def to_json_dict(self) -> dict:
        # Q(i) sits at position i - 1 and P(j) at h + j.
        h1 = corners(self.ladder).h + 1
        return _json_runs(1, self._vec[:h1], 1, self._vec[h1:])


def _json_runs(q_first: int, q, p_first: int, p) -> dict:
    """The JSON of the class that is zero but on a run q of Q labels from
    Q(q_first) and a run p of P labels from P(p_first)."""
    return {
        "Q": {str(i): c for i, c in enumerate(q, q_first) if c},
        "P": {str(j): c for j, c in enumerate(p, p_first) if c},
    }


def _format(labels, vec: tuple[int, ...]) -> str:
    """``str`` of the class with coordinates vec over the basis labels, or over their names."""
    return _lead(_terms(labels, vec))


def _terms(labels, vec) -> str:
    """The nonzero coordinates as " + c*label" and " - c*label" terms, c left out when it is 1."""
    return "".join(
        (" + " if c > 0 else " - ") + (f"{label}" if abs(c) == 1 else f"{abs(c)}*{label}")
        for label, c in zip(labels, vec)
        if c
    )


def _lead(terms: str) -> str:
    """A class's text from its ``_terms``: a first " + " is dropped and a first " - " made "-"; none is "0"."""
    if not terms:
        return "0"
    return terms[3:] if terms[1] == "+" else "-" + terms[3:]


# Slot setters past the __setattr__ that keeps a class immutable.
_set_ladder = DivisorClass.ladder.__set__
_set_vec = DivisorClass._vec.__set__


# ---------------------------------------------------------------------------
# basis, ideals, canonical class

def basis(ladder: Ladder) -> tuple[BasisLabel, ...]:
    """The free basis [Q(1)..Q(h+1), P(1)..P(k)] of the class group."""
    require_analyzable(ladder)
    return _labels(ladder)


def ideal_generators(ladder: Ladder, label) -> Set[Cell]:
    """Variable generators of the height-1 prime ideal named by the label.

    Q(i) is generated by the cells in row a_{i-1}; P(j) by the cells weakly
    above and left of the j-th upper corner; QPrime(i) by the cells in
    column b_i, the column whose class ``qprime_class`` gives.

    The set is read-only and held as its row runs, built in O(rows).  It
    equals, and hashes as, the frozenset of its cells, iterates them in
    order, and tests membership in O(log rows).
    """
    return _RowRuns(*_generator_runs(ladder, label))


def _generator_runs(ladder: Ladder, label) -> tuple:
    """The rows of the generators of a label's prime, in order, the first
    and the last column of each, and the ladder's columns 1..n: the
    generators' ``_spans``.  On an analyzable ladder each row of them is one
    run.

    Every row of Y is the whole of its span, and lo and hi never increase
    down the rows (``ladders`` module docstring, "Closed forms").  So the
    rows that hold a column c run from the first with lo <= c to the last
    with hi >= c, and the rows 1..c_j of P(j) that reach column d_j are
    those from the first with lo <= d_j.  Each of them ends past d_j: an
    upper corner (c_j, d_j) has d_j = hi_{c_j + 1} < hi_{c_j}.
    """
    require_analyzable(ladder)
    prof = corners(ladder)
    _, los, his, cols = ladder._spans  # analyzable: rows 1..m, each the whole of its span, and cols 1..n
    # (a_i, b_i) is lower[i - 1], with (a_0, b_0) = (1, n) and (a_{h+1}, b_{h+1}) = (m, 1).
    lower = prof.lower
    if isinstance(label, QPrime):
        i = label.index
        _check_qprime(prof, i)
        col = lower[i - 1].col if i <= len(lower) else 1
        top, bottom = bisect_left(los, -col, key=neg), bisect_right(his, -col, key=neg)
        ends = (col,) * (bottom - top)
        return range(top + 1, bottom + 1), ends, ends, cols
    _check_label(prof, label)
    kind, i = label
    if kind == "Q":
        row = lower[i - 2].row if i > 1 else 1
        return (row,), (los[row - 1],), (his[row - 1],), cols
    c, d = prof.upper[i - 1]
    top = bisect_left(los, -d, 0, c, key=neg)
    return range(top + 1, c + 1), los[top:c], (d,) * (c - top), cols


class _RowRuns(Set):
    """An immutable set of cells held as row runs, in the ``_spans`` form of
    a ``Ladder`` (``rows``, ``los``, ``his``, ``cols``): row ``rows[i]``
    holds the columns of ``cols`` from ``los[i]`` to ``his[i]``, the rows
    increasing.  ``cols`` is the ladder's occupied columns, 1..n on an
    analyzable ladder, so each row is one run; the set reads its cells as a
    ladder does.

    It equals, and hashes as, the frozenset of its cells; its set operators
    give frozensets.
    """

    __slots__ = ("_spans", "_len")

    def __new__(cls, rows, los, his, cols):
        self = object.__new__(cls)
        _set_spans(self, (rows, los, his, cols))
        _set_len(self, sum(his) - sum(los) + len(rows))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("a generator set is immutable")

    def __len__(self) -> int:
        return self._len

    __iter__ = _span_cells
    __contains__ = _span_contains
    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, cells):
        return frozenset(cells)

    def __reduce__(self):  # copy and pickle, past the __setattr__ that keeps the set immutable
        return type(self), self._spans

    def __repr__(self):
        return f"{type(self).__name__}({list(self)})"


_set_spans = _RowRuns._spans.__set__
_set_len = _RowRuns._len.__set__


def canonical_class(ladder: Ladder) -> DivisorClass:
    """The canonical class: sum of lambda_i Q(i) and delta_j P(j).

    lambda_i = a_i + b_i - a_{i-1} - b_{i-1} over the sentinel-extended lower
    corners; delta_j = a_{i_j} + b_{i_j} - c_j - d_j where i_j is the least i
    with a_i > c_j.  The upper corners' rows c_j increase, so i_j never
    decreases, and one merge pass finds them all: O(h + k).
    """
    require_analyzable(ladder)
    m, n, lower, upper = corners(ladder)
    sums = [1 + n, *map(sum, lower), m + 1]  # a_i + b_i for i = 0..h+1
    vec = list(map(sub, sums[1:], sums))
    i_j, h = 1, len(lower)
    for c, d in upper:
        while i_j <= h and lower[i_j - 1].row <= c:  # a_{h+1} = m lies below every upper corner
            i_j += 1
        vec.append(sums[i_j] - c - d)
    return DivisorClass._make(ladder, tuple(vec))


def qprime_class(ladder: Ladder, i: int) -> DivisorClass:
    """[QPrime(i)] expressed in the basis: -Q(i) minus the P(j) dominating (a_{i-1}, b_i)."""
    require_analyzable(ladder)
    prof = corners(ladder)
    _check_qprime(prof, i)
    lower = prof.lower
    a_prev = lower[i - 2].row if i > 1 else 1
    b_i = lower[i - 1].col if i <= len(lower) else 1
    coeffs: dict[BasisLabel, int] = {Q(i): -1}
    for j, (c, d) in enumerate(prof.upper, start=1):
        if a_prev <= c and b_i <= d:
            coeffs[P(j)] = -1
    return DivisorClass(ladder, coeffs)

