"""Ladders of indeterminates: parsing, validation, corners, and composition.

A ladder is a finite set of grid cells closed under completing rectangles:
whenever (i, j) and (p, q) both lie in the set with i <= p and j <= q, the
cells (i, q) and (p, j) must lie in it too.  Rows grow downward, columns grow
rightward, and all indices are 1-based.

Every structural pass here looks at consecutive occupied rows only, which
makes it linear in the number of rows once they are held as spans ("Spans"
below); only parsing reads every cell.  That rests on one lemma.  Let
r1 < r2 < r3 be occupied rows with column sets C1, C2, C3, and let the
pairs (r1, r2) and (r2, r3) satisfy the closure axiom.  Then so does
(r1, r3).  Proof: take a in C1 and c in C3 with a <= c, and any b in C2.
If b <= c, closure on (r2, r3) puts c in C2, then closure on (r1, r2)
puts c in C1 and a in C2, and closure on (r2, r3) puts a in C3.  If b > c,
closure on (r1, r2) puts b in C1 and a in C2, closure on (r2, r3) puts c
in C2 and a in C3, and closure on (r1, r2) puts c in C1.  Corollary: if
columns j < q both lie in rows r1 and r3 of a ladder, they lie in C2 too.
For b in C2: if b <= q, closure on (r2, r3) puts q in C2 and then closure
on (r1, r2) puts j in C2; if b > q, closure on (r1, r2) puts j in C2 and
then closure on (r2, r3) puts q in C2.  So a full 2-minor on rows r1 < r3
is tied to the other cells of its columns through the minors of the
consecutive occupied rows between them.

Two row-level facts follow, and :func:`validate` rests on them.  Let
r_0 < ... < r_t be the occupied rows, K_i the columns rows r_i and r_{i+1}
share, and call B_i = {r_i, r_{i+1}} x K_i a block when |K_i| >= 2.

Block chain.  The cells that lie in a full 2-minor are exactly the union of
the blocks, and Y is 2-connected exactly when that union is all of Y, every
K_i has at least two columns, and K_{i-1} and K_i meet for 0 < i < t.
Proof: for j < q in K_i the four cells (r_i|r_{i+1}, j|q) form a full
minor, so every block lies in the cover and is connected; by the corollary
every full minor on rows r_a < r_b has its two columns in each K_i between
them, so its cells lie in blocks that the chain of those blocks joins.
Blocks i and j with |i - j| >= 2 share no row, hence no cell, and blocks
i - 1 and i meet exactly in {r_i} x (K_{i-1} & K_i).  So the components of
the cover are the maximal stretches of consecutive blocks in which each
block meets the next; if some K_i has fewer than two columns, no block
holds cells of both rows r_i and r_{i+1}.

Runs.  Y is path-connected exactly when every row is one run of
consecutive columns, no empty row lies between occupied ones, and each two
adjacent rows share a column.  Proof: the axiom for rows r1 < r2 says they
agree on every column from min C1 to max C2.  So if row r holds j < g < q
but not g, no row holds g: any other row holding g would share such a
window with row r, and g would lie in it.  A path moves one column at a
time, so it cannot get from (r, j) to (r, q).  A path also moves one row
at a time, and it steps from row r to row r + 1 in a column of both.
Conversely, interval rows on consecutive indices whose neighbours share a
column are connected.  So no union-find over the runs of each row is
needed: on a ladder a row with a gap already disconnects it.

Spans.  Let S be the set of occupied columns, lo_i = min C_i and
hi_i = max C_i.  By the proof above a column of S missing from row r_i
lies outside lo_i..hi_i, so C_i = S & [lo_i, hi_i]: a ladder is its
occupied rows, their spans (lo_i, hi_i) and S, and ``Ladder`` holds it so.
A set of cells whose rows are not all of this form is not closed.

Closed forms.  So the closure check, one pass over the pairs of consecutive
occupied rows, also gives the corners and the report from the spans and
the positions p(c) of their ends in S, for |S & [a, b]| = p(b) - p(a) + 1
when a <= b lie in S; ``Ladder._from_spans`` keeps both.

- Closure.  For rows r_i < r_{i+1} the axiom says that C_{i+1} - C_i lies
  below lo_i and C_i - C_{i+1} above hi_{i+1}.  If hi_{i+1} > hi_i, then
  hi_{i+1} lies in C_{i+1} - C_i, not below lo_i; if lo_i < lo_{i+1} and
  lo_i <= hi_{i+1}, then lo_i lies in C_i - C_{i+1}, not above hi_{i+1}.
  Otherwise C_{i+1} - C_i = S & [lo_{i+1}, lo_i) and C_i - C_{i+1} =
  S & (hi_{i+1}, hi_i], or C_{i+1} lies wholly below lo_i, and the axiom
  holds.  So on a ladder lo_i and hi_i never increase down the rows, and
  the rows that hold a column c are a stretch of consecutive occupied
  rows: those from the first with lo_i <= c to the last with hi_i >= c.
- Shared columns.  So K_i = S & [lo_i, hi_{i+1}], and
  |K_i| = p(hi_{i+1}) - p(lo_i) + 1 if lo_i <= hi_{i+1}, else 0.
- Where blocks meet.  In row r_i, K_{i-1} is the columns >= lo_{i-1} and K_i
  those <= hi_{i+1}.  If lo_{i-1} <= hi_{i+1} they cover C_i and meet in
  |K_{i-1}| + |K_i| - |C_i| columns; otherwise they are disjoint.  With
  b_i = |K_i| for a block and 0 otherwise, |Y| - 2 sum b_i + sum meets
  cells lie in no block.
- Runs.  If S is all of 1..n every row is a run; conversely runs on
  consecutive rows, each sharing a column with the next, cover one run of
  columns, which holds 1 and n.  So Y is path-connected exactly when its
  rows are 1..m, S is 1..n and every |K_i| > 0.
- Corners.  If (r, c) is a lower corner, c - 1 lies in C_r - C_{r-1}, so
  below lo_{r-1}, and c in C_{r-1}: so c = lo_{r-1}.  Row r thus has a lower
  corner only at c = lo_{r-1} with row r-1 occupied, and one there exactly
  when lo_r < c <= hi_r and the column before c in S is c - 1.  Upper
  corners mirror this with c = hi_{r+1} and the column after it.  A row
  holds at most one corner of each kind.
"""

from __future__ import annotations

import json
import sys
import warnings
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain, compress, count, repeat
from typing import Iterable, NamedTuple


class LadderError(ValueError):
    """Raised for structurally invalid ladders and malformed ladder input."""


# The most grid positions (m * n) render_ascii draws; a valid two-cell ladder
# can span a huge extent, and its grid is allocated in full.
MAX_RENDER_AREA = 10**6

# The most digits of m or n: Python prints no longer int, so no wider ladder's cells.
MAX_EXTENT_DIGITS = 4300
_MAX_EXTENT = 10**MAX_EXTENT_DIGITS


def is_int(value) -> bool:
    """Whether value is an int and not a bool, as every index and exponent must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def _brief(x: int) -> str:
    """x in full, or by its number of digits when it has over 12, so that a message stays one short line."""
    if -(10**12) < x < 10**12:
        return str(x)
    return f"<{len(str(abs(x)))}-digit>" if abs(x) < _MAX_EXTENT else f"<over-{MAX_EXTENT_DIGITS}-digit>"


# The most characters of an input's repr that a message echoes.
_REPR_CHARS = 60


def _brief_repr(x) -> str:
    """repr(x), or its first ``_REPR_CHARS`` characters and its length when longer, as ``_brief`` cuts an int."""
    try:
        text = repr(x)
    except ValueError:  # it holds an int too long for repr
        return f"<{type(x).__name__} holding an over-{MAX_EXTENT_DIGITS}-digit int>"
    return text if len(text) <= _REPR_CHARS else f"{text[:_REPR_CHARS]}... <{len(text)} chars>"


class Cell(NamedTuple):
    row: int
    col: int

    def __repr__(self):
        return f"({self.row},{self.col})"


# _new(T, values) makes the NamedTuple T of a tuple of its fields without a Python-level call.
_new = tuple.__new__


# Cells held as spans, in a ``_spans`` 4-tuple as ``Ladder`` holds them.  A
# class that holds its cells so binds the two functions below as its
# ``__iter__`` and ``__contains__``.


def _span_runs(spans):
    """The columns of each row held as ``spans``, in row order: those of S in the row's span."""
    _, los, his, cols = spans
    return (cols[bisect_left(cols, lo) : bisect_right(cols, hi)] for lo, hi in zip(los, his))


def _span_cells(self):
    """Every cell held as ``self._spans``, in order."""
    spans = self._spans
    return map(_new, repeat(Cell), chain.from_iterable(map(zip, map(repeat, spans[0]), _span_runs(spans))))


def _span_contains(self, cell) -> bool:
    """Whether cell is one of those held as ``self._spans``, answered as by the frozenset of them.

    A pair of ints costs O(log rows).  A probe that is not a pair is no
    cell, and an unhashable one raises ``TypeError``.
    """
    if not (isinstance(cell, tuple) and len(cell) == 2):
        hash(cell)  # an unhashable probe raises TypeError, as a frozenset's does
        return False
    r, c = cell
    rows, los, his, cols = spans = self._spans
    try:
        i = bisect_left(rows, r)
        if i < len(rows) and rows[i] == r and los[i] <= c <= his[i]:
            return cols[bisect_left(cols, c)] == c
    except TypeError:  # complex and the rest, as in a frozenset: unhashable raises, else equal to a cell's indices
        hash(cell)
        return any(c in run for x, run in zip(rows, _span_runs(spans)) if x == r)
    hash(cell)  # a miss that never compared c: an unhashable c raises TypeError here too
    return False


class Ladder:
    """An immutable ladder, normalized to start at (1, 1), held as row spans over its occupied columns.

    ``_spans`` holds the occupied rows in order, the first and the last
    column of each, and the occupied columns S in order; each row is the
    columns of S in its span (module docstring, "Spans").  A list 1..k is
    held as ``range(1, k + 1)``, so a ladder with no empty row or column
    costs O(rows), and any ladder O(rows + |S|).  Besides its spans a
    ladder keeps only its survey, the corners and validation report found
    while it is built, and in ``_split`` the verified factorization once
    :func:`ladderdet.decompose.decompose` has made it; a ladder with no
    coincidental corner is its own factor, and keeps none.  Each lives as
    long as the ladder, and no longer.  ``cells`` builds its set on each read
    and keeps none.  Iteration and membership read the spans through
    ``_span_cells`` and ``_span_contains``, which the generator sets of
    ``classgroup`` share; ``in`` answers as ``cells`` would, for any probe.
    """

    __slots__ = ("m", "n", "_spans", "_size", "_corners", "_report", "_split")

    def __new__(cls, cells: Iterable[tuple[int, int]]):
        rows = defaultdict(set)
        for rc in cells:
            try:
                r, c = rc
            except (TypeError, ValueError):
                raise LadderError(f"bad cell {_brief_repr(rc)}: expected a (row, col) pair") from None
            if not (type(r) is int is type(c) or is_int(r) and is_int(c)):
                raise LadderError(f"cell indices must be integers, got {_brief_repr(rc)}")
            rows[r].add(c)
        return cls._from_sets(rows)

    @classmethod
    def _from_sets(cls, rows: dict[int, set[int]]) -> "Ladder":
        """A ladder from its integer rows and their integer columns, checked as the cells are.

        Rows that are not the occupied columns in their spans are not closed
        (module docstring, "Spans"): some pair of consecutive rows breaks
        the axiom, and the first one is named.
        """
        if not rows:
            raise LadderError("a ladder needs at least one cell")
        order = sorted(rows)
        sets = [rows[r] for r in order]
        los, his = list(map(min, sets)), list(map(max, sets))
        size = sum(map(len, sets))
        if size == sum(his) - sum(los) + len(sets):  # every row is the whole of its span
            return cls._from_spans(order, los, his, _columns(los, his))
        cols = sorted(set().union(*sets))
        pos = dict(zip(cols, count())).__getitem__
        if size == sum(map(pos, his)) - sum(map(pos, los)) + len(sets):
            return cls._from_spans(order, los, his, cols)
        dr, dc = 1 - order[0], 1 - cols[0]
        _check_extent(order[-1] + dr, cols[-1] + dc)
        pairs = zip(order, order[1:], sets, sets[1:])
        raise next(filter(None, (_closure_error(r1 + dr, r2 + dr, c1, c2, dc) for r1, r2, c1, c2 in pairs)))

    @classmethod
    def _from_spans(cls, rows, los, his, cols) -> "Ladder":
        """A ladder from its occupied rows in order, their first and last
        columns, and its occupied columns in order, each row being the columns
        of ``cols`` in its span.  It is shifted to start at (1, 1) and checked
        as the cells are.
        """
        dr, dc = 1 - rows[0], 1 - cols[0]
        m, n = rows[-1] + dr, cols[-1] + dc
        _check_extent(m, n)
        spans = (
            range(1, m + 1) if len(rows) == m else tuple(map(dr.__add__, rows)),
            tuple(map(dc.__add__, los)),
            tuple(map(dc.__add__, his)),
            range(1, n + 1) if len(cols) == n else tuple(map(dc.__add__, cols)),
        )
        prof, report, size = _survey(*spans, m, n)
        ladder = object.__new__(cls)
        _set_m(ladder, m)
        _set_n(ladder, n)
        _set_spans(ladder, spans)
        _set_size(ladder, size)
        _set_corners(ladder, prof)
        _set_report(ladder, report)
        _set_split(ladder, None)
        return ladder

    @property
    def cells(self) -> frozenset[Cell]:
        """The set of every cell, built on each read."""
        return frozenset(_span_cells(self))

    def __setattr__(self, name, value):
        raise AttributeError("Ladder is immutable")

    @classmethod
    def full_matrix(cls, m: int, n: int) -> "Ladder":
        """The full m x n grid of cells, at most ``sys.maxsize`` of them: ``len`` counts no more."""
        if not (is_int(m) and is_int(n)):
            bad = m if not is_int(m) else n
            raise LadderError(f"matrix dimensions must be integers, got {bad!r}")
        if m < 1 or n < 1:
            raise LadderError("matrix dimensions must be positive")
        if m * n > sys.maxsize:
            m, n = _brief(m), _brief(n)
            raise LadderError(f"cannot build a full {m}x{n} matrix: its cells exceed the cap of {sys.maxsize}")
        return cls._from_spans(*_matrix_spans(m, n))

    @property
    def is_full_matrix(self) -> bool:
        return len(self) == self.m * self.n

    def to_json_dict(self) -> dict:
        return {"cells": [[r, c] for r, c in self]}

    __contains__ = _span_contains
    __iter__ = _span_cells

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other) -> bool:
        return isinstance(other, Ladder) and self._spans == other._spans

    def __hash__(self) -> int:
        return hash(self._spans)

    def __repr__(self):
        return f"Ladder({self.m}x{self.n}, {len(self)} cells)"


# Slot setters past the __setattr__ that keeps a ladder immutable, each one C call.
_set_m, _set_n, _set_spans, _set_size, _set_corners, _set_report, _set_split = (
    getattr(Ladder, name).__set__ for name in Ladder.__slots__
)


def _matrix_spans(m: int, n: int):
    """The ``_spans`` of the full m x n matrix."""
    return range(1, m + 1), (1,) * m, (n,) * m, range(1, n + 1)


def _columns(los, his):
    """The columns that lie in some span lo..hi, in order: a range when they are one run."""
    runs = []
    for lo, hi in sorted(zip(los, his)):
        if runs and lo <= runs[-1][1] + 1:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo, hi])
    if len(runs) == 1:
        return range(runs[0][0], runs[0][1] + 1)
    return list(chain.from_iterable(range(lo, hi + 1) for lo, hi in runs))


def _check_extent(m: int, n: int) -> None:
    if max(m, n) >= _MAX_EXTENT:  # ints of unequal sizes compare in O(1)
        raise LadderError(f"ladder extent exceeds the cap of {MAX_EXTENT_DIGITS} digits")


# ---------------------------------------------------------------------------
# parsing / rendering

_GRID = frozenset("#. \t")  # the characters of an ASCII grid


def parse_json(text: str) -> Ladder:
    """Parse a ladder from ``{"cells": [[row, col], ...]}``.

    Each entry is checked in one pass, in order; a repeated cell is added
    once, and warned of.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers and deep nesting
        raise LadderError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict) or "cells" not in doc:
        raise LadderError('ladder JSON must be an object with a "cells" key')
    raw = doc["cells"]
    if not isinstance(raw, list):
        raise LadderError('"cells" must be a list of [row, col] pairs')
    rows = defaultdict(set)
    for entry in raw:
        if type(entry) is not list or len(entry) != 2:  # JSON gives no tuple and no list subclass
            raise LadderError(f"bad cell entry {_brief_repr(entry)}: expected [row, col]")
        r, c = entry
        if type(r) is not int or type(c) is not int:  # JSON gives no int subclass but bool
            raise LadderError(f"cell indices must be integers, got {_brief_repr((r, c))}")
        rows[r].add(c)
    if sum(map(len, rows.values())) != len(raw):
        warnings.warn("duplicate cells in ladder input; deduplicating", stacklevel=2)
    return Ladder._from_sets(rows)


def parse_ascii(text: str) -> Ladder:
    """Parse a ladder from a ``#``/``.`` grid, one row per line.

    Spaces and tabs count as absent cells; trailing whitespace and blank
    lines at the top or bottom are ignored.  Blank lines between occupied
    rows are rejected.  Each row's span is read from the ends of its line;
    only a grid with a gap inside a row is read cell by cell.
    """
    lines = [line.rstrip() for line in text.split("\n")]
    occupied = [i for i, line in enumerate(lines) if "#" in line]
    if not occupied:
        raise LadderError("empty grid: no '#' cells found")
    first, last = occupied[0], occupied[-1]
    lines = lines[first : last + 1]
    los, his, whole = [], [], True
    for i, line in enumerate(lines, start=first + 1):
        if "#" not in line:
            raise LadderError(f"blank row {i} between occupied rows")
        if not _GRID.issuperset(line):
            j, ch = next((j, ch) for j, ch in enumerate(line) if ch not in "#. \t")
            raise LadderError(f"unexpected character {ch!r} at row {i}, column {j + 1}")
        lo, hi = line.index("#") + 1, line.rindex("#") + 1
        whole = whole and line.count("#") == hi - lo + 1
        los.append(lo)
        his.append(hi)
    rows = range(1, len(lines) + 1)
    if whole:
        return Ladder._from_spans(rows, los, his, _columns(los, his))
    return Ladder._from_sets({r: set(compress(count(1), map("#".__eq__, line))) for r, line in zip(rows, lines)})


def parse_auto(text: str) -> Ladder:
    """Parse JSON if the first non-space byte is '{', else the ASCII grid format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json(text)
    return parse_ascii(text)


def render_ascii(ladder: Ladder, annotate: bool = False) -> str:
    """Render as a ``#``/``.`` grid; with annotate, mark corners L/U/C.

    Refuses ladders whose m x n extent exceeds ``MAX_RENDER_AREA``.
    """
    if ladder.m * ladder.n > MAX_RENDER_AREA:
        m, n = _brief(ladder.m), _brief(ladder.n)
        raise LadderError(f"cannot render a {m}x{n} grid: its positions exceed the cap of {MAX_RENDER_AREA}")
    grid = [["." for _ in range(ladder.n)] for _ in range(ladder.m)]
    for r, c in ladder:
        grid[r - 1][c - 1] = "#"
    if annotate:
        prof = corners(ladder)
        lower, upper = set(prof.lower), set(prof.upper)
        for p in lower | upper:
            mark = "C" if p in lower and p in upper else ("L" if p in lower else "U")
            grid[p.row - 1][p.col - 1] = mark
    return "\n".join("".join(row) for row in grid)


# ---------------------------------------------------------------------------
# corners

class CornerProfile(NamedTuple):
    """Inside corners of a ladder, each list in row order.

    The lower corners are (a_1, b_1), ..., (a_h, b_h); the library reads
    (a_i, b_i) as ``lower[i - 1]``.  The paper's sentinel corners
    (a_0, b_0) = (1, n) and (a_{h+1}, b_{h+1}) = (m, 1) are written out
    where they are needed, in three places: ``classgroup._generator_runs``
    (a_0 = 1 and b_{h+1} = 1), ``classgroup.qprime_class`` (the same two)
    and ``classgroup.canonical_class`` (a_0 + b_0 = 1 + n and
    a_{h+1} + b_{h+1} = m + 1).  The tests check all three against an
    oracle that builds the extended list.
    """

    m: int
    n: int
    lower: tuple[Cell, ...]
    upper: tuple[Cell, ...]

    @property
    def h(self) -> int:
        return len(self.lower)

    @property
    def k(self) -> int:
        return len(self.upper)

    @property
    def coincidental(self) -> tuple[Cell, ...]:
        """The corners that are both lower and upper, in row order.

        A row holds at most one corner of each kind (module docstring,
        "Corners") and both lists are in row order, so these are the lower
        corners that are also upper ones, in the lower list's order: no sort.
        """
        return tuple(filter(set(self.upper).__contains__, self.lower))


def corners(ladder: Ladder) -> CornerProfile:
    """All lower and upper inside corners, found when the ladder was built.

    (r, c) is a lower corner when (r-1, c) and (r, c-1) are cells and
    (r-1, c-1) is not; upper corners mirror this with row r+1.
    """
    return ladder._corners


# ---------------------------------------------------------------------------
# validation

class ValidationReport(NamedTuple):
    every_cell_in_minor: bool
    two_connected: bool
    path_connected: bool
    sidedness: str  # matrix | one-sided | two-sided | other
    messages: tuple[str, ...]

    def to_json_dict(self) -> dict:
        # Every Ladder is closed and starts at (1, 1); see validate.
        return {
            "is_ladder": True,
            "normalized": True,
            "every_cell_in_minor": self.every_cell_in_minor,
            "two_connected": self.two_connected,
            "path_connected": self.path_connected,
            "sidedness": self.sidedness,
            "messages": list(self.messages),
        }


def validate(ladder: Ladder) -> ValidationReport:
    """Diagnostic checks on a structurally valid ladder, made when it was built.

    Two-connectedness is tested operationally: every cell must belong to some
    full 2-minor and the hypergraph whose hyperedges are the full 2-minors
    must be connected.  Both tests read the chain of blocks of consecutive
    occupied rows, and path-connectivity the column span of each row, as the
    module docstring proves.

    Three checks are constant on a ladder, so none is made:

    - ``normalized`` is true: ``Ladder._from_spans`` shifts every ladder to
      start at (1, 1).
    - Inside-corner rows increase strictly: a row holds at most one corner
      of each kind, as the module docstring's closed forms show.
    - A path-connected ladder with h = k = 0 is a full matrix: its rows are
      overlapping intervals, closure lets row r start and end no further
      right than row r-1, and an earlier start of row r would give a lower
      corner, an earlier end an upper one.
    """
    return ladder._report


def _survey(rows, los, his, cols, m, n) -> tuple[CornerProfile, ValidationReport, int]:
    """Check closure on consecutive occupied rows, and find the corners, the
    report and the number of cells in the same pass by the module docstring's
    closed forms.

    Row ``rows[i]`` is the columns of ``cols`` from ``los[i]`` to ``his[i]``.
    By the module docstring's lemma this checks the axiom on all pairs of
    rows, in O(rows) once the ends' positions in ``cols``, counted from 1,
    are found; a failure names a violating pair of consecutive rows.

    Of the block chain's three conditions for 2-connectedness (module
    docstring), every |K_i| >= 2 is not tested: the other two imply it.
    Blocks meet at pair i only when both K_{i-1} and K_i are blocks, so
    with t >= 2 pairs, meets at all t - 1 of them make every K_i a block.
    With t = 1, a pair that is no block leaves every cell loose, and with
    t = 0, one row, there is no block at all.
    """
    if type(cols) is range:  # cols is 1..n, so each column is its own position
        ls, hs = los, his
    else:
        pos = dict(zip(cols, count(1))).__getitem__
        ls, hs = list(map(pos, los)), list(map(pos, his))
    total = sum(hs) - sum(ls) + len(rows)
    shared, lower, upper = [], [], []
    loose, meets = total, 0  # the cells in no block, and the rows where two blocks meet
    b0 = l0 = 0  # b and lo of the pair before
    for r1, r2, l1, h1, l2, h2 in zip(rows, rows[1:], ls, hs, ls[1:], hs[1:]):
        if h2 > h1 or l1 < l2 and l1 <= h2:
            raise _closure_error(r1, r2, set(cols[l1 - 1 : h1]), set(cols[l2 - 1 : h2]))
        k = h2 - l1 + 1 if h2 >= l1 else 0
        shared.append(k)
        b = k if k >= 2 else 0
        meet = b0 + b - (h1 - l1 + 1) if b0 and b and l0 <= h2 else 0  # in row r1
        loose += meet - 2 * b
        meets += meet > 0
        b0, l0 = b, l1
        if r2 == r1 + 1:
            if l2 < l1 <= h2 and cols[l1 - 2] == cols[l1 - 1] - 1:
                lower.append(_new(Cell, (r2, cols[l1 - 1])))
            if l1 <= h2 < h1 and cols[h2] == cols[h2 - 1] + 1:
                upper.append(_new(Cell, (r1, cols[h2 - 1])))
    every_cell_in_minor = not loose
    two_connected = every_cell_in_minor and meets == len(shared) - 1
    path_connected = len(rows) == m and len(cols) == n and all(shared)

    messages = []  # only a ladder that fails a test has any
    if not (two_connected and path_connected):
        if not every_cell_in_minor:
            messages.append(f"{loose} cell(s) belong to no full 2-minor")
        if not two_connected and every_cell_in_minor:
            messages.append("the 2-minor hypergraph is disconnected")
        if not path_connected:
            messages.append("cell set is not path-connected")

    if not path_connected:
        sidedness = "other"
    elif total == m * n:
        sidedness = "matrix"
    elif lower and upper:
        sidedness = "two-sided"
    else:
        sidedness = "one-sided"

    report = _new(ValidationReport, (every_cell_in_minor, two_connected, path_connected, sidedness, tuple(messages)))
    return _new(CornerProfile, (m, n, tuple(lower), tuple(upper))), report, total


def _closure_error(r1, r2, c1, c2, dc=0):
    """The closure violation of rows r1 < r2 with column sets c1 and c2, its
    columns shifted by dc, or None if the two rows satisfy the axiom."""
    lo, hi = min(c1), max(c2)
    gone, new = c1 - c2, c2 - c1
    if new and max(new) >= lo:
        j, q = lo, min(q for q in new if q >= lo)
    elif gone and min(gone) <= hi:
        j, q = min(gone), hi
    else:
        return None
    i, p, j, q = map(_brief, (r1, r2, j + dc, q + dc))
    return LadderError(f"closure violation: cells ({i},{j}) and ({p},{q}) require ({i},{q}) and ({p},{j})")


def require_analyzable(ladder: Ladder) -> ValidationReport:
    """Reject ladders outside the analyzed class (not 2-connected, or degenerate)."""
    report = validate(ladder)
    if not report.two_connected:
        raise LadderError("ladder is not 2-connected: " + "; ".join(report.messages))
    if report.sidedness == "other":
        raise LadderError("degenerate ladder: " + "; ".join(report.messages))
    return report


# ---------------------------------------------------------------------------
# antitranspose and sharp composition

def antitranspose(ladder: Ladder) -> Ladder:
    """Reflect along the antidiagonal: cell (i, j) maps to (n+1-j, m+1-i).

    Column c of the ladder becomes row n+1-c.  Its cells are the occupied
    rows of the stretch that holds c (module docstring, "Closed forms"),
    whose ends one pass down the rows finds for every column in turn.
    """
    m, n = ladder.m, ladder.n
    rows, los, his, cols = ladder._spans
    new_rows, new_los, new_his = [], [], []
    top = bottom = 0
    for c in reversed(cols):
        while los[top] > c:
            top += 1
        while bottom + 1 < len(rows) and his[bottom + 1] >= c:
            bottom += 1
        new_rows.append(n + 1 - c)
        new_los.append(m + 1 - rows[bottom])
        new_his.append(m + 1 - rows[top])
    return Ladder._from_spans(new_rows, new_los, new_his, [m + 1 - r for r in reversed(rows)])


def compose(factors: Iterable[Ladder]) -> Ladder:
    """Glue ladders corner to corner, first factor top-right.

    The lower-left cell of the accumulated ladder is identified with the
    top-right cell of each successive factor, producing one coincidental
    inside corner per identification.  Every normalized ladder holds both
    cells: a cell (i, 1) and a cell (m, q) force (m, 1) by the closure axiom,
    and a cell (1, j) and a cell (p, n) force (1, n).
    """
    factors = list(factors)
    if not factors:
        raise LadderError("compose needs at least one factor")
    return Ladder._from_spans(*_glue([f._spans for f in factors]))


def _glue(spans):
    """The rows, first columns, last columns and occupied columns of the
    composition of the ladders with these ``_spans``, which already starts at
    (1, 1), as lists.  Factor u is placed at the offset (dr_u, dc_u) that
    ``_offsets`` gives.

    Each span is shifted once, to its final position; the last row of one
    factor, which ends in the cell where the next factor's (1, n) lands,
    runs on into the first row of the next, which starts left of it.  No
    shift is negative.
    """
    offsets = _offsets(spans)
    rows, los, his = [], [], []
    for (f_rows, f_los, f_his, _), (dr, dc) in zip(spans, offsets):
        skip = 1 if rows else 0
        if skip:
            los[-1] = f_los[0] + dc
        rows += map(dr.__add__, f_rows[skip:])
        los += map(dc.__add__, f_los[skip:])
        his += map(dc.__add__, f_his[skip:])
    cols = [1]  # each factor's first column is the last of the factor to its left
    for (_, _, _, f_cols), (_, dc) in zip(reversed(spans), reversed(offsets)):
        cols += map(dc.__add__, f_cols[1:])
    return rows, los, his, cols


def _offsets(spans):
    """The offset (dr_u, dc_u) at which ``_glue`` places each ladder u with these ``_spans``.

    Each ladder is normalized, so its last row is m_u and its last column
    n_u.  Ladder u sits below the earlier ones and left of the later ones:
    dr_u sums m_v - 1 over the earlier ones and dc_u sums n_v - 1 over the
    later ones, so that ladder u's (m_u, 1) lands on the next one's (1, n).
    """
    offsets = []
    dr = 0
    dc = sum(f_cols[-1] - 1 for _, _, _, f_cols in spans)
    for f_rows, _, _, f_cols in spans:
        dc -= f_cols[-1] - 1
        offsets.append((dr, dc))
        dr += f_rows[-1] - 1
    return tuple(offsets)
