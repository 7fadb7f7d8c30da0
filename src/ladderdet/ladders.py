"""Ladders of indeterminates: parsing, validation, corners, and composition.

A ladder is a finite set of grid cells closed under completing rectangles:
whenever (i, j) and (p, q) both lie in the set with i <= p and j <= q, the
cells (i, q) and (p, j) must lie in it too.  Rows grow downward, columns grow
rightward, and all indices are 1-based.

Every structural pass here looks at consecutive occupied rows only, which
makes it linear in the number of cells.  That rests on one lemma.  Let
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

Closed forms.  So the closure check, one pass over the pairs of consecutive
occupied rows, also gives the corners and the report from set sizes, row
ends and two membership tests per corner; ``Ladder._from_rows`` keeps
both.  Let lo_i = min C_i and hi_i = max C_i.
For rows r_i < r_{i+1} the axiom says that C_{i+1} - C_i lies below lo_i
and C_i - C_{i+1} above hi_{i+1}.

- Shared columns.  So C_i - C_{i+1} is exactly the columns of C_i above
  hi_{i+1}, and |K_i| = |C_i| - |C_i - C_{i+1}|.
- Where blocks meet.  In row r_i, K_{i-1} is the columns >= lo_{i-1} and K_i
  those <= hi_{i+1}.  If lo_{i-1} <= hi_{i+1} they cover C_i and meet in
  |K_{i-1}| + |K_i| - |C_i| columns; otherwise they are disjoint.  With
  b_i = |K_i| for a block and 0 otherwise, |Y| - 2 sum b_i + sum meets
  cells lie in no block.
- Runs.  Row r_i spans hi_i - lo_i + 1 >= |C_i| columns, so every row is a
  run exactly when the spans sum to |Y|; two adjacent runs share a column
  exactly when |K_i| > 0.
- Corners.  If (r, c) is a lower corner, c - 1 lies in C_r - C_{r-1}, so
  below lo_{r-1}, and c in C_{r-1}: so c = lo_{r-1}.  Row r thus has a lower
  corner only at c = lo_{r-1} with row r-1 occupied, and one there exactly
  when c and c-1 lie in C_r.  Upper corners mirror this with c = hi_{r+1}
  and c + 1.  A row holds at most one corner of each kind.
"""

from __future__ import annotations

import json
import warnings
from itertools import compress, count, repeat
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


class Cell(NamedTuple):
    row: int
    col: int

    def __repr__(self):
        return f"({self.row},{self.col})"


def _cell_set(pairs: Iterable[tuple[int, int]]) -> frozenset[Cell]:
    """The cells at the given (row, col) pairs; tuple.__new__ makes each without a Python-level call."""
    return frozenset(map(tuple.__new__, repeat(Cell), pairs))


class Ladder:
    """An immutable ladder, normalized to start at (1, 1), held as rows of columns.

    Its corners and validation report are found while it is built, and
    ``_split`` holds the verified factorization once
    :func:`ladderdet.decompose.decompose` has made it; its cells are built
    on first use.  Each lives as long as the ladder, and no longer.
    """

    __slots__ = ("_cells", "m", "n", "_rows", "_hash", "_corners", "_report", "_split")

    def __new__(cls, cells: Iterable[tuple[int, int]]):
        rows = {}
        for rc in cells:
            try:
                r, c = rc
            except (TypeError, ValueError):
                raise LadderError(f"bad cell {rc!r}: expected a (row, col) pair") from None
            if not (type(r) is int is type(c) or is_int(r) and is_int(c)):
                raise LadderError(f"cell indices must be integers, got {rc!r}")
            rows.setdefault(r, set()).add(c)
        return cls._from_rows(rows)

    @classmethod
    def _from_rows(cls, rows: dict[int, Iterable[int]]) -> "Ladder":
        """A ladder from its integer rows and their integer columns, checked as the cells are."""
        if not rows:
            raise LadderError("a ladder needs at least one cell")
        order = sorted(rows)
        cols = [rows[r] for r in order]
        los, his = list(map(min, cols)), list(map(max, cols))
        dr, dc = 1 - order[0], 1 - min(los)
        order = [r + dr for r in order]
        cols = [frozenset(map(dc.__add__, cs)) if dc else frozenset(cs) for cs in cols]
        if dc:
            los, his = [lo + dc for lo in los], [hi + dc for hi in his]
        m, n = order[-1], max(his)
        if max(m, n) >= _MAX_EXTENT:  # ints of unequal sizes compare in O(1)
            raise LadderError(f"ladder extent exceeds the cap of {MAX_EXTENT_DIGITS} digits")
        prof, report = _survey(order, cols, los, his, m, n)
        rows = dict(zip(order, cols))
        self = object.__new__(cls)
        object.__setattr__(self, "_cells", None)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_hash", hash(frozenset(rows.items())))
        object.__setattr__(self, "_corners", prof)
        object.__setattr__(self, "_report", report)
        object.__setattr__(self, "_split", None)
        return self

    @property
    def cells(self) -> frozenset[Cell]:
        if self._cells is None:
            object.__setattr__(self, "_cells", _cell_set((r, c) for r, cols in self._rows.items() for c in cols))
        return self._cells

    def __setattr__(self, name, value):
        raise AttributeError("Ladder is immutable")

    @classmethod
    def full_matrix(cls, m: int, n: int) -> "Ladder":
        """The full m x n grid of cells; its rows share one column set."""
        if m < 1 or n < 1:
            raise LadderError("matrix dimensions must be positive")
        return cls._from_rows(dict.fromkeys(range(1, m + 1), frozenset(range(1, n + 1))))

    def row_cols(self, r: int) -> frozenset[int]:
        """Columns occupied in row r (empty set if the row is empty)."""
        return self._rows.get(r, frozenset())

    @property
    def is_full_matrix(self) -> bool:
        return len(self) == self.m * self.n

    def to_json_dict(self) -> dict:
        return {"cells": [[r, c] for r, c in self]}

    def __contains__(self, cell) -> bool:
        r, c = cell
        return c in self._rows.get(r, ())

    def __len__(self) -> int:
        return sum(map(len, self._rows.values()))

    def __iter__(self):
        return iter(sorted(self.cells))

    def __eq__(self, other) -> bool:
        return isinstance(other, Ladder) and self._rows == other._rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self):
        return f"Ladder({self.m}x{self.n}, {len(self)} cells)"


# ---------------------------------------------------------------------------
# parsing / rendering

def parse_json(text: str) -> Ladder:
    """Parse a ladder from ``{"cells": [[row, col], ...]}``."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers and deep nesting
        raise LadderError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict) or "cells" not in doc:
        raise LadderError('ladder JSON must be an object with a "cells" key')
    raw = doc["cells"]
    if not isinstance(raw, list):
        raise LadderError('"cells" must be a list of [row, col] pairs')
    cells = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise LadderError(f"bad cell entry {entry!r}: expected [row, col]")
        cells.append((entry[0], entry[1]))
    try:
        duplicates = len(set(cells)) != len(cells)
    except TypeError:  # an unhashable index, which Ladder rejects
        duplicates = False
    if duplicates:
        warnings.warn("duplicate cells in ladder input; deduplicating", stacklevel=2)
    return Ladder(cells)


def parse_ascii(text: str) -> Ladder:
    """Parse a ladder from a ``#``/``.`` grid, one row per line.

    Spaces and tabs count as absent cells; trailing whitespace and blank
    lines at the top or bottom are ignored.  Blank lines between occupied
    rows are rejected.
    """
    lines = [line.rstrip() for line in text.split("\n")]
    occupied = [i for i, line in enumerate(lines) if "#" in line]
    if not occupied:
        raise LadderError("empty grid: no '#' cells found")
    first, last = occupied[0], occupied[-1]
    rows = {}
    for i in range(first, last + 1):
        line = lines[i]
        if "#" not in line:
            raise LadderError(f"blank row {i + 1} between occupied rows")
        if set(line) - set("#. \t"):
            j, ch = next((j, ch) for j, ch in enumerate(line) if ch not in "#. \t")
            raise LadderError(f"unexpected character {ch!r} at row {i + 1}, column {j + 1}")
        rows[i - first + 1] = frozenset(compress(count(1), map("#".__eq__, line)))
    return Ladder._from_rows(rows)


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
        # A side of over 12 digits is named by its length, so the message stays one short line.
        m, n = (str(x) if x < 10**12 else f"<{len(str(x))}-digit>" for x in (ladder.m, ladder.n))
        raise LadderError(f"cannot render a {m}x{n} grid: its positions exceed the cap of {MAX_RENDER_AREA}")
    grid = [["." for _ in range(ladder.n)] for _ in range(ladder.m)]
    for p in ladder.cells:
        grid[p.row - 1][p.col - 1] = "#"
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
    """Inside corners of a ladder, with the conventional sentinel corners.

    ``lower_ext`` lists (a_0, b_0) = (1, n), the lower inside corners in row
    order, then (a_{h+1}, b_{h+1}) = (m, 1).
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
    def lower_ext(self) -> tuple[Cell, ...]:
        return (Cell(1, self.n),) + self.lower + (Cell(self.m, 1),)

    @property
    def coincidental(self) -> tuple[Cell, ...]:
        both = set(self.lower) & set(self.upper)
        return tuple(sorted(both))


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

    - ``normalized`` is true: ``Ladder._from_rows`` shifts every ladder to
      start at (1, 1).
    - Inside-corner rows increase strictly: a row holds at most one corner
      of each kind, as the module docstring's closed forms show.
    - A path-connected ladder with h = k = 0 is a full matrix: its rows are
      overlapping intervals, closure lets row r start and end no further
      right than row r-1, and an earlier start of row r would give a lower
      corner, an earlier end an upper one.
    """
    return ladder._report


def _survey(order, cols, los, his, m, n) -> tuple[CornerProfile, ValidationReport]:
    """Check closure on consecutive occupied rows, and find the corners and the
    report in the same pass by the module docstring's closed forms.

    ``cols`` are the columns of rows ``order``, with ends ``los`` and ``his``.
    By the module docstring's lemma this checks the axiom on all pairs of
    rows, in O(|Y|); a failure names a violating pair of consecutive rows.
    """
    sizes = list(map(len, cols))
    total = sum(sizes)
    shared, lower, upper = [], [], []
    loose, meets = total, 0  # the cells in no block, and the rows where two blocks meet
    b0 = lo0 = 0  # b and lo of the pair before
    for r1, r2, c1, c2, lo, hi, size in zip(order, order[1:], cols, cols[1:], los, his[1:], sizes):
        gone, new = c1 - c2, c2 - c1
        if new and max(new) >= lo:
            j, q = lo, min(q for q in new if q >= lo)
        elif gone and min(gone) <= hi:
            j, q = min(gone), hi
        else:
            k = size - len(gone)
            shared.append(k)
            b = k if k >= 2 else 0
            meet = b0 + b - size if b0 and b and lo0 <= hi else 0  # in row r1
            loose += meet - 2 * b
            meets += meet > 0
            b0, lo0 = b, lo
            if r2 == r1 + 1:
                if lo in c2 and lo - 1 in c2:
                    lower.append(Cell(r2, lo))
                if hi in c1 and hi + 1 in c1:
                    upper.append(Cell(r1, hi))
            continue
        raise LadderError(
            f"closure violation: cells ({r1},{j}) and ({r2},{q}) "
            f"require ({r1},{q}) and ({r2},{j})"
        )
    every_cell_in_minor = not loose
    two_connected = every_cell_in_minor and min(shared, default=0) >= 2 and meets == len(shared) - 1
    path_connected = len(order) == m and sum(his) - sum(los) + len(order) == total and all(shared)

    messages = []
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

    prof = CornerProfile(m, n, tuple(lower), tuple(upper))
    return prof, ValidationReport(every_cell_in_minor, two_connected, path_connected, sidedness, tuple(messages))


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
    """Reflect along the antidiagonal: cell (i, j) maps to (n+1-j, m+1-i)."""
    m, n = ladder.m, ladder.n
    return Ladder(Cell(n + 1 - p.col, m + 1 - p.row) for p in ladder.cells)


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
    return Ladder._from_rows(_glue(factors)[0])


def _glue(factors) -> tuple[dict[int, frozenset[int]], tuple[tuple[int, int], ...]]:
    """The rows of ``compose(factors)``, which already start at (1, 1), and
    the offset (dr_u, dc_u) at which each factor u is placed.

    Factor u sits below the earlier factors and left of the later ones: dr_u
    sums m_v - 1 over the earlier factors and dc_u sums n_v - 1 over the
    later ones, so that factor u's (m_u, 1) lands on the next one's (1, n).
    Each row is shifted once, to its final position, and the last row of one
    factor merges with the first row of the next.  No shift is negative.
    """
    rows = {}
    offsets = []
    dr = 0
    dc = sum(f.n - 1 for f in factors)
    for f in factors:
        dc -= f.n - 1
        offsets.append((dr, dc))
        for r, cols in f._rows.items():
            cols = frozenset(map(dc.__add__, cols)) if dc else cols
            rows[r + dr] = rows[r + dr] | cols if r + dr in rows else cols
        dr += f.m - 1
    return rows, tuple(offsets)
