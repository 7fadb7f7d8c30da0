"""Splitting a 2-connected ladder at its coincidental inside corners.

A coincidental corner is both a lower and an upper inside corner; cutting at
each one yields factors that overlap pairwise in exactly that corner cell,
and gluing the factors back with :func:`ladderdet.ladders.compose` recovers
the original ladder.
"""

from __future__ import annotations

from typing import NamedTuple

from .ladders import (
    Cell,
    Ladder,
    LadderError,
    _offsets,
    corners,
    require_analyzable,
    validate,
)


class Factorization(NamedTuple):
    """Ordered factors of a ladder, cut at its coincidental inside corners.

    ``offsets[u]`` translates factor-local coordinates into coordinates of
    the original ladder: local (r, c) sits at (r + dr, c + dc).
    """

    ladder: Ladder
    factors: tuple[Ladder, ...]
    coincidental: tuple[Cell, ...]
    offsets: tuple[tuple[int, int], ...]

    @property
    def w(self) -> int:
        return len(self.coincidental)

    def to_json_dict(self) -> dict:
        return {
            "coincidental": [[p.row, p.col] for p in self.coincidental],
            "factors": [f.to_json_dict() for f in self.factors],
            "offsets": [[dr, dc] for dr, dc in self.offsets],
        }


def decompose(ladder: Ladder) -> Factorization:
    """Cut a 2-connected ladder at its coincidental corners into factors.

    With the corners cc_1 < ... < cc_w ordered by row, the factors are the
    closed regions between consecutive corners, each a slice of the ladder's
    rows with two ends cut (see ``_regions``).  A factor's columns are taken
    to be one run, from its bottom row's first column to its top row's last.
    That is certified, not assumed: the round trip below puts the glued
    columns at Y's, and a region whose rows left a column of that run
    empty would hold two consecutive rows that share no column, so its
    factor would fail its own closure check (if their ends rise) or
    2-connectedness check.  The glue certifies the factors, but it is not
    built: ``_offsets`` gives the offsets at which ``_glue`` would place
    them, and ``_check_factors`` asks that Y's corner lists be the factors'
    lists, translated, with cc[u] between factors u and u + 1; that every
    factor be 2-connected with no coincidental corner; and that the glue of
    the factors be Y, one factor at a time, as follows.  Besides the
    factors' own surveys, which are the independent evidence, these steps
    take O(w + h + k) Python steps and slices and compares made in C.

    The round trip, one factor at a time.  Let factor u have m_u rows and
    n_u columns, first and last columns lo^u_r and hi^u_r, and offset
    (dr_u, dc_u): dr_u sums m_v - 1 over the factors before it and dc_u sums
    n_v - 1 over those after it.  Its columns are 1..n_u, the run it is
    built on, and its top row ends in n_u.  The glue keeps every row of
    factor 0 and every row but the first of each later factor, shifted by
    dr_u; row r of factor u keeps lo^u_r + dc_u, except that the last row of
    each factor but the last takes the first column of the next factor's
    first row, and hi^u_r + dc_u; its columns are 1..dc_0 + n_0.  Y is
    analyzable, so its rows are 1..m and its columns 1..n.  A 2-connected
    ladder's first two rows end in the same column, and its last two start
    in the same one: a column that only its first or only its last row held
    would lie in no full 2-minor.  Y is 2-connected, and so is every factor
    once the factor checks have passed.  So the glue is Y exactly when, for
    every u:

    - lo^u_r + dc_u is Y's lo at row dr_u + r for every row r of factor u
      but its last;
    - hi^u_r + dc_u is Y's hi at row dr_u + r for every row r of factor u
      but its first;
    - and dr_w + m_w = m.

    The ends these leave out are those the glue drops, and two more: factor
    0's first row ends where its second does, as Y's first row does, and
    factor w's last row starts where the row above it does, as Y's last row
    does.  So the glue's ends there are Y's once the others are; for factor
    0 this says that dc_0 + n_0 = n, so the glued columns are Y's.  The
    first two compare a factor's shifted spans with slices of Y's, which the
    last keeps inside Y's m rows; equal lengths in the second then give
    factor u m_u rows, so its rows are 1..m_u and the glued rows Y's.  These
    comparisons come after the corner lists and the factors, as the glued
    comparison did, and fail exactly when it would, with its message.

    These checks imply the rest.  Let F_u be factor u (m_u x n_u) placed at
    (dr_u, dc_u), and J_u the cell where the glue puts F_u's (m_u, 1) on
    F_{u+1}'s (1, n_{u+1}); both hold it, as a normalized ladder holds its
    (m, 1) and (1, n).

    1. F_u lies in rows dr_u+1..dr_u+m_u and columns dc_u+1..dc_u+n_u.  This
       box shares only J_u with the next one and, as a 2-connected factor has
       two rows or more, no row with those further on.  So the J_u lie in
       increasing rows, and as the round trip makes Y the union of the F_u,
       a cell of Y other than the J_u lies in just one F_u.
    2. J_u = (r, c) is a coincidental corner of Y.  (r-1, c-1) and
       (r+1, c+1) lie in no box.  (m_u, 1) lies in a full 2-minor of factor
       u, so F_u holds a cell of row r right of c and one of column c above
       r, and F_{u+1} one left of c and one below r.  Y is analyzable, so its
       rows are intervals with no empty row between, and by closure so are
       its columns: they hold (r, c-1), (r, c+1), (r-1, c) and (r+1, c).
    3. J_u = cc[u].  J_u lies in a factor's last row and first column or its
       first row and last column, so it is no corner of a factor, and the
       check must insert it as a cut.  A cc[v] that no cut inserts would, by
       1, be a lower and an upper corner of one factor, which is checked not
       to be.  So all w cuts are inserted, each is one J_u, and as both run
       in row order, J_u = cc[u].

    So F_u is the part of Y in the box between cc[u-1] and cc[u], and its
    offset places it there: the union is exact, adjacent factors meet in
    their corner only, and no others meet.  As J_u = (dr_u + m_u, dc_u + 1)
    = cc[u], the offsets are the closed form (cc[u-1].row - 1,
    cc[u].col - 1), reading Y's edge (1, n) for cc[u-1] when u = 0 and
    (m, 1) for cc[u] when u = w.

    With no coincidental corner (w = 0) nothing is cut: the one factor is
    Y's ``_twin``, a new ladder that shares Y's spans, corners and report,
    at offset (0, 0), so no row is surveyed again.  Each check above is
    vacuous there: the factor's corner lists are Y's, with no cut to
    insert; Y has no coincidental corner; ``require_analyzable`` has
    already shown Y to be 2-connected; and the glue of one factor at
    (0, 0) is that factor, so the round trip is the identity.

    The ladder keeps the factors, corners and offsets once they have passed
    every check, so a later call on the same object returns them at once; a
    failure is not kept, and raises again.  What it keeps refers to no
    ladder but the factors, which are new objects.  Two threads that
    decompose one ladder at once may both do the work and both store it,
    but what they store is equal, so the ladder can still be shared freely.
    """
    split = ladder._split
    if split is None:
        require_analyzable(ladder)
        cc = corners(ladder).coincidental
        if cc:
            regions = _regions(ladder, cc)
            factors = tuple(Ladder._from_spans(rows, los, his, range(los[-1], his[0] + 1)) for rows, los, his in regions)
            offsets = _offsets([f._spans for f in factors])
            _check_factors(ladder, factors, cc, offsets)
            split = factors, cc, offsets
        else:
            split = (ladder._twin(),), cc, ((0, 0),)
        object.__setattr__(ladder, "_split", split)
    return Factorization(ladder, *split)


def _regions(ladder, cc):
    """The closed regions between consecutive corners, each as its rows, their
    first columns and their last columns.

    Region u is the row slice of rows cc[u-1].row..cc[u].row, cut to the
    columns cc[u].col..cc[u-1].col, running to the ladder's edge where u is
    the first or last region.  The ladder is analyzable, so its rows are
    1..m and each is the whole of its span lo_r..hi_r.  Only two ends are
    cut.  A coincidental corner (r, c) is a lower corner, so c = lo_{r-1}
    and lo_r < c, and an upper one, so c = hi_{r+1} and hi_r > c (module
    docstring of ``ladders``, "Corners").  Row ends never increase down the
    rows.  So with top = cc[u-1] and bottom = cc[u], every row r of the
    slice below top has hi_r <= hi_{top.row+1} = top.col, and every row
    above bottom has lo_r >= lo_{bottom.row-1} = bottom.col: the top row
    needs only its last column cut to top.col, and the bottom row only its
    first to bottom.col.  The edge cuts (1, n) and (m, 1) change nothing, as
    row 1 ends in n and row m starts in 1.  The cut leaves the top row
    holding top.col and the bottom row bottom.col, so no row is empty.
    """
    _, los, his, _ = ladder._spans
    cuts = [(1, ladder.n), *cc, (ladder.m, 1)]
    regions = []
    for (top, hi), (bottom, lo) in zip(cuts, cuts[1:]):
        r_los, r_his = list(los[top - 1 : bottom]), list(his[top - 1 : bottom])
        r_los[-1], r_his[0] = lo, hi
        regions.append((list(range(top, bottom + 1)), r_los, r_his))
    return regions


def _check_factors(ladder, factors, cc, offsets):
    # Each corner list of the ladder is, in row order, factor 0's corners, then
    # per cut u >= 1 its corner cc[u-1] and factor u's corners, translated;
    # classify lays out the class-group labels by factor on this.  A cut with
    # no factor, or a factor with no cut, leaves a corner out of the list.
    # A Cell is a tuple, so plain (row, col) pairs compare equal to it.
    prof = corners(ladder)
    for kind in ("lower", "upper"):
        glued = []
        for cut, f, (dr, dc) in zip((None, *cc), factors, offsets):
            if cut:
                glued.append(cut)
            glued += [(r + dr, c + dc) for r, c in getattr(corners(f), kind)]
        if tuple(glued) != getattr(prof, kind):
            raise LadderError(f"decomposition failure: the factors' {kind} corners are not the ladder's")
    for u, f in enumerate(factors):
        fprof = corners(f)
        if not set(fprof.lower).isdisjoint(fprof.upper):
            raise LadderError(f"decomposition failure: factor {u} has a coincidental corner")
        if not validate(f).two_connected:
            raise LadderError(f"decomposition failure: factor {u} is not 2-connected")
    # The glue of the factors is Y (see decompose): the factors' rows but the
    # last start and their rows but the first end as Y's, and the last factor
    # ends in Y's last row.
    _, los, his, _ = ladder._spans
    for f, (dr, dc) in zip(factors, offsets):
        _, f_los, f_his, _ = f._spans
        if (
            tuple(map(dc.__add__, f_los[:-1])) != los[dr : dr + f.m - 1]
            or tuple(map(dc.__add__, f_his[1:])) != his[dr + 1 : dr + f.m]
        ):
            raise LadderError("decomposition failure: composing the factors does not recover the ladder")
    if dr + f.m != ladder.m:
        raise LadderError("decomposition failure: composing the factors does not recover the ladder")
