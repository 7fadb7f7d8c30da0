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
    rows with two ends cut (see ``_regions``).  The factors are certified by
    their glue, which is not built: ``_offsets`` gives the offsets at which
    ``_glue`` would place them, and ``_check_factors`` asks that Y's corner
    lists be the factors' lists, translated, with cc[u] between factors u
    and u + 1; that every factor be 2-connected and path-connected; and
    that the glue join factor u to factor u + 1 at cc[u] and reach Y's last
    row and last column.  Besides the factors' own surveys, which are the
    independent evidence, these steps take O(w + h + k) Python steps.  Two
    lemmas show that they make the glue Y, and a third that no factor then
    has a coincidental corner.

    Corners fix the spans.  Let the rows of Y be 1..m, each the run
    lo_r..hi_r, with lo and hi never increasing down the rows and
    lo_{r-1} <= hi_r, as on an analyzable ladder (module docstring of
    ``ladders``, "Closed forms").  Then (r, c) is a lower corner exactly
    when c = lo_{r-1} and lo_r < c, and an upper one exactly when
    c = hi_{r+1} and hi_r > c.  So down the rows lo changes only at a lower
    corner (r, c), from c = lo_{r-1}, and hi changes only below an upper
    corner (r, c), to c = hi_{r+1}.  Hence lo_r is the column of the first
    lower corner below row r, or 1 if there is none, and hi_r is the column
    of the last upper corner above row r, or n if there is none: m, n and
    the two corner lists fix Y.

    The glue's corners.  Let factor u have m_u rows and n_u columns and sit
    at the offset (dr_u, dc_u) that ``_offsets`` gives: dr_0 = 0, dc_w = 0,
    and J_u = (dr_u + m_u, dc_u + 1) is the cell where the glue puts its
    (m_u, 1) on the next factor's (1, n_{u+1}).  Let every factor be
    2-connected and path-connected.  A 2-connected ladder has two rows or
    more, each of two columns or more, its first two rows end in the same
    column and its last two start in the same one: a column that only its
    first or only its last row held would lie in no full 2-minor.
    So a factor's corners lie in its rows 2..m_u - 1, where the glue's row
    and the rows next to it are the factor's, shifted: there the glue has
    the factor's corners, translated.  The row above J_u starts in J_u's
    column and the row below ends in it, while the row of J_u starts left
    of it and ends right of it: J_u is a lower and an upper corner of the
    glue.  The glue's first and last rows hold no corner, as the factors'
    do not.  So the glue's corners are the factors' corners, translated,
    with each J_u inserted as both a lower and an upper corner, in row
    order.  The glue's rows are 1..dr_w + m_w and its columns
    1..dc_0 + n_0, each row is a run, the ends never increase, and adjacent
    rows share a column, so the first lemma holds for it.

    So once J_u = cc[u] for u < w, with dr_w + m_w = m and dc_0 + n_0 = n,
    the corner-list check shows that the glue and Y have the same m, n and
    corner lists, and so they are equal.  Placed at its offset, factor u
    then is the part of Y in the box between cc[u-1] and cc[u], adjacent
    factors meet in their corner only, and no others meet.  The offsets are
    the closed form (cc[u-1].row - 1, cc[u].col - 1), reading Y's edge
    (1, n) for cc[u-1] when u = 0 and (m, 1) for cc[u] when u = w.  A
    factor whose columns are not one run is not path-connected, and is
    refused before the joins are read, so the factors' columns are
    certified to be the run ``_regions`` builds them on, not assumed to be.

    The factors have no coincidental corner.  The joins have one entry per
    factor and must be [*cc, (m, 1)], so a list that passes has w + 1
    factors, and each glued corner list holds every cut exactly once.  Y's
    corner rows strictly increase, so neither of its lists repeats an
    entry.  Were x a coincidental corner of factor u, then, as the glued
    lists are Y's, x translated would lie in both of Y's lists, so it would
    be a coincidental corner of Y, hence a cut, and would appear twice in
    each glued list, once as the cut and once as factor u's corner: that
    list would repeat an entry.  So no check asks it.

    With no coincidental corner (w = 0) nothing is cut: Y is its own one
    factor, at offset (0, 0), so no row is surveyed again, and nothing is
    kept.  Each check above is vacuous there: the factor's corner lists are
    Y's, with no cut to insert; ``require_analyzable`` has already shown Y
    to be 2-connected and path-connected; and the glue of one factor at
    (0, 0) is that factor.

    With w >= 1 the ladder keeps the factors, corners and offsets once they
    have passed every check, so a later call on the same object returns
    them at once; a failure is not kept, and raises again.  What it keeps
    refers to no ladder but the factors, which are new objects.  Two
    threads that decompose one ladder at once may both do the work and both
    store it, but what they store is equal, so the ladder can still be
    shared freely.
    """
    split = ladder._split
    if split is None:
        require_analyzable(ladder)
        cc = corners(ladder).coincidental
        if not cc:
            return Factorization(ladder, (ladder,), cc, ((0, 0),))
        regions = _regions(ladder, cc)
        factors = tuple(Ladder._from_spans(rows, los, his, range(los[-1], his[0] + 1)) for rows, los, his in regions)
        offsets = _offsets([f._spans for f in factors])
        _check_factors(ladder, factors, cc, offsets)
        split = factors, cc, offsets
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
    # classify lays out the class-group labels by factor on this.  The joins
    # below refuse a list with a cut and a factor too few or too many, which
    # zip would pair short.  A Cell is a tuple, so plain (row, col) pairs
    # compare equal to it.
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
        report = validate(f)
        if not report.two_connected:
            raise LadderError(f"decomposition failure: factor {u} is not 2-connected")
        if not report.path_connected:
            raise LadderError(f"decomposition failure: factor {u} is not path-connected")
    # The glue of the factors is Y (see decompose): it joins factor u to the
    # next at cc[u], and reaches Y's last row and last column.
    joins = [(dr + f.m, dc + 1) for f, (dr, dc) in zip(factors, offsets)]
    if joins != [*cc, (ladder.m, 1)] or offsets[0][1] + factors[0].n != ladder.n:
        raise LadderError("decomposition failure: composing the factors does not recover the ladder")
