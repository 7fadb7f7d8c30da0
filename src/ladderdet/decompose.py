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
    _glue,
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
    closed regions between consecutive corners, each a slice of the
    ladder's rows (see ``_regions``); all structural invariants (exact
    union, one-cell overlaps, corner-free 2-connected factors, corner
    lists, compose round trip) are asserted before returning.  Every step
    reads rows of columns and is linear in the number of cells.

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
        regions = _regions(ladder, cc)
        _check_regions(ladder, cc, regions)

        factors = tuple(map(Ladder._from_rows, regions))
        offsets = tuple((min(region) - 1, min(map(min, region.values())) - 1) for region in regions)
        _check_factors(ladder, factors, cc, offsets)
        split = factors, cc, offsets
        object.__setattr__(ladder, "_split", split)
    return Factorization(ladder, *split)


def _regions(ladder, cc):
    """The closed regions between consecutive corners, each as its rows of columns.

    Region u is the row slice of rows cc[u-1].row..cc[u].row, cut to the
    columns cc[u].col..cc[u-1].col, running to the ladder's edge where u is
    the first or last region.  A row that falls inside the column range is
    shared, not copied; rows left empty by the cut are dropped.
    """
    tops = [1] + [p.row for p in cc]
    bottoms = [p.row for p in cc] + [ladder.m]
    lefts = [p.col for p in cc] + [1]
    rights = [ladder.n] + [p.col for p in cc]
    regions = []
    for top, bottom, lo, hi in zip(tops, bottoms, lefts, rights):
        region = {}
        for r in range(top, bottom + 1):
            cols = ladder.row_cols(r)
            if cols and not (lo <= min(cols) and max(cols) <= hi):
                cols = frozenset(c for c in cols if lo <= c <= hi)
            if cols:
                region[r] = cols
        regions.append(region)
    return regions


def _overlap(a, b):
    """The cells two regions share."""
    return {Cell(r, c) for r in a.keys() & b.keys() for c in a[r] & b[r]}


def _check_regions(ladder, cc, regions):
    if not all(regions):
        raise LadderError("decomposition failure: empty factor region")
    covered = {}
    for region in regions:
        for r, cols in region.items():
            covered[r] = covered[r] | cols if r in covered else cols
    if covered != ladder._rows:
        raise LadderError("decomposition failure: factors do not cover the ladder")
    for u in range(len(regions) - 1):
        overlap = _overlap(regions[u], regions[u + 1])
        if overlap != {cc[u]}:
            raise LadderError(
                f"decomposition failure: factors {u} and {u + 1} overlap in {sorted(overlap)}, "
                f"expected exactly {cc[u]}"
            )
    # The union is exact and adjacent regions share only their corner, so the
    # sizes add up to |Y| + w exactly when no two non-adjacent regions meet.
    if sum(len(cols) for region in regions for cols in region.values()) != len(ladder) + len(cc):
        u, v = next(
            (u, v)
            for u in range(len(regions))
            for v in range(u + 2, len(regions))
            if _overlap(regions[u], regions[v])
        )
        raise LadderError(f"decomposition failure: factors {u} and {v} overlap")


def _check_factors(ladder, factors, cc, offsets):
    # Each corner list of the ladder is, in row order, factor 0's corners, then
    # per cut u >= 1 its corner cc[u-1] and factor u's corners, translated;
    # classify lays out the class-group labels by factor on this.
    prof = corners(ladder)
    for kind in ("lower", "upper"):
        glued = []
        for u, (f, (dr, dc)) in enumerate(zip(factors, offsets)):
            if u:
                glued.append(cc[u - 1])
            glued += [Cell(r + dr, c + dc) for r, c in getattr(corners(f), kind)]
        if tuple(glued) != getattr(prof, kind):
            raise LadderError(f"decomposition failure: the factors' {kind} corners are not the ladder's")
    for u, f in enumerate(factors):
        if corners(f).coincidental:
            raise LadderError(f"decomposition failure: factor {u} has a coincidental corner")
        if not validate(f).two_connected:
            raise LadderError(f"decomposition failure: factor {u} is not 2-connected")
    # Equal rows are equal ladders, and the ladder's rows are closed, so this is
    # compose(factors) == ladder without building and hashing a second ladder.
    if _glue(factors) != ladder._rows:
        raise LadderError("decomposition failure: composing the factors does not recover the ladder")
