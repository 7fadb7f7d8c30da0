"""Splitting a 2-connected ladder at its coincidental inside corners.

A coincidental corner is both a lower and an upper inside corner; cutting at
each one yields factors that overlap pairwise in exactly that corner cell,
and gluing the factors back with :func:`ladderdet.ladders.compose` recovers
the original ladder.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .ladders import (
    Cell,
    CornerProfile,
    Ladder,
    LadderError,
    coincidental_corners,
    compose,
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
    per_factor_corners: tuple[CornerProfile, ...]

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
    closed regions between consecutive corners; all structural invariants
    (exact union, one-cell overlaps, corner-free 2-connected factors,
    compose round trip) are asserted before returning.  Every step is
    linear in the number of cells, up to a bisection over the corner rows.
    """
    require_analyzable(ladder)
    cc = coincidental_corners(ladder)
    regions = _regions(ladder, cc)
    _check_regions(ladder, cc, regions)

    factors = []
    offsets = []
    for region in regions:
        dr = min(p.row for p in region) - 1
        dc = min(p.col for p in region) - 1
        factors.append(Ladder(Cell(p.row - dr, p.col - dc) for p in region))
        offsets.append((dr, dc))

    _check_factors(ladder, factors, cc)
    return Factorization(
        ladder=ladder,
        factors=tuple(factors),
        coincidental=cc,
        offsets=tuple(offsets),
        per_factor_corners=tuple(corners(f) for f in factors),
    )


def _regions(ladder, cc):
    """The closed regions between consecutive corners, built in one pass.

    Region u spans rows cc[u-1].row..cc[u].row and columns cc[u].col..cc[u-1].col,
    running to the ladder's edge where u is the first or last region.  An
    analyzable ladder's corner rows strictly increase, so a cell in row r can
    lie only in region bisect_left(corner_rows, r) and, when r is a corner
    row, in the next one.
    """
    w = len(cc)
    corner_rows = [p.row for p in cc]
    left = [p.col for p in cc] + [1]
    right = [ladder.n] + [p.col for p in cc]
    regions = [set() for _ in range(w + 1)]
    for p in ladder.cells:
        u = bisect_left(corner_rows, p.row)
        for v in (u, u + 1) if u < w and corner_rows[u] == p.row else (u,):
            if left[v] <= p.col <= right[v]:
                regions[v].add(p)
    return regions


def _check_regions(ladder, cc, regions):
    if not all(regions):
        raise LadderError("decomposition failure: empty factor region")
    if set().union(*regions) != ladder.cells:
        raise LadderError("decomposition failure: factors do not cover the ladder")
    for u in range(len(regions) - 1):
        overlap = regions[u] & regions[u + 1]
        if overlap != {cc[u]}:
            raise LadderError(
                f"decomposition failure: factors {u} and {u + 1} overlap in {sorted(overlap)}, "
                f"expected exactly {cc[u]}"
            )
    # The union is exact and adjacent regions share only their corner, so the
    # sizes add up to |Y| + w exactly when no two non-adjacent regions meet.
    if sum(map(len, regions)) != len(ladder) + len(cc):
        u, v = next(
            (u, v)
            for u in range(len(regions))
            for v in range(u + 2, len(regions))
            if regions[u] & regions[v]
        )
        raise LadderError(f"decomposition failure: factors {u} and {v} overlap")


def _check_factors(ladder, factors, cc):
    prof = corners(ladder)
    sum_h = sum(corners(f).h for f in factors)
    sum_k = sum(corners(f).k for f in factors)
    if sum_h + len(cc) != prof.h or sum_k + len(cc) != prof.k:
        raise LadderError("decomposition failure: corner counts do not add up")
    for u, f in enumerate(factors):
        if coincidental_corners(f):
            raise LadderError(f"decomposition failure: factor {u} has a coincidental corner")
        if not validate(f).two_connected:
            raise LadderError(f"decomposition failure: factor {u} is not 2-connected")
    if compose(factors) != ladder:
        raise LadderError("decomposition failure: composing the factors does not recover the ladder")
