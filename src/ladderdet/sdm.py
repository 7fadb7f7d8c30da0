"""Gorenstein testing and enumeration of semidualizing module classes.

The class set is the family of 0/1 combinations of the embedded factor
canonical classes.  The images of the non-Gorenstein factors are nonzero
with pairwise disjoint supports, so these combinations are all distinct and
their number is 2 to the number of non-Gorenstein factors in the
coincidental-corner decomposition.  :func:`classify` certifies that from
the factor images alone, each read once; the classes themselves are
enumerated only when :attr:`SdmReport.classes` is read.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .classgroup import DivisorClass, _embed, _labels, canonical_class, relabel
from .decompose import decompose
from .ladders import Ladder, LadderError, compose, corners, require_analyzable

# The most cells construct_2n builds, summed over its blocks (sum of m_u * n_u);
# every block is a full matrix, so a short --sizes list can ask for any number.
MAX_CONSTRUCT_CELLS = 10**6


def is_gorenstein(ladder: Ladder) -> bool:
    """True iff m = n and every inside corner (r, s) satisfies r + s = m + 1."""
    require_analyzable(ladder)
    if ladder.m != ladder.n:
        return False
    prof = corners(ladder)
    target = ladder.m + 1
    return all(r + s == target for r, s in prof.lower + prof.upper)


class FactorReport(NamedTuple):
    m: int
    n: int
    gorenstein: bool
    epsilon: int
    omega_image: DivisorClass

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "gorenstein": self.gorenstein,
            "omega_image": self.omega_image.to_json_dict(),
        }


class SdmReport(NamedTuple):
    """Classification of the semidualizing module classes of one ladder.

    ``count``, ``theta_vectors`` and ``classes`` are computed on each access;
    the last two are lexicographic in theta and aligned with each other.
    """

    rank: int
    omega: DivisorClass
    factors: tuple[FactorReport, ...]

    @property
    def count(self) -> int:
        return 2 ** sum(f.epsilon for f in self.factors)

    @property
    def theta_vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.product(*((0,) if f.gorenstein else (0, 1) for f in self.factors)))

    @property
    def classes(self) -> tuple[DivisorClass, ...]:
        # Doubling from the last factor keeps theta order: one addition per class.
        classes = [DivisorClass.zero(self.omega.ladder)]
        for f in reversed(self.factors):
            if not f.gorenstein:
                classes += [f.omega_image + c for c in classes]
        return tuple(classes)

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "omega": self.omega.to_json_dict(),
            "count": self.count,
            "factors": [f.to_json_dict() for f in self.factors],
            "classes": [c.to_json_dict() for c in self.classes],
            "thetas": [list(t) for t in self.theta_vectors],
        }


def classify(ladder: Ladder) -> SdmReport:
    """Decompose, test each factor, and certify the 2^N distinct classes.

    Theta vectors pin the coordinate of a Gorenstein factor to 0 (its class
    is the zero vector, so allowing 1 there would only duplicate classes).
    The certificate: each factor image is zero iff its factor is Gorenstein,
    the images have pairwise disjoint supports, and they sum to the
    canonical class.
    """
    factorization = decompose(ladder)
    omega = canonical_class(ladder)
    roles = relabel(factorization)

    reports = []
    owner = {}
    for u, factor in enumerate(factorization.factors):
        gor = is_gorenstein(factor)
        image = _embed(factorization, roles, u)
        if gor != image.is_zero:
            raise LadderError(
                f"internal inconsistency: factor {u} Gorenstein test and canonical image disagree"
            )
        for i in itertools.compress(range(len(image._vec)), image._vec):
            if owner.setdefault(i, u) != u:
                raise LadderError(
                    f"internal inconsistency: disjoint-support invariant fails: factor {u}'s canonical image "
                    f"shares {_labels(ladder)[i]} with factor {owner[i]}'s"
                )
        reports.append(FactorReport(factor.m, factor.n, gor, 0 if gor else 1, image))

    if sum((r.omega_image for r in reports), DivisorClass.zero(ladder)) != omega:
        raise LadderError("internal inconsistency: factor images do not sum to the canonical class")
    return SdmReport(rank=len(roles), omega=omega, factors=tuple(reports))


def construct_2n(n: int, sizes) -> Ladder:
    """Compose n non-square full-matrix blocks, giving exactly 2**n classes.

    Each block must be m x n with m, n > 1 and m != n; a square block would
    be Gorenstein (trivial canonical class) and contribute no factor of 2.
    The blocks may hold at most ``MAX_CONSTRUCT_CELLS`` cells in all; that is
    checked before any block is built.
    """
    sizes = list(sizes)
    if n < 1:
        raise LadderError("need at least one block; any Gorenstein ladder already gives a count of 1")
    if len(sizes) != n:
        raise LadderError(f"expected {n} block sizes, got {len(sizes)}")
    for m_u, n_u in sizes:
        if m_u < 2 or n_u < 2:
            raise LadderError(f"block {m_u}x{n_u} too small: both sides must exceed 1")
        if m_u == n_u:
            raise LadderError(
                f"square block {m_u}x{n_u} rejected: a square matrix is Gorenstein (m = n), "
                "so it contributes no factor of 2"
            )
    total = sum(m_u * n_u for m_u, n_u in sizes)
    if total > MAX_CONSTRUCT_CELLS:
        raise LadderError(
            f"blocks of {total} cells in all exceed the cap of {MAX_CONSTRUCT_CELLS}"
        )
    return compose(Ladder.full_matrix(m_u, n_u) for m_u, n_u in sizes)
