"""Gorenstein testing and enumeration of semidualizing module classes.

The class set is the family of 0/1 combinations of the embedded factor
canonical classes.  Each factor owns a contiguous block of the class-group
labels, and its image is its canonical class laid into that block, so the
images of the non-Gorenstein factors are nonzero with pairwise disjoint
supports; these combinations are all distinct and their number is 2 to the
number of non-Gorenstein factors in the coincidental-corner decomposition.
:func:`classify` certifies that from the factors' canonical classes alone,
each compared once with its block of the ladder's, and keeps each image as
its two runs of coefficients, so a report costs O(rank); the classes
themselves are enumerated only when :attr:`SdmReport.classes` is read.

Given that certificate, a class is a selection, not a sum: its coordinate
i is that of the image owning i if theta selects the image, else 0.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, cycle, islice, product, repeat
from typing import NamedTuple

from .classgroup import (
    DivisorClass,
    _format,
    _json_runs,
    _labels,
    _lead,
    _set_ladder,
    _set_vec,
    _terms,
    canonical_class,
)
from .decompose import decompose
from .ladders import (
    MAX_EXTENT_DIGITS,
    Ladder,
    LadderError,
    _brief,
    _glue,
    _matrix_spans,
    corners,
    is_int,
    require_analyzable,
)

# The most cells construct_2n builds, summed over its blocks (sum of m_u * n_u);
# every block is a full matrix, so a short --sizes list can ask for any number.
MAX_CONSTRUCT_CELLS = 10**6

_consume = deque(maxlen=0).extend  # runs an iterator to its end, keeping nothing


def is_gorenstein(ladder: Ladder) -> bool:
    """True iff m = n and every inside corner (r, s) satisfies r + s = m + 1."""
    require_analyzable(ladder)
    if ladder.m != ladder.n:
        return False
    prof = corners(ladder)
    target = ladder.m + 1
    return all(r + s == target for r, s in prof.lower + prof.upper)


class FactorReport(NamedTuple):
    """A factor (m x n), its Gorenstein test, and the image of its canonical class.

    The image lies in the class group of ``ladder``, the ladder classified,
    and is zero off two runs of its labels: ``q`` and ``p`` each give the
    position of a run's first label in basis order and the run's
    coefficients (``classify``).  ``omega_image`` builds the dense class on
    each read; the report and its JSON cost only the runs.
    """

    m: int
    n: int
    gorenstein: bool
    epsilon: int
    ladder: Ladder
    q: tuple[int, tuple[int, ...]]
    p: tuple[int, tuple[int, ...]]

    @property
    def omega_image(self) -> DivisorClass:
        prof = corners(self.ladder)
        vec = [0] * (prof.h + prof.k + 1)
        for start, run in (self.q, self.p):
            vec[start : start + len(run)] = run
        return DivisorClass._make(self.ladder, tuple(vec))

    def to_json_dict(self) -> dict:
        # Q(i) sits at position i - 1 and P(j) at h + j.
        (q0, q), (p0, p) = self.q, self.p
        h = corners(self.ladder).h
        return {
            "m": self.m,
            "n": self.n,
            "gorenstein": self.gorenstein,
            "omega_image": _json_runs(q0 + 1, q, p0 - h, p),
        }


class SdmReport(NamedTuple):
    """Classification of the semidualizing module classes of one ladder.

    ``count``, ``theta_vectors`` and ``classes`` are computed on each access;
    the last two are lexicographic in theta and aligned with each other.
    Both select coordinates from the factor images' disjoint supports.
    """

    rank: int
    omega: DivisorClass
    factors: tuple[FactorReport, ...]

    @property
    def count(self) -> int:
        return 2 ** sum(f.epsilon for f in self.factors)

    @property
    def theta_vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._thetas())

    def _thetas(self):
        return product(*((0,) if f.gorenstein else (0, 1) for f in self.factors))

    def _vectors(self):
        """The coordinate tuple of each class, in theta order."""
        # Column i holds coordinate i of every class: its owner's coefficient c
        # where theta selects that owner, else 0.  In theta order, theta
        # position t of n alternates in runs of 2**(n-1-t), so an owned column
        # cycles through that many 0s and as many c's; every other is 0.
        total = self.count
        columns = [repeat(0)] * self.rank
        run = total
        for f in self.factors:
            if not f.gorenstein:
                run //= 2
                for start, coeffs in (f.q, f.p):
                    for i, c in enumerate(coeffs, start):
                        if c:
                            columns[i] = cycle(chain(repeat(0, run), repeat(c, run)))
        return islice(zip(*columns), total)

    @property
    def classes(self) -> tuple[DivisorClass, ...]:
        # DivisorClass._make, as three loops in C: a Python call, or a Python
        # loop step, per class would double the cost.
        out = tuple(map(object.__new__, repeat(DivisorClass, self.count)))
        _consume(map(_set_ladder, out, repeat(self.omega.ladder)))
        _consume(map(_set_vec, out, self._vectors()))
        return out

    def _texts(self):
        """``str`` of omega, of each factor's image, and, as an iterator, of each
        class in ``classes``.  The label names are built once; a class joins the
        terms of the images it selects, each written once from its runs."""
        names = tuple(map(str, _labels(self.omega.ladder)))
        terms = [[_terms(names[s : s + len(run)], run) for s, run in (f.q, f.p)] for f in self.factors]
        picks = [t for f, t in zip(self.factors, terms) if not f.gorenstein]
        qs, ps = (product(*(("", t[kind]) for t in picks)) for kind in (0, 1))
        return (
            _format(names, self.omega._vec),
            [_lead(q + p) for q, p in terms],
            (_lead("".join(q) + "".join(p)) for q, p in zip(qs, ps)),
        )

    def _json_doc(self) -> dict:
        """``to_json_dict`` with ``classes`` and ``thetas`` as iterators; a class
        merges the JSON of the images it selects, each built once from its runs."""
        factors = [f.to_json_dict() for f in self.factors]
        frags = [d["omega_image"] for f, d in zip(self.factors, factors) if not f.gorenstein]
        qs, ps = (product(*(((), tuple(fr[kind].items())) for fr in frags)) for kind in ("Q", "P"))
        return {
            "rank": self.rank,
            "omega": self.omega.to_json_dict(),
            "count": self.count,
            "factors": factors,
            "classes": ({"Q": dict(chain(*q)), "P": dict(chain(*p))} for q, p in zip(qs, ps)),
            "thetas": map(list, self._thetas()),
        }

    def to_json_dict(self) -> dict:
        doc = self._json_doc()
        return {**doc, "classes": list(doc["classes"]), "thetas": list(doc["thetas"])}


def classify(ladder: Ladder) -> SdmReport:
    """Decompose, test each factor, and certify the 2^N distinct classes.

    Theta vectors pin the coordinate of a Gorenstein factor to 0 (its class
    is the zero vector, so allowing 1 there would only duplicate classes).

    Each factor's image lives on its own block of labels.  Cut factor u from
    the ladder at cc[u-1] above it and cc[u] below it (where they exist):

    1. a factor has no lower corner in its top row (no row lies above it)
       and no upper corner in its bottom row (no row lies below it);
    2. the corner rows of an analyzable ladder strictly increase, and the
       cut cc[u-1] is a lower and an upper corner of the ladder in factor
       u's top row, cc[u] one in its bottom row;
    3. so factor u's corners lie strictly between those two rows, and each
       corner list of the ladder is factor 0's corners, then per u >= 1 the
       cut cc[u-1] and factor u's corners (``decompose`` checks this).  Q(1)
       is keyed to row 1 and Q(i+1) to the i-th lower corner, so factor u
       owns a contiguous run of h_u + 1 Q labels (its top row, then its
       lower corners) and one of k_u P labels, plus the cut's P for u >= 1;
       the runs follow one another and partition the labels;
    4. so the images, each supported on its factor's runs, have disjoint
       supports by construction and need no runtime check.

    The image of factor u's canonical class (lambda_u, delta_u) is lambda_u
    on its Q run and delta_u on its P run, with lambda_u's first entry
    carried onto the cut's P for u >= 1; the report keeps the two runs, not
    a dense class.  The certificate: each image is zero iff its factor is
    Gorenstein, the canonical class agrees with each image on that image's
    runs, and the runs end at the last labels, so by 3 the canonical class
    is the sum of the images.  Each factor costs O(its rows and labels), so
    the report costs O(rows + rank).  A ladder with no coincidental corner
    is its own one factor, with the ladder's corners, so that factor's
    canonical class is omega, whose vector is reused, not computed again.
    """
    factorization = decompose(ladder)
    omega = canonical_class(ladder)
    vec = omega._vec
    rank = len(vec)
    q_end = corners(ladder).h + 1
    q, p = 0, q_end  # where factor u's Q and P runs start

    reports = []
    for u, factor in enumerate(factorization.factors):
        local = canonical_class(factor)._vec if factorization.w else vec
        h_u = corners(factor).h
        q_run = local[: h_u + 1]
        p_run = local[:1] + local[h_u + 1 :] if u else local[h_u + 1 :]
        if vec[q : q + len(q_run)] != q_run or vec[p : p + len(p_run)] != p_run:
            raise LadderError(
                f"internal inconsistency: factor {u}'s canonical class is not the ladder's on its labels"
            )
        gor = is_gorenstein(factor)
        if gor != (not any(q_run) and not any(p_run)):
            raise LadderError(
                f"internal inconsistency: factor {u} Gorenstein test and canonical image disagree"
            )
        reports.append(FactorReport(factor.m, factor.n, gor, 0 if gor else 1, ladder, (q, q_run), (p, p_run)))
        q, p = q + len(q_run), p + len(p_run)
    if (q, p) != (q_end, rank):
        raise LadderError("internal inconsistency: the factors' labels do not cover the class group")
    return SdmReport(rank=rank, omega=omega, factors=tuple(reports))


def construct_2n(n: int, sizes) -> Ladder:
    """Compose n non-square full-matrix blocks, giving exactly 2**n classes.

    Each block must be m x n with integers m, n > 1 and m != n; a square
    block would be Gorenstein (trivial canonical class) and contribute no
    factor of 2.  The blocks may hold at most ``MAX_CONSTRUCT_CELLS`` cells
    in all; that is checked before anything is built.  The blocks' spans are
    glued as ``compose`` glues ladders, and only the glue is built as a
    ladder.
    """
    sizes = list(sizes)
    if n < 1:
        raise LadderError("need at least one block; any Gorenstein ladder already gives a count of 1")
    if len(sizes) != n:
        raise LadderError(f"expected {n} block sizes, got {len(sizes)}")
    for m_u, n_u in sizes:
        if not (is_int(m_u) and is_int(n_u)):
            bad = m_u if not is_int(m_u) else n_u
            raise LadderError(f"block sizes must be integers, got {bad!r}")
        if m_u < 2 or n_u < 2 or m_u == n_u:
            block = f"{_brief(m_u)}x{_brief(n_u)}"
            if m_u < 2 or n_u < 2:
                raise LadderError(f"block {block} too small: both sides must exceed 1")
            raise LadderError(
                f"square block {block} rejected: a square matrix is Gorenstein (m = n), "
                "so it contributes no factor of 2"
            )
    total = sum(m_u * n_u for m_u, n_u in sizes)
    if total > MAX_CONSTRUCT_CELLS:
        # Python prints no int of over 4300 digits, and two long sides can multiply to one.
        many = total if total < 10**MAX_EXTENT_DIGITS else f"at least 10**{MAX_EXTENT_DIGITS}"
        raise LadderError(f"blocks of {many} cells in all exceed the cap of {MAX_CONSTRUCT_CELLS}")
    return Ladder._from_spans(*_glue([_matrix_spans(m_u, n_u) for m_u, n_u in sizes]))
