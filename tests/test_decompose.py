import functools
import gc
import importlib
import json
import random
from collections import Counter

import pytest

from ladderdet import (
    Cell,
    Ladder,
    LadderError,
    classify,
    compose,
    corners,
    decompose,
    require_analyzable,
    validate,
)

from helpers import (
    compose_oracle,
    decompose_by_cutting,
    enumerate_ladder_cellsets,
    random_staircase_cells,
    random_two_connected_staircase,
    spans_from_corners,
)

# the package's `decompose` attribute is the function, so fetch the module itself
decompose_module = importlib.import_module("ladderdet.decompose")
ladders_module = importlib.import_module("ladderdet.ladders")


def factorization_roundtrip_check(factors):
    """Whether decompose(compose(factors)) returns exactly the given factors."""
    factors = list(factors)
    for f in factors:
        require_analyzable(f)
        if corners(f).coincidental:
            raise LadderError("round-trip factors must be free of coincidental corners")
    return list(decompose(compose(factors)).factors) == factors


@functools.lru_cache(maxsize=1)  # three tests walk the same ladders
def analyzable_up_to_5x5():
    """Every analyzable ladder up to 5x5, in the enumeration's order."""
    out = []
    for cells in enumerate_ladder_cellsets(5, 5):
        ladder = Ladder(cells)
        report = validate(ladder)
        if report.two_connected and report.sidedness != "other":
            out.append(ladder)
    return tuple(out)


def random_corner_free_factor(rng, max_m=6, max_n=6):
    while True:
        ladder = Ladder(random_staircase_cells(rng, max_m, max_n))
        if validate(ladder).two_connected and not corners(ladder).coincidental:
            return ladder


def test_decompose_l3(l3):
    f = decompose(l3)
    assert f.w == 1
    assert f.factors == (Ladder.full_matrix(3, 2), Ladder.full_matrix(3, 2))
    assert f.coincidental == (Cell(3, 2),)
    assert f.offsets == ((0, 1), (2, 0))


def test_decompose_without_coincidental_corner(l1):
    f = decompose(l1)
    assert f.w == 0
    assert f.factors == (l1,)
    assert f.offsets == ((0, 0),)


def test_decompose_four_factors(l1, l2):
    half = Ladder.full_matrix(3, 2)
    composite = compose([l1, l2, half, half])
    f = decompose(composite)
    assert f.w == 3
    assert f.factors == (l1, l2, half, half)


def test_decompose_rejects_non_two_connected():
    with pytest.raises(LadderError, match="2-connected"):
        decompose(Ladder.full_matrix(1, 4))


def test_roundtrip_check_examples(l1, l2):
    half = Ladder.full_matrix(3, 2)
    assert factorization_roundtrip_check([half, half])
    assert factorization_roundtrip_check([l1])
    assert factorization_roundtrip_check([l1, l2, half, half])


def test_roundtrip_check_rejects_coincidental_factor(l3):
    with pytest.raises(LadderError, match="coincidental"):
        factorization_roundtrip_check([l3])


def test_decompose_compose_roundtrip_randomized():
    rng = random.Random(17)
    for _ in range(30):
        factors = [random_corner_free_factor(rng) for _ in range(rng.randint(1, 4))]
        assert factorization_roundtrip_check(factors)


def test_factor_invariants_randomized():
    rng = random.Random(23)
    for _ in range(25):
        factors = [random_corner_free_factor(rng, 5, 5) for _ in range(rng.randint(2, 4))]
        composite = compose(factors)
        f = decompose(composite)
        assert len(f.factors) == f.w + 1
        prof = corners(composite)
        assert sum(corners(factor).h for factor in f.factors) + f.w == prof.h
        assert sum(corners(factor).k for factor in f.factors) + f.w == prof.k
        translated = set()
        for factor, (dr, dc) in zip(f.factors, f.offsets):
            assert validate(factor).two_connected
            assert not corners(factor).coincidental
            translated |= {Cell(p.row + dr, p.col + dc) for p in factor.cells}
        assert translated == set(composite.cells)
        assert compose(f.factors) == composite


def test_decompose_rejects_non_adjacent_overlap(monkeypatch, l1, l2):
    # one cell of the last region also placed in the first, in a row of its
    # own there: the union stays right, but factor 0 grows a row and a lower
    # corner that the ladder does not have there
    regions = decompose_module._regions

    def overlapping(ladder, cc):
        out = regions(ladder, cc)
        rows, los, his = out[0]
        row, col = out[2][0][-1], out[2][1][-1]
        assert row > cc[-1].row and row not in rows
        out[0] = (rows + [row], los + [col], his + [col])
        return out

    monkeypatch.setattr(decompose_module, "_regions", overlapping)
    with pytest.raises(LadderError, match="^decomposition failure: the factors' lower corners are not the ladder's$"):
        decompose(compose([l1, l2, Ladder.full_matrix(3, 2)]))


def test_decompose_takes_the_offsets_from_the_glue(monkeypatch, l3):
    # L3's two regions are equal factors: listed in the wrong order they give
    # the same factors, and the offsets still say where each is glued
    regions = decompose_module._regions
    monkeypatch.setattr(decompose_module, "_regions", lambda ladder, cc: regions(ladder, cc)[::-1])
    f = decompose(l3)
    assert f.factors == (Ladder.full_matrix(3, 2),) * 2
    assert f.offsets == ((0, 1), (2, 0))


def test_decompose_rejects_merged_regions(monkeypatch, l1, l2):
    # the last two regions as one: the union is exact and the first cut is
    # right, but the last cut has no factor below it
    regions = decompose_module._regions

    def merged(ladder, cc):
        # the two regions share their cut row, where their spans meet in the corner
        *out, (rows_a, los_a, his_a), (rows_b, los_b, his_b) = regions(ladder, cc)
        assert rows_a[-1] == rows_b[0] and his_b[0] == los_a[-1]
        return [*out, (rows_a + rows_b[1:], los_a[:-1] + los_b, his_a + his_b[1:])]

    monkeypatch.setattr(decompose_module, "_regions", merged)
    with pytest.raises(LadderError, match="^decomposition failure: factor 1 has a coincidental corner$"):
        decompose(compose([l1, l2, Ladder.full_matrix(3, 2)]))


@pytest.mark.parametrize(
    "kind, fault",
    [
        # the corner counts still add up: only the list sees the moved corner
        pytest.param("lower", lambda cells: tuple(Cell(r, c + 1) for r, c in cells), id="lower-moved"),
        pytest.param("upper", lambda cells: cells[1:], id="upper-dropped"),
    ],
)
def test_decompose_rejects_factor_corners_off_the_ladders(monkeypatch, l1, l3, kind, fault):
    corners_of = decompose_module.corners

    def faulty(ladder):
        prof = corners_of(ladder)
        return prof._replace(**{kind: fault(getattr(prof, kind))}) if ladder == l1 else prof

    monkeypatch.setattr(decompose_module, "corners", faulty)
    with pytest.raises(LadderError, match=f"^decomposition failure: the factors' {kind} corners are not the ladder's$"):
        decompose(compose([l1, l3]))


def test_factorization_json(l3):
    doc = decompose(l3).to_json_dict()
    assert doc["coincidental"] == [[3, 2]]
    assert doc["offsets"] == [[0, 1], [2, 0]]
    assert [len(f["cells"]) for f in doc["factors"]] == [6, 6]
    json.dumps(doc)  # serializable


def test_decompose_keeps_its_factorization_on_the_ladder(l1, l3):
    for ladder in (l1, l3):
        first = decompose(ladder)
        again = decompose(ladder)
        assert again.factors is first.factors and again == first and again.ladder is ladder


def test_classify_after_decompose_checks_the_factors_once(monkeypatch, l1, l2):
    calls = []
    check = decompose_module._check_factors
    monkeypatch.setattr(decompose_module, "_check_factors", lambda *args: calls.append(1) or check(*args))
    ladder = compose([l1, l2, Ladder.full_matrix(3, 2)])
    decompose(ladder)
    assert classify(ladder).count == 4
    assert len(calls) == 1


def _inject(monkeypatch, fault):
    """Make decompose cut its regions as usual, then apply fault to their list."""
    regions = decompose_module._regions

    def faulty(ladder, cc):
        out = regions(ladder, cc)
        fault(out)
        return out

    monkeypatch.setattr(decompose_module, "_regions", faulty)


# Each fault below passes the corner lists and the factor checks, and the
# glue's joins and extent reject it: the glue must join factor u to the next
# at the ladder's corner cc[u], end in the ladder's last row and reach its
# last column.

def _row_short(out):
    # L3's last region loses its last row: the glue ends a row above the
    # ladder's last, and only the join after the last factor sees it
    rows, los, his = out[-1]
    out[-1] = rows[:-1], los[:-1], his[:-1]


def _cut_lower(out):
    # two 3x3 blocks cut a row below their corner, into 4x3 and 2x3: the glue
    # joins them in row 4, a row below the ladder's corner
    (rows, los, his), (rows_1, los_1, his_1) = out
    out[:] = [(rows + rows_1[1:2], los + los[-1:], his + his[-1:]), (rows_1[1:], los_1[1:], his_1[1:])]


def _cut_higher(out):
    # the same blocks cut a row above their corner, into 2x3 and 4x3: the glue
    # joins them in row 2, a row above the ladder's corner
    (rows, los, his), (rows_1, los_1, his_1) = out
    out[:] = [(rows[:-1], los[:-1], his[:-1]), (rows[-2:-1] + rows_1, los_1[:1] + los_1, his_1[:1] + his_1)]


def _narrow_first(out):
    # the first 3x3 block one column narrower: the join is the ladder's
    # corner, but the glue's rows end short of the ladder's last column
    rows, los, his = out[0]
    out[0] = rows, [lo + 1 for lo in los], his


def test_a_failed_decomposition_is_not_kept(monkeypatch, l3):
    # the joins are the last check, made after the factors are built
    _inject(monkeypatch, _row_short)
    for _ in range(2):
        with pytest.raises(LadderError, match="composing the factors does not recover the ladder"):
            decompose(l3)
        assert l3._split is None
    monkeypatch.undo()
    assert decompose(l3).w == 1


@pytest.mark.parametrize(
    "fault, shape",
    [
        pytest.param(_row_short, "l3", id="rows"),
        pytest.param(_cut_lower, "blocks", id="los"),
        pytest.param(_cut_higher, "blocks", id="his"),
        pytest.param(_narrow_first, "blocks", id="columns"),
    ],
)
def test_decompose_rejects_factors_that_do_not_glue_to_the_ladder(monkeypatch, l3, fault, shape):
    ladder = l3 if shape == "l3" else compose([Ladder.full_matrix(3, 3)] * 2)
    _inject(monkeypatch, fault)
    with pytest.raises(LadderError, match="^decomposition failure: composing the factors does not recover the ladder$"):
        decompose(ladder)
    assert ladder._split is None


def test_the_joins_and_the_extent_certify_the_glue(l1, l2):
    # on small glues, one factor replaced by every 2-connected shape up to 4x4
    # with no coincidental corner, and two by a seeded sample of them: the
    # checks pass exactly when the factors glue to the ladder's cells.  Some
    # shapes have a gap in their rows or columns; one whose rows give the
    # ladder's corners may still leave a column of its glue empty
    shapes = [x for x in map(Ladder, enumerate_ladder_cellsets(4, 4)) if validate(x).two_connected]
    shapes = [x for x in shapes if not corners(x).coincidental]
    full = Ladder.full_matrix
    glues = [compose(fs) for fs in ([full(3, 2)] * 2, [full(3, 3)] * 2, [l1, l2], [full(2, 3), l1, full(3, 2)])]
    rng = random.Random(29)
    outcomes = Counter()
    for ladder in glues:
        f = decompose(ladder)
        cells, spots = set(ladder.cells), range(len(f.factors))
        swaps = [{u: x} for u in spots for x in shapes]
        pairs = [(u, v) for u in spots for v in spots[u + 1 :]] * 1500
        swaps += [{u: rng.choice(shapes), v: rng.choice(shapes)} for u, v in pairs]
        for swap in swaps:
            factors = tuple(swap.get(u, x) for u, x in enumerate(f.factors))
            offsets = ladders_module._offsets([x._spans for x in factors])
            try:
                decompose_module._check_factors(ladder, factors, f.coincidental, offsets)
                outcome = "passed"
            except LadderError as exc:
                outcome = str(exc)
            assert (outcome == "passed") == (compose_oracle([x.cells for x in factors]) == cells), (ladder, swap)
            outcomes[outcome] += 1
    assert len(shapes) == 132 and sum(outcomes.values()) == 10188
    # only the true factors pass, two per glue but that of l1 and l2, which
    # are larger than 4x4
    assert outcomes["passed"] == 6
    assert outcomes["decomposition failure: factor 0 is not path-connected"] > 0
    assert outcomes["decomposition failure: composing the factors does not recover the ladder"] > 0


def test_kept_factorization_holds_no_reference_to_its_ladder(l1, l3):
    # a cycle would keep a dropped ladder alive until the cycle collector runs
    followed = (tuple, dict, frozenset, Ladder, Cell)
    for ladder in (l1, l3):
        decompose(ladder)
        seen, stack = set(), [ladder._split]
        while stack:
            obj = stack.pop()
            assert obj is not ladder
            if id(obj) not in seen:
                seen.add(id(obj))
                stack += [x for x in gc.get_referents(obj) if type(x) in followed]
        assert len(seen) > len(decompose(ladder).factors)


def test_one_factor_decomposition_is_the_cutting_oracles():
    # every analyzable ladder up to 5x5 with no coincidental corner: its twin
    # is the factor that cutting, rebuilding and gluing make, checked in full
    seen = 0
    for ladder in analyzable_up_to_5x5():
        if corners(ladder).coincidental:
            continue
        seen += 1
        oracle = decompose_by_cutting(ladder)
        f = decompose(ladder)
        assert f == oracle and f.ladder is ladder and f.offsets == ((0, 0),) and f.coincidental == ()
        for got, want in zip(f.factors, oracle.factors, strict=True):
            assert got._spans == want._spans
            assert corners(got) == corners(want) and validate(got) == validate(want)
            assert (got.m, got.n, len(got), hash(got)) == (want.m, want.n, len(want), hash(want))
    assert seen == 337


def test_one_factor_decomposition_surveys_no_row(monkeypatch, l1, cell_reads):
    calls = []
    survey, from_spans = ladders_module._survey, Ladder._from_spans
    monkeypatch.setattr(ladders_module, "_survey", lambda *args: calls.append("_survey") or survey(*args))
    counted = classmethod(lambda cls, *args: calls.append("_from_spans") or from_spans(*args))
    monkeypatch.setattr(Ladder, "_from_spans", counted)
    (factor,) = decompose(l1).factors
    assert calls == []
    assert factor == l1 and factor is not l1
    assert factor._corners is l1._corners and factor._report is l1._report and factor._spans is l1._spans
    assert factor._split is None and cell_reads == []


def two_sided_glues(seed, count):
    """count seeded glues of 2 to 6 two-sided staircases up to 6x6, each
    2-connected with no coincidental corner, so every factor has inside
    corners of its own."""
    rng = random.Random(seed)

    def factor():
        while True:
            ladder = Ladder(random_two_connected_staircase(rng, 6, 6))
            if validate(ladder).sidedness == "two-sided" and not corners(ladder).coincidental:
                return ladder

    return [compose([factor() for _ in range(rng.randint(2, 6))]) for _ in range(count)]


def test_decomposition_at_corners_is_the_cutting_oracles():
    # the oracle clips every row and sorts and merges each factor's columns;
    # decompose cuts two row ends per region and takes the columns as one run
    small = [ladder for ladder in analyzable_up_to_5x5() if corners(ladder).coincidental]
    glues = two_sided_glues(20, 200)
    assert len(small) == 157 and len(glues) == 200
    assert all(corners(x).h and corners(x).k for g in glues for x in decompose_by_cutting(g).factors)
    for ladder in small + glues:
        oracle = decompose_by_cutting(ladder)
        f = decompose(ladder)
        # decompose's offsets are the running sums of _offsets and the
        # oracle's the closed form, so this compares the two formulas too
        assert f == oracle and f.ladder is ladder and f.w >= 1
        for got, want in zip(f.factors, oracle.factors, strict=True):
            assert got._spans == want._spans
            assert corners(got) == corners(want) and validate(got) == validate(want)
            assert (got.m, got.n, len(got), hash(got)) == (want.m, want.n, len(want), hash(want))


def test_corners_fix_the_spans():
    # the first lemma of decompose's proof: on an analyzable ladder, lo_r is
    # the column of the first lower corner below row r, or 1, and hi_r that of
    # the last upper corner above row r, or n
    for ladder in (*analyzable_up_to_5x5(), *two_sided_glues(20, 200)):
        prof = corners(ladder)
        los, his = spans_from_corners(ladder.m, ladder.n, prof.lower, prof.upper)
        assert ladder._spans == (range(1, ladder.m + 1), tuple(los), tuple(his), range(1, ladder.n + 1))


def test_coincidental_corners_are_the_sorted_intersection():
    # the lower corners that are upper ones too, in row order, are the sorted
    # intersection of the two lists on every ladder up to 5x5, analyzable or not
    ladders = [Ladder(cells) for cells in enumerate_ladder_cellsets(5, 5)] + two_sided_glues(21, 200)
    assert len(ladders) == 20417 + 200
    for ladder in ladders:
        prof = corners(ladder)
        assert prof.coincidental == tuple(sorted(set(prof.lower) & set(prof.upper)))
    assert sum(bool(corners(ladder).coincidental) for ladder in ladders) > 300
