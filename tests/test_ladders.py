import gc
import itertools
import json
import random
import re
import sys
import time
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderdet import (
    Cell,
    Ladder,
    LadderError,
    antitranspose,
    compose,
    corners,
    decompose,
    parse_ascii,
    parse_auto,
    parse_json,
    render_ascii,
    validate,
)
from ladderdet.sdm import classify, construct_2n

from helpers import (
    GAPPED_CELLSETS,
    L2_ASCII,
    L3_ASCII,
    L3_CELLS,
    CellSetLadder,
    closure_holds,
    compose_oracle,
    enumerate_ladder_cellsets,
    lower_ext,
    naive_corners,
    random_staircase_cells,
    single_cell_mutants,
    two_connected_by_partitions,
    validate_oracle,
)

cell_sets = st.sets(
    st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=12
)


# ---------------------------------------------------------------------------
# parsing

def test_parse_json_l3(l3):
    parsed = parse_json(json.dumps({"cells": L3_CELLS}))
    assert parsed == l3
    assert (parsed.m, parsed.n) == (5, 3)


def test_parse_json_singleton():
    parsed = parse_json('{"cells": [[1, 1]]}')
    assert (parsed.m, parsed.n) == (1, 1)
    assert len(parsed) == 1


def test_parse_json_closure_violation_names_a_pair():
    with pytest.raises(LadderError, match=r"\(1,1\) and \(2,2\)"):
        parse_json('{"cells": [[1, 1], [2, 2]]}')


def test_closure_violation_names_a_genuine_pair():
    # on every rejected single-cell mutant of the ladders <= 5x5, both named
    # cells are in the input and at least one cell they require is not
    pattern = re.compile(r"cells \((\d+),(\d+)\) and \((\d+),(\d+)\) require \((\d+),(\d+)\) and \((\d+),(\d+)\)")
    rejected = 0
    for cells in single_cell_mutants(enumerate_ladder_cellsets(5, 5), random.Random(41)):
        try:
            Ladder(cells)
        except LadderError as exc:
            rejected += 1
            found = pattern.search(str(exc))
            assert found, str(exc)
            (i, j), (p, q), *required = (tuple(map(int, found.groups()[k:k + 2])) for k in range(0, 8, 2))
            assert i < p and j <= q and required == [(i, q), (p, j)], str(exc)
            # indices are reported after translating the bounding box to (1, 1)
            dr = 1 - min(r for r, _ in cells)
            dc = 1 - min(col for _, col in cells)
            shifted = {(r + dr, col + dc) for r, col in cells}
            assert (i, j) in shifted and (p, q) in shifted, (sorted(cells), str(exc))
            assert not set(required) <= shifted, (sorted(cells), str(exc))
    assert rejected > 10000


def test_closure_error_path_is_linear():
    # two rows {1..N} over {1..N} minus N-1: the violation sits at the far end
    n = 100_000
    cells = [(1, c) for c in range(1, n + 1)] + [(2, c) for c in range(1, n + 1) if c != n - 1]
    start = time.process_time()
    with pytest.raises(LadderError, match=rf"\(1,{n - 1}\) and \(2,{n}\) require \(1,{n}\) and \(2,{n - 1}\)"):
        Ladder(cells)
    assert time.process_time() - start < 1.0


def test_parse_json_duplicates_warn_and_dedup():
    with pytest.warns(UserWarning, match="duplicate"):
        parsed = parse_json('{"cells": [[1, 1], [1, 1], [1, 2]]}')
    assert len(parsed) == 2


@pytest.mark.parametrize(
    "text",
    [
        "not json", '{"cells": "nope"}', '{"sells": []}', '{"cells": [[1]]}', '{"cells": [[1, "a"]]}',
        '{"cells": [[[1], 2]]}', '{"cells": [[1, {"a": 2}], [1, 1]]}',
    ],
)
def test_parse_json_rejects_malformed(text):
    with pytest.raises(LadderError):
        parse_json(text)


@pytest.mark.parametrize(
    "cells, message",
    [
        # entries are checked one at a time, in order, before any closure check
        pytest.param('[[1, 1], [1, "a"], [1]]', "cell indices must be integers, got (1, 'a')", id="index-first"),
        pytest.param('[[1, 1], [1], [1, "a"]]', "bad cell entry [1]: expected [row, col]", id="shape-first"),
        pytest.param('[[1, 1], [2, 2], [true, 1]]', "cell indices must be integers, got (True, 1)", id="bool"),
        pytest.param('[[1, 1], [1, 2, 3], [2, 2.0]]', "bad cell entry [1, 2, 3]: expected [row, col]", id="triple"),
        pytest.param('[[2, 1], [1, 1], {"r": 1}]', "bad cell entry {'r': 1}: expected [row, col]", id="object"),
        pytest.param('[[2, 1], {"r": 1, "c": 1}]', "bad cell entry {'r': 1, 'c': 1}: expected [row, col]", id="pair-object"),
        pytest.param('[[2, 1], "rc", [1]]', "bad cell entry 'rc': expected [row, col]", id="pair-string"),
        pytest.param("[[2, 1], 7]", "bad cell entry 7: expected [row, col]", id="number"),
        pytest.param('[[1, 1], [1, 1], [2, null]]', "cell indices must be integers, got (2, None)", id="duplicate"),
        # a long entry is cut to its first 60 characters and named by its length
        pytest.param(
            '[[1, 1], [1, "' + "x" * 100 + '"]]',
            "cell indices must be integers, got (1, '" + "x" * 55 + "... <107 chars>",
            id="long-index",
        ),
        pytest.param(
            "[[1, 1], [" + "0, " * 99 + "0]]",
            "bad cell entry [" + "0, " * 19 + "0,... <300 chars>: expected [row, col]",
            id="long-entry",
        ),
        pytest.param(
            "[[1, 1], [2, 2]]", "closure violation: cells (1,1) and (2,2) require (1,2) and (2,1)", id="closure"
        ),
    ],
)
def test_parse_json_names_the_first_bad_entry(cells, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(LadderError, match=f"^{re.escape(message)}$"):
            parse_json(f'{{"cells": {cells}}}')
    assert caught == []  # a rejected input is not warned of


def _parse_json_warned(text):
    """parse_json(text), and the message of every warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parsed = parse_json(text)
    return parsed, [str(w.message) for w in caught]


DUPLICATES = "duplicate cells in ladder input; deduplicating"


def test_parse_json_warns_once_of_duplicates():
    # repeated cells in one row and apart, in rows met again after others
    text = '{"cells": [[1, 1], [1, 1], [2, 1], [1, 2], [2, 1], [1, 1], [2, 2], [2, 2]]}'
    parsed, warned = _parse_json_warned(text)
    assert warned == [DUPLICATES]
    assert parsed == Ladder.full_matrix(2, 2)


def test_parse_json_of_shuffled_and_repeated_cells_is_the_ladder():
    rng = random.Random(73)
    repeated = 0
    for _ in range(200):
        cells = sorted(random_staircase_cells(rng, 7, 7))
        entries = [[r, c] for r, c in cells] + [[r, c] for r, c in cells if rng.random() < 0.2]
        if rng.random() < 0.8:
            rng.shuffle(entries)
        parsed, warned = _parse_json_warned(json.dumps({"cells": entries}))
        assert warned == [DUPLICATES] * (len(entries) > len(cells))
        repeated += len(entries) > len(cells)
        ladder = Ladder(cells)
        assert parsed == ladder and hash(parsed) == hash(ladder) and parsed._spans == ladder._spans
        assert (corners(parsed), validate(parsed)) == (corners(ladder), validate(ladder))
    assert 100 < repeated < 200


def test_parse_json_normalizes_offset_input():
    parsed = parse_json('{"cells": [[3, 4], [3, 5], [4, 4], [4, 5]]}')
    assert parsed == Ladder.full_matrix(2, 2)


def test_parse_ascii_l3(l3):
    assert parse_ascii(".##\n.##\n###\n##.\n##.") == l3


def test_parse_ascii_full_2x2():
    assert parse_ascii("##\n##") == Ladder.full_matrix(2, 2)


def test_parse_ascii_closure_violation():
    with pytest.raises(LadderError, match="closure violation"):
        parse_ascii("#.\n.#")


def test_parse_ascii_tolerates_whitespace_and_outer_blanks(l3):
    assert parse_ascii("\n\n.##  \n.##\n###\t\n##.\n##.\n\n") == l3


def test_parse_ascii_rejects_interior_blank_line():
    with pytest.raises(LadderError, match="blank row"):
        parse_ascii("##\n\n##")


def test_parse_ascii_rejects_stray_characters():
    with pytest.raises(LadderError, match="unexpected character"):
        parse_ascii("#x\n##")


def test_parse_ascii_names_the_first_stray_character():
    with pytest.raises(LadderError, match=re.escape("unexpected character 'x' at row 2, column 3")):
        parse_ascii("##.\n##x#y\n##z")


def test_every_construction_gives_the_same_ladder():
    rng = random.Random(11)
    for _ in range(100):
        cells = sorted(random_staircase_cells(rng, 6, 6))
        shuffled = cells[:]
        rng.shuffle(shuffled)
        ladder = Ladder(shuffled)
        built = [
            Ladder(cells),
            Ladder((r + 3, c + 2) for r, c in cells),
            parse_json(json.dumps({"cells": shuffled})),
            parse_ascii(render_ascii(ladder)),
        ]
        for other in built:
            assert other == ladder and hash(other) == hash(ladder)
            assert other.cells == set(cells) and len(other) == len(cells)
            assert all(type(p) is Cell for p in other.cells)
        assert ladder.is_full_matrix == (ladder == Ladder.full_matrix(ladder.m, ladder.n))


def test_parse_ascii_rejects_empty():
    with pytest.raises(LadderError, match="empty"):
        parse_ascii("...\n...")


def test_parse_auto_detects_format(l3):
    assert parse_auto("  " + json.dumps({"cells": L3_CELLS})) == l3
    assert parse_auto(L3_ASCII) == l3


def test_ladder_requires_integer_cells():
    with pytest.raises(LadderError):
        Ladder([(1.5, 1)])
    with pytest.raises(LadderError):
        Ladder([])


def test_extent_of_over_4300_digits_is_rejected():
    # 4300 digits is the longest integer Python prints
    wide = Ladder([(1, 1), (1, 10**4300 - 1)])
    assert len(str(wide.n)) == 4300
    with pytest.raises(LadderError, match="^ladder extent exceeds the cap of 4300 digits$"):
        Ladder([(1, -(10**4300 - 1)), (1, 10**4300 - 1)])
    with pytest.raises(LadderError, match="4300 digits"):
        Ladder([(10**4300, 1)] + [(1, 1)])


@pytest.mark.parametrize(
    "m, n, sides",
    [(10**30, 2, "<31-digit>x2"), (2, 10**30, "2x<31-digit>"), (2, 2**62, "2x<19-digit>")],
)
def test_full_matrix_beyond_a_countable_length_is_rejected(m, n, sides):
    # a ladder's len() counts its cells, and len() counts at most sys.maxsize
    message = f"cannot build a full {sides} matrix: its cells exceed the cap of {sys.maxsize}"
    with pytest.raises(LadderError, match=f"^{re.escape(message)}$"):
        Ladder.full_matrix(m, n)
    assert len(Ladder.full_matrix(1, sys.maxsize)) == sys.maxsize


@pytest.mark.parametrize("m, n", [(0, 3), (3, 0), (-2, 2)])
def test_full_matrix_takes_positive_sides(m, n):
    with pytest.raises(LadderError, match="^matrix dimensions must be positive$"):
        Ladder.full_matrix(m, n)


@pytest.mark.parametrize("cell", [(1,), (1, 2, 3), 7])
def test_ladder_takes_row_col_pairs(cell):
    # the constructor's own check, not parse_json's, which sees JSON lists only
    with pytest.raises(LadderError, match=f"^bad cell {re.escape(repr(cell))}: expected a \\(row, col\\) pair$"):
        Ladder([(1, 1), cell])


@pytest.mark.parametrize(
    "cell, message",
    [
        ((1, "x" * 10**6), "cell indices must be integers, got (1, '" + "x" * 55 + "... <1000007 chars>"),
        # repr itself refuses an int of over 4300 digits
        ((1.5, 10**5000), "cell indices must be integers, got <tuple holding an over-4300-digit int>"),
        ((0,) * 100, "bad cell (" + "0, " * 19 + "0,... <300 chars>: expected a (row, col) pair"),
    ],
    ids=["long-index", "unprintable-index", "long-cell"],
)
def test_a_long_bad_cell_is_cut_in_the_message(cell, message):
    with pytest.raises(LadderError, match=f"^{re.escape(message)}$"):
        Ladder([(1, 1), cell])


@pytest.mark.parametrize("m, n, bad", [(2.5, 3, "2.5"), (True, 3, "True"), (3, 2.0, "2.0"), ("3", 3, "'3'")])
def test_full_matrix_takes_integer_sides(m, n, bad):
    # not a TypeError from deep inside, and True is no side of 1
    with pytest.raises(LadderError, match=f"^matrix dimensions must be integers, got {re.escape(bad)}$"):
        Ladder.full_matrix(m, n)


# ---------------------------------------------------------------------------
# validation

def test_validate_l3(l3):
    report = validate(l3)
    doc = report.to_json_dict()
    assert doc["is_ladder"] is True and doc["normalized"] is True
    assert report.every_cell_in_minor and report.two_connected and report.path_connected
    assert report.sidedness == "two-sided"


def test_validate_full_matrix():
    report = validate(Ladder.full_matrix(2, 2))
    assert report.two_connected
    assert report.sidedness == "matrix"


def test_span_built_ladders_hold_no_row_set(l1, l3, cell_reads):
    # a ladder is its row spans and its occupied columns: built from spans it
    # holds no set, list or dict, and no layer that builds one reads its cells
    glue = compose([l1, l3, Ladder.full_matrix(3, 2)])
    built = [
        *(Ladder.full_matrix(m, n) for m, n in ((1, 1), (3, 2), (40, 7))),
        glue,
        construct_2n(3, [(2, 3), (3, 2), (2, 3)]),
        *decompose(glue).factors,
    ]
    for ladder in built:
        stack, seen = [ladder], set()
        while stack:
            obj = stack.pop()
            if id(obj) not in seen:
                seen.add(id(obj))
                assert not isinstance(obj, (set, frozenset, list, dict)), (ladder, obj)
                if isinstance(obj, (Ladder, tuple)):
                    stack += gc.get_referents(obj)
        assert cell_reads == [] and len(seen) > 10


def test_spans_match_the_cell_set_oracle():
    # every ladder of at most 4 x 5, and closed sets with empty rows or columns
    cellsets = [*enumerate_ladder_cellsets(4, 5), *GAPPED_CELLSETS]
    rng = random.Random(59)
    distinct = set()
    for cells in cellsets:
        oracle = CellSetLadder(cells)
        ladder = Ladder(cells)
        assert len(ladder) == len(oracle) and ladder.cells == oracle.cells
        assert list(ladder) == sorted(oracle.cells)
        for r in range(oracle.m + 2):
            assert all(((r, c) in ladder) == ((r, c) in oracle) for c in range(oracle.n + 2))
        r, c = min(oracle.cells)
        assert (float(r), c) in ladder and ("1", c) not in ladder
        assert ((r, True) in ladder) == ((r, 1) in oracle)
        shuffled = list(cells)
        rng.shuffle(shuffled)
        rebuilt = [Ladder((r + 2, c + 5) for r, c in shuffled), parse_json(json.dumps({"cells": shuffled}))]
        if len({r for r, _ in oracle.cells}) == oracle.m:  # a grid has no blank row between occupied ones
            rebuilt.append(parse_ascii(oracle.ascii()))
        if validate(ladder).two_connected and validate(ladder).sidedness != "other":
            rebuilt.append(compose(decompose(ladder).factors))
        for other in rebuilt:
            assert other == ladder and hash(other) == hash(ladder) and other.cells == oracle.cells
        distinct.add(ladder)
    assert len(distinct) == len({CellSetLadder(cells).cells for cells in cellsets})


def test_validate_antidiagonal_blocks_not_two_connected():
    # two 2x2 blocks meeting nowhere: closure-valid but separable
    cells = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2)]
    ladder = Ladder(cells)
    report = validate(ladder)
    assert report.every_cell_in_minor
    assert not report.two_connected
    assert not report.path_connected
    assert report.sidedness == "other"
    assert not two_connected_by_partitions(cells)


def test_validate_single_cell():
    report = validate(Ladder([(1, 1)]))
    assert not report.every_cell_in_minor
    assert not report.two_connected


def test_validate_single_row_not_two_connected():
    report = validate(Ladder.full_matrix(1, 4))
    assert not report.two_connected
    assert report.sidedness == "matrix"


def test_one_sided_classification():
    ladder = parse_ascii(".##\n###")
    report = validate(ladder)
    prof = corners(ladder)
    assert (prof.h, prof.k) == (1, 0)
    assert report.sidedness == "one-sided"


# ---------------------------------------------------------------------------
# corners

def test_corners_match_worked_examples(l1, l2, l3):
    assert corners(l1).lower == (Cell(2, 2),)
    assert corners(l1).upper == (Cell(3, 2),)
    assert corners(l2).lower == (Cell(4, 2),)
    assert corners(l2).upper == (Cell(2, 4), Cell(3, 3))
    assert corners(l3).lower == (Cell(3, 2),)
    assert corners(l3).upper == (Cell(3, 2),)


def test_corners_full_matrix_empty():
    prof = corners(Ladder.full_matrix(4, 6))
    assert prof.lower == () and prof.upper == ()


def test_corner_sentinels(l3):
    prof = corners(l3)
    assert lower_ext(prof)[0] == Cell(1, 3)
    assert lower_ext(prof)[-1] == Cell(5, 1)


def test_coincidental_corners(l1, l2, l3):
    assert corners(l3).coincidental == (Cell(3, 2),)
    assert corners(l1).coincidental == ()
    composite = compose([l1, l2, l3])
    assert len(corners(composite).coincidental) == 3


def staircase_glues(rng, count):
    """count seeded compose glues of 2-6 staircases of up to 6x6 each."""
    return [
        compose(Ladder(random_staircase_cells(rng, 6, 6)) for _ in range(rng.randint(2, 6)))
        for _ in range(count)
    ]


def test_corners_against_naive_scan():
    rng = random.Random(7)
    drawn = [Ladder(random_staircase_cells(rng, 7, 7)) for _ in range(60)]
    small = [Ladder(cells) for cells in enumerate_ladder_cellsets(5, 5)]
    rng = random.Random(61)
    staircases = [Ladder(random_staircase_cells(rng, 20, 20)) for _ in range(300)]
    glues = staircase_glues(random.Random(67), 100)
    for ladder in drawn + small + staircases + glues:
        prof = corners(ladder)
        lower, upper = naive_corners(ladder.cells)
        assert (prof.m, prof.n) == (ladder.m, ladder.n)
        assert [tuple(c) for c in prof.lower] == lower, ladder.to_json_dict()
        assert [tuple(c) for c in prof.upper] == upper, ladder.to_json_dict()
        # compose relies on every ladder holding its lower-left and top-right cells
        assert (ladder.m, 1) in ladder and (1, ladder.n) in ladder, ladder.to_json_dict()
    assert sum(bool(corners(glue).coincidental) for glue in glues) > 10


# ---------------------------------------------------------------------------
# antitranspose

def test_antitranspose_involution(l2):
    assert antitranspose(antitranspose(l2)) == l2


def test_antitranspose_l3_geometry(l3):
    flipped = antitranspose(l3)
    assert (flipped.m, flipped.n) == (3, 5)
    assert corners(flipped).coincidental == (Cell(2, 3),)


def test_antitranspose_swaps_corner_roles():
    rng = random.Random(11)
    for _ in range(40):
        ladder = Ladder(random_staircase_cells(rng, 6, 6))
        m, n = ladder.m, ladder.n
        prof = corners(ladder)
        flipped_prof = corners(antitranspose(ladder))
        expect_lower = sorted(Cell(n + 1 - d, m + 1 - c) for c, d in prof.upper)
        expect_upper = sorted(Cell(n + 1 - b, m + 1 - a) for a, b in prof.lower)
        assert list(flipped_prof.lower) == expect_lower
        assert list(flipped_prof.upper) == expect_upper


def test_antitranspose_one_sided_kills_h():
    ladder = parse_ascii(".##\n###")  # h=1, k=0
    prof = corners(antitranspose(ladder))
    assert prof.h == 0 and prof.k == 1


# ---------------------------------------------------------------------------
# compose

def test_compose_two_matrices_gives_l3(l3):
    assert compose([Ladder.full_matrix(3, 2), Ladder.full_matrix(3, 2)]) == l3


def test_compose_singleton_is_identity(l2):
    assert compose([l2]) == l2


def test_compose_2x3_with_3x4():
    result = compose([Ladder.full_matrix(2, 3), Ladder.full_matrix(3, 4)])
    assert (result.m, result.n) == (4, 6)
    # glue corner sits at (rows of first factor, columns of second factor)
    assert corners(result).coincidental == (Cell(2, 4),)


def test_compose_empty_list_rejected():
    with pytest.raises(LadderError):
        compose([])


def test_compose_size_formula():
    rng = random.Random(3)
    for _ in range(30):
        factors = [Ladder(random_staircase_cells(rng, 5, 5)) for _ in range(rng.randint(1, 4))]
        result = compose(factors)
        w = len(factors) - 1
        assert result.m == sum(f.m for f in factors) - w
        assert result.n == sum(f.n for f in factors) - w


# ---------------------------------------------------------------------------
# rendering

def test_render_l3_annotated(l3):
    lines = render_ascii(l3, annotate=True).split("\n")
    assert lines[2][1] == "C"
    assert render_ascii(l3) == L3_ASCII


def test_render_annotated_marks_l_and_u(l1):
    lines = render_ascii(l1, annotate=True).split("\n")
    assert lines[1][1] == "L"
    assert lines[2][1] == "U"


def test_render_single_cell():
    assert render_ascii(Ladder([(1, 1)])) == "#"


def test_render_roundtrip(l2):
    assert parse_ascii(render_ascii(l2)) == l2
    assert parse_ascii(L2_ASCII) == l2


def test_render_roundtrip_random():
    rng = random.Random(5)
    for _ in range(40):
        ladder = Ladder(random_staircase_cells(rng, 6, 6))
        assert parse_ascii(render_ascii(ladder)) == ladder


# ---------------------------------------------------------------------------
# properties

def test_two_connected_matches_partition_definition_exhaustively():
    # the operational test (every cell in a minor + connected minor
    # hypergraph) against the quantifier over subladder partitions, on every
    # normalized closure-valid cell set with m, n <= 5 and 2 <= |Y| <= 12
    checked = 0
    for cells in enumerate_ladder_cellsets(5, 5):
        if not 2 <= len(cells) <= 12:
            continue
        operational = validate(Ladder(cells)).two_connected
        assert operational == two_connected_by_partitions(cells), sorted(cells)
        checked += 1
    assert checked > 17000


@given(cell_sets)
@settings(max_examples=250, deadline=None)
def test_constructor_agrees_with_bruteforce_closure(cells):
    dr = 1 - min(r for r, _ in cells)
    dc = 1 - min(c for _, c in cells)
    translated = {(r + dr, c + dc) for r, c in cells}
    if closure_holds(translated):
        ladder = Ladder(cells)
        assert set(map(tuple, ladder.cells)) == translated
    else:
        with pytest.raises(LadderError):
            Ladder(cells)


@given(cell_sets)
@settings(max_examples=150, deadline=None)
def test_normalization_touches_all_four_borders(cells):
    try:
        ladder = Ladder(cells)
    except LadderError:
        return
    rows = {p.row for p in ladder.cells}
    cols = {p.col for p in ladder.cells}
    assert min(rows) == 1 and max(rows) == ladder.m
    assert min(cols) == 1 and max(cols) == ladder.n
    assert (1, ladder.n) in ladder and (ladder.m, 1) in ladder


@given(cell_sets)
@settings(max_examples=150, deadline=None)
def test_antitranspose_involution_property(cells):
    try:
        ladder = Ladder(cells)
    except LadderError:
        return
    assert antitranspose(antitranspose(ladder)) == ladder


# ---------------------------------------------------------------------------
# differential checks of the consecutive-row structural layer

def test_constructor_agrees_with_closure_on_every_4x4_subset():
    grid = [(r, c) for r in range(1, 5) for c in range(1, 5)]
    for mask in range(1, 1 << 16):
        cells = [grid[i] for i in range(16) if mask >> i & 1]
        try:
            Ladder(cells)
            accepted = True
        except LadderError:
            accepted = False
        assert accepted == closure_holds(cells), cells


def test_validate_matches_pairwise_row_oracle():
    small = enumerate_ladder_cellsets(5, 5)
    mutants = single_cell_mutants(small, random.Random(43))
    rng = random.Random(47)
    staircases = [random_staircase_cells(rng, 20, 20) for _ in range(300)]
    glues = [set(glue.cells) for glue in staircase_glues(random.Random(71), 100)]
    # closed, but with gaps inside rows or between them, so not path-connected:
    # spreading the rows or columns apart keeps the closure axiom
    gapped = [
        {(1, 1), (1, 3), (2, 1), (2, 3)},
        {(1, 1), (1, 3), (3, 1), (3, 3)},
        {(1, 2), (1, 4), (2, 2), (2, 4), (3, 1), (3, 2), (3, 4)},
        *({(r, 2 * c - 1) for r, c in cells} for cells in staircases[:100]),
        *({(2 * r - 1, c) for r, c in cells} for cells in staircases[100:200]),
        *({(2 * r - 1, 3 * c - 2) for r, c in cells} for cells in staircases[200:]),
    ]
    assert not any(validate(Ladder(cells)).path_connected for cells in gapped)
    ladders = 0
    for cells in itertools.chain(small, mutants, staircases, glues, gapped):
        try:
            ladder = Ladder(cells)
        except LadderError:
            assert not closure_holds(cells), sorted(cells)
            continue
        assert closure_holds(cells), sorted(cells)
        assert validate(ladder).to_json_dict() == validate_oracle(ladder.cells), sorted(cells)
        ladders += 1
    assert ladders > len(small) + len(staircases)


def test_compose_matches_reshifting_oracle():
    rng = random.Random(53)
    for _ in range(200):
        factors = [Ladder(random_staircase_cells(rng, 5, 5)) for _ in range(rng.randint(1, 12))]
        expected = compose_oracle([set(f.cells) for f in factors])
        assert set(compose(factors).cells) == expected


def test_a_large_matrix_costs_its_rows_not_its_cells():
    # a 1000 x 1001 matrix has over 10**6 cells; its spans take O(rows)
    text = "\n".join(["#" * 1001] * 1000)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        ladder = parse_ascii(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ladder == Ladder.full_matrix(1000, 1001) and held < 1_000_000, held
    start = time.process_time()
    assert classify(Ladder.full_matrix(1000, 1001)).count == 2
    assert time.process_time() - start < 0.1


def test_dropped_ladders_free_their_memory():
    # What a ladder computes (corners, report, factors) lives on it and goes
    # with it, as does the cell set the caller read: nothing is kept for a
    # ladder the caller has dropped.
    texts = ["\n".join(["#" * (101 + i)] * 100) for i in range(10)]
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for text in texts:
            ladder = parse_ascii(text)
            assert validate(ladder).sidedness == "matrix"
            assert corners(ladder).h == 0 and classify(ladder).count == 2
            cells = ladder.cells
            assert len(cells) == len(ladder)
            one = tracemalloc.get_traced_memory()[0] - before
            del ladder, cells
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert one > 500_000  # a 100 x 110 ladder's cell set, with every result on it
    assert kept < one / 4, (kept, one)


MIXED_PROBES = [
    ("a", 1), (None, 5), (1, "x"), (1.0, 1), (complex(1, 0), 1), (2, complex(3, 0)), (1001, complex(1, 0)), (True, 1),
]


def test_membership_of_non_integer_indices_builds_no_cell_set():
    # the probes' answers are those of the million-cell set, which took seconds and over 100 MB to build
    ladder = Ladder.full_matrix(1000, 1000)
    start = time.process_time()
    got = [probe in ladder for probe in MIXED_PROBES]
    elapsed = time.process_time() - start
    tracemalloc.start()
    try:
        assert [probe in ladder for probe in MIXED_PROBES] == got
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [False, False, False, True, True, True, False, True]
    assert elapsed < 0.5 and peak < 1_000_000, (elapsed, peak)
    # on gapped columns too, a probe is in the ladder exactly when it is in the oracle's set
    for cells in GAPPED_CELLSETS:
        ladder, oracle = Ladder(cells), CellSetLadder(cells)
        for r, c in itertools.product(range(oracle.m + 2), range(oracle.n + 2)):
            for probe in ((complex(r, 0), c), (r, complex(c, 0)), (str(r), c), (r, None), (r, float(c))):
                assert (probe in ladder) == (probe in oracle), (sorted(cells), probe)


PROBES = [None, "x", "ab", (1, 2, 3), [1, 1], {1: 1}, (1.0, 2), (1, 1.5), (complex(1, 0), 1), (5, [1]), (1, [1])]


def _answer(probe, container):
    """``probe in container``, or the type of the exception it raises."""
    try:
        return probe in container
    except Exception as exc:  # the answer compared is the exception's type
        return type(exc)


def test_membership_answers_as_the_cell_set_does():
    # a probe that is not a pair is no cell, and an unhashable one raises TypeError, as in the frozenset,
    # whether or not its row is occupied
    for ladder in [Ladder.full_matrix(2, 2), *map(Ladder, GAPPED_CELLSETS)]:
        cells = ladder.cells
        for probe in PROBES:
            assert _answer(probe, ladder) == _answer(probe, cells), (ladder, probe)
    answers = [_answer(probe, Ladder.full_matrix(2, 2)) for probe in PROBES]
    assert answers == [False, False, False, False, TypeError, TypeError, True, False, True, TypeError, TypeError]
