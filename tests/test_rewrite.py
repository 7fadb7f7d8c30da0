import functools
import itertools
import random
import re
import time

import pytest

import helpers
from ladderdet import (
    Cell,
    Ladder,
    LadderError,
    Monomial,
    P,
    Q,
    basis,
    compose,
    corners,
    equal_mod_minors,
    ideal_generators,
    ideal_monomials_bounded,
    intersect_bounded,
    normal_form,
    parse_ascii,
    require_analyzable,
    verify_witnesses,
)
from ladderdet import rewrite
from ladderdet.classgroup import QPrime

from helpers import (
    GAPPED_CELLSETS,
    additive_by_minors,
    certify_confluence,
    enumerate_ladder_cellsets,
    full_minors,
    ideal_monomials_oracle,
    intersect_oracle,
    is_normal,
    normal_monomials,
    random_staircase_cells,
    reachable_normal_forms,
)


def mono(*cells):
    return Monomial.from_cells(cells)


# ---------------------------------------------------------------------------
# monomials

def test_monomial_basics():
    m = Monomial({Cell(1, 2): 2, Cell(3, 3): 1})
    assert m.degree == 3
    assert dict(m.items()) == {Cell(1, 2): 2, Cell(3, 3): 1}
    assert str(m) == "x(1,2)^2*x(3,3)"
    assert str(Monomial()) == "1"
    assert m * Monomial() == m
    assert mono((1, 2)) * mono((1, 2)) == Monomial({Cell(1, 2): 2})


def test_monomial_json_roundtrip():
    m = Monomial({Cell(1, 2): 2, Cell(3, 3): 1})
    assert Monomial.from_json_dict(m.to_json_dict()) == m
    assert m.to_json_dict() == {"exps": [[1, 2, 2], [3, 3, 1]]}
    with pytest.raises(LadderError):
        Monomial.from_json_dict({"exps": [[1, 2]]})


def test_monomial_rejects_negative_exponents():
    with pytest.raises(LadderError):
        Monomial({Cell(1, 1): -1})


@pytest.mark.parametrize("cell", [(1,), (1, 2, 3), 7])
def test_monomial_takes_row_col_pairs(cell):
    with pytest.raises(LadderError, match=f"^bad cell {re.escape(repr(cell))}: expected a \\(row, col\\) pair$"):
        Monomial([(cell, 1)])


@pytest.mark.parametrize(
    "entry",
    [[1, 2, 1.5], [1.0, 2.0, 1], [1, 2, True], [True, 2, 1], [1, 2, "x"], [1, 2, float("inf")], [1, 2, float("nan")]],
)
def test_monomial_rejects_non_integer_entries(entry):
    with pytest.raises(LadderError, match="must be integers"):
        Monomial.from_json_dict({"exps": [entry]})


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Monomial([((0,) * 100, 1)]), "bad cell (" + "0, " * 19 + "0,... <300 chars>: expected a (row, col) pair"),
        (
            lambda: Monomial([((1, "x" * 100), 1)]),
            "bad monomial entry [1, '" + "x" * 55 + "... <110 chars>: row, column and exponent must be integers",
        ),
        (
            lambda: Monomial.from_json_dict({"exps": [[0] * 100]}),
            "bad exponent entry [" + "0, " * 19 + "0,... <300 chars>: expected [row, col, e]",
        ),
    ],
    ids=["long-cell", "long-entry", "long-json-entry"],
)
def test_a_long_bad_entry_is_cut_in_the_message(make, message):
    # a message echoes the first 60 characters of the entry and its length
    with pytest.raises(LadderError, match=f"^{re.escape(message)}$"):
        make()


# ---------------------------------------------------------------------------
# rewrite system and normal forms

def has_rule(ladder, a, b):
    """Whether the diagonal pair (a, b) of ladder cells is the source of a 2-minor rewrite rule."""
    return a.row < b.row and a.col < b.col and a in ladder and b in ladder


def test_rules_of_l3(l3):
    assert has_rule(l3, Cell(1, 2), Cell(2, 3))
    assert has_rule(l3, Cell(1, 2), Cell(3, 3))
    assert has_rule(l3, Cell(3, 1), Cell(4, 2))
    # an antidiagonal pair is the target of a rule, never its source
    assert not has_rule(l3, Cell(2, 2), Cell(5, 1))
    rules = {(a, b) for a in sorted(l3) for b in sorted(l3) if has_rule(l3, a, b)}
    assert all(a.row < b.row and a.col < b.col for a, b in rules)
    # the rules are exactly the diagonals of the full minors, checked on all four corners
    assert rules == {(min(minor), max(minor)) for minor in full_minors(l3.cells)}


def test_normal_form_single_step(l3):
    assert normal_form(mono((1, 2), (3, 3)), l3) == mono((1, 3), (3, 2))


def test_normal_form_no_applicable_rule(l3):
    m = mono((2, 2), (5, 1))
    assert normal_form(m, l3) == m
    assert is_normal(l3.cells, m.support)


def test_normal_form_unit(l3):
    assert normal_form(Monomial(), l3) == Monomial()


def test_normal_form_rejects_unsupported_cells(l3):
    with pytest.raises(LadderError, match="outside the ladder"):
        normal_form(mono((1, 1)), l3)


def test_equal_mod_minors(l3):
    assert equal_mod_minors(mono((1, 2), (2, 3)), mono((1, 3), (2, 2)), l3)
    m = mono((1, 2), (5, 1), (3, 3))
    assert equal_mod_minors(m, m, l3)
    assert not equal_mod_minors(mono((1, 2), (5, 1)), mono((1, 3), (5, 1)), l3)


def test_degree_preserved_randomized():
    rng = random.Random(61)
    for _ in range(40):
        ladder = Ladder(random_staircase_cells(rng, 6, 6))
        cells = sorted(ladder)
        m = Monomial.from_cells(rng.choices(cells, k=rng.randint(1, 6)))
        assert normal_form(m, ladder).degree == m.degree


def test_normal_form_is_reachable_and_unique_small():
    rng = random.Random(67)
    for _ in range(25):
        ladder = Ladder(random_staircase_cells(rng, 5, 5))
        cells = sorted(ladder)
        ms = rng.choices(cells, k=3)
        outcomes = {Monomial.from_cells(t) for t in reachable_normal_forms(ladder.cells, ms)}
        assert outcomes == {normal_form(Monomial.from_cells(ms), ladder)}


def test_normal_form_matches_rewriting_oracle():
    rng = random.Random(73)
    cellsets = enumerate_ladder_cellsets(5, 5)
    for _ in range(20000):
        cells = rng.choice(cellsets)
        ms = rng.choices(sorted(cells), k=rng.randint(1, 6))
        outcomes = {Monomial.from_cells(t) for t in reachable_normal_forms(cells, ms)}
        assert outcomes == {normal_form(Monomial.from_cells(ms), Ladder(cells))}


def test_normal_form_is_what_the_checked_constructor_builds():
    # normal_form skips Monomial's checks; its result must be the one they give
    rng = random.Random(101)
    for _ in range(300):
        ladder = Ladder(random_staircase_cells(rng, 7, 7))
        cells = sorted(ladder)
        exps = [(rng.choice(cells), rng.choice([1, 2, 3, 10**20])) for _ in range(rng.randint(0, 8))]
        nf = normal_form(Monomial(exps), ladder)
        checked = Monomial(list(nf.items()))
        assert nf == checked and hash(nf) == hash(checked)
        assert nf._exps == checked._exps and all(type(cell) is Cell for cell in nf.support)


def test_normal_form_huge_exponent():
    ladder = Ladder.full_matrix(3, 3)
    m = Monomial({Cell(1, 1): 10**12, Cell(2, 2): 1})
    start = time.process_time()
    nf = normal_form(m, ladder)
    assert nf == Monomial({Cell(1, 1): 10**12 - 1, Cell(1, 2): 1, Cell(2, 1): 1})
    assert equal_mod_minors(m, nf, ladder)
    assert not equal_mod_minors(m, Monomial({Cell(1, 1): 10**12, Cell(2, 1): 1}), ladder)
    assert is_normal(ladder.cells, nf.support) and not is_normal(ladder.cells, m.support)
    assert time.process_time() - start < 0.5


def test_certify_confluence_counts(l3):
    n_cells = len(l3)
    expected = sum(
        len(list(itertools.combinations_with_replacement(range(n_cells), d))) for d in (2, 3)
    )
    assert certify_confluence(l3.cells, max_degree=3) == expected


def test_equivalence_classes_partition_bidirectional_closure():
    # classes by normal form must equal connected components under single
    # rewrites used in both directions
    ladder = Ladder.full_matrix(3, 3)
    cells = sorted(ladder)
    monos = [Monomial.from_cells(c) for c in itertools.combinations_with_replacement(cells, 2)]
    by_nf = {}
    for m in monos:
        by_nf.setdefault(normal_form(m, ladder), set()).add(m)

    def step(m, remove, add):
        stepped = dict(m.items())
        for c in remove:
            stepped[c] = stepped.get(c, 0) - 1
        for c in add:
            stepped[c] = stepped.get(c, 0) + 1
        if any(v < 0 for v in stepped.values()):
            return None
        return Monomial(stepped)

    def neighbors(m):
        ms = []
        for a, b in itertools.combinations(m.support, 2):
            if has_rule(ladder, a, b):  # forward: diagonal to antidiagonal
                ms.append(step(m, (a, b), (Cell(a.row, b.col), Cell(b.row, a.col))))
            elif a.row < b.row and a.col > b.col:  # backward over the same minor
                u, v = Cell(a.row, b.col), Cell(b.row, a.col)
                if has_rule(ladder, u, v):
                    ms.append(step(m, (a, b), (u, v)))
        return [m2 for m2 in ms if m2 is not None]

    for m in monos:
        component = {m}
        frontier = [m]
        while frontier:
            cur = frontier.pop()
            for nxt in neighbors(cur):
                if nxt not in component:
                    component.add(nxt)
                    frontier.append(nxt)
        assert component == by_nf[normal_form(m, ladder)]


# ---------------------------------------------------------------------------
# bounded ideal operations

def test_normal_monomials_degree_one(l3):
    # the oracle the ideal tests use: every variable is normal, and so is the unit
    assert normal_monomials(l3.cells, 1) == [(c,) for c in sorted(l3)]
    assert normal_monomials(l3.cells, 0) == [()]


def test_maximal_ideal_lists_every_normal_monomial(l1, l3):
    # the ideal of all variables holds every monomial of positive degree
    for ladder in (l1, l3):
        expected = {Monomial.from_cells(t) for degree in (1, 2, 3) for t in normal_monomials(ladder.cells, degree)}
        assert ideal_monomials_bounded(ladder.cells, 3, ladder) == expected


def test_ideal_monomials_degree_one_slice(l3):
    assert ideal_monomials_bounded({(1, 2), (1, 3)}, 1, l3) == {mono((1, 2)), mono((1, 3))}


def test_ideal_monomials_empty_gens(l3):
    assert ideal_monomials_bounded(set(), 3, l3) == frozenset()


def test_ideal_monomials_monotone(l3):
    small = ideal_monomials_bounded({(3, 1)}, 2, l3)
    assert small <= ideal_monomials_bounded({(3, 1)}, 3, l3)
    assert small <= ideal_monomials_bounded({(3, 1), (1, 2)}, 2, l3)


def test_ideal_monomials_bounds_checked(l3):
    with pytest.raises(LadderError):
        ideal_monomials_bounded({(1, 2)}, 0, l3)
    with pytest.raises(LadderError):
        ideal_monomials_bounded({(1, 2)}, 9, l3)
    with pytest.raises(LadderError):
        ideal_monomials_bounded({(1, 1)}, 2, l3)


def test_huge_degree_bound_is_a_domain_error(l3):
    # the message names the cap: a bound of over 4300 digits has no str()
    with pytest.raises(LadderError, match="^degree bound exceeds the safety cap 8$"):
        ideal_monomials_bounded([(1, 2)], 10**4300, l3)


def test_intersect_worked_example(l3):
    q11 = ideal_generators(l3, Q(2))
    p10 = ideal_generators(l3, P(1))
    assert intersect_bounded(q11, p10, 2, l3) == {mono((3, 1)), mono((3, 2))}


def test_intersect_contains_all_bounded_multiples(l3):
    q11 = ideal_generators(l3, Q(2))
    p10 = ideal_generators(l3, P(1))
    common = ideal_monomials_bounded(q11, 2, l3) & ideal_monomials_bounded(p10, 2, l3)
    for g in ((3, 1), (3, 2)):
        assert mono(g) in common
        for c in sorted(l3):
            assert normal_form(mono(g, c), l3) in common


def test_intersect_identical_gens(l3):
    assert intersect_bounded({(1, 2)}, {(1, 2)}, 2, l3) == {mono((1, 2))}


def test_intersect_disjoint_gens(l3):
    assert intersect_bounded({(1, 2)}, {(3, 3)}, 2, l3) == {mono((1, 3), (3, 2))}


def _monos(tuples):
    return {Monomial.from_cells(t) for t in tuples}


@pytest.mark.parametrize("ascii_name, d", [("L1", 3), ("L2", 3), ("L3", 3), ("L1", 4), ("L3", 4)])
def test_ideal_operations_match_oracle_on_label_pairs(ascii_name, d):
    ladder = parse_ascii(getattr(helpers, f"{ascii_name}_ASCII"))
    gens = {label: ideal_generators(ladder, label) for label in basis(ladder)}
    for g in gens.values():
        assert ideal_monomials_bounded(g, d, ladder) == _monos(ideal_monomials_oracle(ladder.cells, g, d))
    for a, b in itertools.combinations_with_replacement(gens, 2):
        expected = _monos(intersect_oracle(ladder.cells, gens[a], gens[b], d))
        assert intersect_bounded(gens[a], gens[b], d, ladder) == expected, (a, b)


def test_ideal_operations_match_oracle_on_random_generators():
    rng = random.Random(79)
    cellsets = []
    for cells in enumerate_ladder_cellsets(4, 4):
        try:
            require_analyzable(Ladder(cells))
        except LadderError:
            continue
        cellsets.append(sorted(cells))
    for case in range(200):
        cells = rng.choice(cellsets)
        d = rng.randint(1, 3)
        first = set(rng.sample(cells, rng.randint(1, 3)))
        kind = case % 4
        if kind == 0:  # one side empty
            second = set()
        elif kind == 1:  # identical
            second = set(first)
        else:
            rest = [c for c in cells if c not in first]
            second = set(rng.sample(rest, rng.randint(1, min(3, len(rest)))))
            if kind == 3:  # overlapping
                second.add(rng.choice(sorted(first)))
        if rng.random() < 0.5:
            first, second = second, first
        ladder = Ladder(cells)
        expected = _monos(intersect_oracle(cells, first, second, d))
        assert intersect_bounded(first, second, d, ladder) == expected, (cells, first, second, d)
        assert ideal_monomials_bounded(first, d, ladder) == _monos(ideal_monomials_oracle(cells, first, d))


def test_intersect_at_the_degree_cap(l3):
    # d = 8 is the cap; enumerating all cell multisets there, O(|Y|^d), takes over 10 s
    q11 = ideal_generators(l3, Q(2))
    p10 = ideal_generators(l3, P(1))
    start = time.process_time()
    result = intersect_bounded(q11, p10, 8, l3)
    assert time.process_time() - start < 5.0
    assert result == {mono((3, 1)), mono((3, 2))}


# ---------------------------------------------------------------------------
# closed-form intersections of additive generator sets

@functools.lru_cache(maxsize=2)
def _analyzable(max_m, max_n):
    ladders = []
    for cells in enumerate_ladder_cellsets(max_m, max_n):
        ladder = Ladder(cells)
        try:
            require_analyzable(ladder)
        except LadderError:
            continue
        ladders.append(ladder)
    return tuple(ladders)


def _label_gens(ladder):
    """The generator sets of every Q, P and QPrime label of an analyzable ladder."""
    labels = [*basis(ladder), *(QPrime(i) for i in range(1, corners(ladder).h + 2))]
    return [ideal_generators(ladder, label) for label in labels]


def _random_additive(rng, ladder):
    """A random additive set: the cells in rows R or columns C where no cell is in both,
    or the cells in rows R and columns C where every cell is in one."""
    while True:
        rows = {r for r in range(1, ladder.m + 1) if rng.random() < 0.4}
        cols = {c for c in range(1, ladder.n + 1) if rng.random() < 0.4}
        if rng.random() < 0.5:
            if not any(r in rows and c in cols for r, c in ladder):
                return {x for x in ladder if x.row in rows or x.col in cols}
        elif all(r in rows or c in cols for r, c in ladder):
            return {x for x in ladder if x.row in rows and x.col in cols}


def test_non_additive_sets_take_the_search():
    # two singletons, neither additive, whose intersection has a minimal generator of degree 3
    ladder = parse_ascii(".###\n####\n####\n#...")
    first, second = {(2, 2)}, {(3, 3)}
    assert rewrite._additive(first, ladder) is None and rewrite._additive(second, ladder) is None
    expected = {mono((1, 3), (2, 2), (3, 1)), mono((2, 3), (3, 2))}
    assert intersect_bounded(first, second, 3, ladder) == expected
    assert _monos(intersect_oracle(ladder.cells, first, second, 3)) == expected
    assert intersect_bounded(first, second, 2, ladder) == {mono((2, 3), (3, 2))}


def test_closed_form_matches_the_search_on_label_pairs():
    rng = random.Random(83)
    square = [ladder for ladder in _analyzable(5, 5) if (ladder.m, ladder.n) == (5, 5)]
    cases = 0
    for ladder in _analyzable(4, 4) + tuple(rng.sample(square, 10)):
        gens = _label_gens(ladder)
        for first, second in itertools.combinations_with_replacement(gens, 2):
            for d in (1, 2, 3):
                expected = rewrite._intersect_search([first, second], d, ladder)
                assert intersect_bounded(first, second, d, ladder) == expected, (sorted(ladder), first, second, d)
                cases += 1
    assert cases > 2500


def test_closed_form_matches_the_search_on_random_additive_sets():
    # one additive set is enough for the closed form; the other may be any set
    rng = random.Random(89)
    mixed = 0
    for cells in rng.sample(enumerate_ladder_cellsets(4, 4), 80) + GAPPED_CELLSETS:
        ladder = Ladder(cells)
        first = _random_additive(rng, ladder)
        for second in (_random_additive(rng, ladder), set(rng.sample(sorted(ladder), min(3, len(ladder))))):
            mixed += rewrite._additive(second, ladder) is None
            expected = rewrite._intersect_search([first, second], 3, ladder)
            assert intersect_bounded(first, second, 3, ladder) == expected, (cells, first, second)
            assert intersect_bounded(second, first, 3, ladder) == expected, (cells, first, second)
            assert _monos(intersect_oracle(ladder.cells, first, second, 3)) == expected
    assert mixed > 40


def test_additivity_pass_matches_the_minor_oracle():
    # exact on every ladder: the pass fails only on sets that some full minor's count refutes
    rng = random.Random(97)
    found = 0
    for cells in enumerate_ladder_cellsets(4, 4) + GAPPED_CELLSETS:
        ladder = Ladder(cells)
        for gens in (set(rng.sample(sorted(ladder), rng.randint(0, len(ladder)))), _random_additive(rng, ladder)):
            certificate = rewrite._additive(gens, ladder)
            assert (certificate is not None) == additive_by_minors(ladder.cells, gens), (cells, gens)
            if certificate:
                f, g = certificate
                assert all(f[r] + g[c] == ((r, c) in gens) for r, c in ladder)
                found += 1
    assert found > 1500


def test_label_generators_are_additive():
    for ladder in _analyzable(5, 5):
        for gens in _label_gens(ladder):
            assert rewrite._additive(gens, ladder), (sorted(ladder), gens)
    for ladder in _analyzable(4, 4):
        assert all(additive_by_minors(ladder.cells, gens) for gens in _label_gens(ladder))


def test_label_intersections_need_no_degree_bound():
    # a 20x21 two-sided staircase with 3 lower and 4 upper corners
    los = [7, 7, 5, 5, 3, 3] + [1] * 14
    his = [21] * 12 + [18, 18, 15, 15, 12, 12, 9, 9]
    ladder = Ladder((r, c) for r, lo, hi in zip(range(1, 21), los, his) for c in range(lo, hi + 1))
    assert (ladder.m, ladder.n, corners(ladder).h, corners(ladder).k) == (20, 21, 3, 4)
    gens = _label_gens(ladder)
    cell = {(10, 5)}  # not additive: the minor on rows 9, 10 and columns 5, 6 changes its count
    assert rewrite._additive(cell, ladder) is None
    pairs = [*itertools.combinations_with_replacement(gens, 2), *((g, cell) for g in gens), *((cell, g) for g in gens)]
    start = time.process_time()
    low = [intersect_bounded(first, second, 2, ladder) for first, second in pairs]
    assert time.process_time() - start < 1.0  # the search takes about 0.2 s a pair here at d = 2
    assert [intersect_bounded(first, second, 8, ladder) for first, second in pairs] == low
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("ascii_name", ["L1_ASCII", "L2_ASCII", "L3_ASCII"])
def test_label_intersections_build_no_cell_set(ascii_name, cell_reads):
    # the closed form asks the ladder's spans whether a cell is in it
    ladder = parse_ascii(getattr(helpers, ascii_name))
    gens = _label_gens(ladder)
    for first, second in itertools.product(gens, repeat=2):
        low = intersect_bounded(first, second, 2, ladder)
        assert low and intersect_bounded(first, second, 3, ladder) == low
    assert cell_reads == []


def test_the_search_reads_the_cells_once(l1, cell_reads):
    # neither one-cell set is additive on L1, so the intersection takes the search
    assert rewrite._additive({(2, 2)}, l1) is None and rewrite._additive({(3, 3)}, l1) is None
    assert intersect_bounded({(2, 2)}, {(3, 3)}, 2, l1)
    assert cell_reads == [l1]
    cell_reads.clear()
    assert ideal_monomials_bounded({(2, 2)}, 2, l1)
    assert cell_reads == [l1]


# ---------------------------------------------------------------------------
# witness identities

def test_witness_equal_sign_on_l3(l3):
    report = verify_witnesses(l3)
    assert (report.lam_top, report.lam_bottom) == (1, 1)
    assert report.cases == (("equal-sign", True),)
    assert not report.vacuous


def test_witness_opposite_sign():
    ladder = compose([Ladder.full_matrix(2, 3), Ladder.full_matrix(3, 2)])
    report = verify_witnesses(ladder)
    assert (report.lam_top, report.lam_bottom) == (-1, 1)
    assert [c.name for c in report.cases] == ["opposite-sign"]
    assert all(c.holds for c in report.cases)


def test_witness_larger_lambda():
    # 5x3 # 4x2: lam_top = 5-3 = 2 and lam_bottom = 4-2 = 2
    ladder = compose([Ladder.full_matrix(5, 3), Ladder.full_matrix(4, 2)])
    report = verify_witnesses(ladder)
    assert (report.lam_top, report.lam_bottom) == (2, 2)
    assert [(c.name, c.holds) for c in report.cases] == [("equal-sign", True)]


def test_witness_vacuous_when_one_factor_square():
    ladder = compose([Ladder.full_matrix(2, 2), Ladder.full_matrix(3, 2)])
    report = verify_witnesses(ladder)
    assert report.vacuous
    assert (report.lam_top, report.lam_bottom) == (0, 1)


def test_witness_shape_errors(l1, l3):
    with pytest.raises(LadderError, match="exactly one coincidental"):
        verify_witnesses(l1)
    with pytest.raises(LadderError, match="full-matrix"):
        verify_witnesses(compose([l1, Ladder.full_matrix(3, 2)]))
    with pytest.raises(LadderError, match="exactly one coincidental"):
        verify_witnesses(compose([l3, Ladder.full_matrix(3, 2)]))


def test_witness_json(l3):
    doc = verify_witnesses(l3).to_json_dict()
    assert doc == {
        "corner": [3, 2],
        "lambda_top": 1,
        "lambda_bottom": 1,
        "cases": [{"name": "equal-sign", "holds": True}],
        "vacuous": False,
    }
