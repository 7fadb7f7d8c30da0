"""Acceptance suite: one test per criterion, each printing a PASS line.

All checks are exact integer/combinatorial comparisons (zero tolerance).
Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines as they complete).
"""

import random
import time

from ladderdet import (
    Cell,
    DivisorClass,
    Ladder,
    Monomial,
    P,
    Q,
    canonical_class,
    classify,
    compose,
    construct_2n,
    corners,
    decompose,
    ideal_generators,
    intersect_bounded,
    is_gorenstein,
    normal_form,
    parse_ascii,
    validate,
    verify_witnesses,
)

from helpers import (
    L1_ASCII,
    L2_ASCII,
    L3_ASCII,
    certify_confluence,
    enumerate_ladder_cellsets,
    embed_factor_omega,
    random_staircase_cells,
    reachable_normal_forms,
)

L1 = parse_ascii(L1_ASCII)
L2 = parse_ascii(L2_ASCII)
L3 = parse_ascii(L3_ASCII)


def _passed(number, text):
    print(f"criterion {number:2d}: PASS  {text}")


def test_criterion_01_l3_classification():
    report = classify(L3)
    assert report.rank == 3
    assert report.omega == DivisorClass(L3, {Q(1): 1, Q(2): 1, P(1): 1})
    assert report.count == 4
    assert set(report.classes) == {
        DivisorClass(L3),
        DivisorClass(L3, {Q(1): 1}),
        DivisorClass(L3, {Q(2): 1, P(1): 1}),
        DivisorClass(L3, {Q(1): 1, Q(2): 1, P(1): 1}),
    }
    _passed(1, "L3: rank 3, omega = Q1+Q2+P1, count 4, classes exact")


def test_criterion_02_corner_extraction():
    assert corners(L1).lower == (Cell(2, 2),)
    assert corners(L1).upper == (Cell(3, 2),)
    assert corners(L2).lower == (Cell(4, 2),)
    assert corners(L2).upper == (Cell(2, 4), Cell(3, 3))
    assert corners(L3).coincidental == (Cell(3, 2),)
    _passed(2, "corners: L1 (2,2)/(3,2); L2 (4,2)/{(2,4),(3,3)}; L3 coincidental (3,2)")


def test_criterion_03_gorenstein():
    assert is_gorenstein(L2)
    assert not is_gorenstein(L1)
    assert not is_gorenstein(L3)
    for m in range(2, 7):
        for n in range(2, 7):
            assert is_gorenstein(Ladder.full_matrix(m, n)) == (m == n)
    _passed(3, "Gorenstein: L2 only; full matrices exactly the square ones")


def test_criterion_04_composite_count():
    report = classify(compose([L1, L2, L3]))
    assert report.count == 8
    assert len(report.factors) == 4
    assert tuple(f.epsilon for f in report.factors) == (1, 0, 1, 1)
    _passed(4, "L1#L2#L3: count 8 from 4 factors with epsilon (1,0,1,1)")


def test_criterion_05_2n_construction():
    for n_blocks in range(1, 10):
        sizes = [(i + 2, i + 3) for i in range(n_blocks)]
        assert classify(construct_2n(n_blocks, sizes)).count == 2 ** n_blocks
    start = time.monotonic()
    sizes = [(i + 2, i + 3) for i in range(10)]
    assert classify(construct_2n(10, sizes)).count == 2 ** 10
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"N = 10 case took {elapsed:.2f}s"
    _passed(5, f"construct_2n counts 2^N for N = 1..10 (N = 10 in {elapsed:.2f}s)")


def test_criterion_06_decompose_roundtrip():
    rng = random.Random(2024)

    def corner_free_factor():
        while True:
            ladder = Ladder(random_staircase_cells(rng, 6, 6))
            if validate(ladder).two_connected and not corners(ladder).coincidental:
                return ladder

    for _ in range(200):
        factors = [corner_free_factor() for _ in range(rng.randint(1, 4))]
        assert list(decompose(compose(factors)).factors) == factors
    _passed(6, "decompose(compose(factors)) == factors on 200 randomized lists")


def test_criterion_07_global_factor_consistency():
    rng = random.Random(777)
    checked = 0
    while checked < 200:
        ladder = Ladder(random_staircase_cells(rng, 8, 8))
        if not validate(ladder).two_connected:
            continue
        factorization = decompose(ladder)
        total = DivisorClass(ladder)
        for u in range(factorization.w + 1):
            total = total + embed_factor_omega(factorization, u)
        omega = canonical_class(ladder)
        assert total == omega
        assert omega.is_zero == is_gorenstein(ladder)
        checked += 1
    _passed(7, "canonical class equals the factor-image sum on 200 random ladders")


def test_criterion_08_rewriter_confluence():
    start = time.monotonic()
    cellsets = enumerate_ladder_cellsets(5, 5)
    ladders = []
    checked = 0
    for cells in cellsets:
        ladders.append(Ladder(cells))
        checked += certify_confluence(cells, max_degree=3)

    rng = random.Random(4242)
    for _ in range(1000):
        ladder = rng.choice(ladders)
        ms = rng.choices(sorted(ladder), k=4)
        outcomes = reachable_normal_forms(ladder.cells, ms)
        assert len(outcomes) == 1
        assert len(next(iter(outcomes))) == 4
        # the library's closed form agrees with the rewriting oracle
        assert {Monomial.from_cells(t) for t in outcomes} == {normal_form(Monomial.from_cells(ms), ladder)}

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"confluence sweep took {elapsed:.1f}s"
    _passed(
        8,
        f"unique normal forms: {checked} monomials over {len(cellsets)} ladders "
        f"+ 1000 degree-4 samples in {elapsed:.1f}s",
    )


def test_criterion_09_worked_intersection():
    q11 = ideal_generators(L3, Q(2))
    p10 = ideal_generators(L3, P(1))
    result = intersect_bounded(q11, p10, 2, L3)
    assert result == {Monomial.from_cells([(3, 1)]), Monomial.from_cells([(3, 2)])}
    _passed(9, "intersection of q11 and p10 at degree 2 has minimal generators x(3,1), x(3,2)")


def test_criterion_10_witness_identities():
    equal_sign = verify_witnesses(compose([Ladder.full_matrix(3, 2), Ladder.full_matrix(3, 2)]))
    assert (equal_sign.lam_top, equal_sign.lam_bottom) == (1, 1)
    assert [(c.name, c.holds) for c in equal_sign.cases] == [("equal-sign", True)]

    opposite = verify_witnesses(compose([Ladder.full_matrix(2, 3), Ladder.full_matrix(3, 2)]))
    assert (opposite.lam_top, opposite.lam_bottom) == (-1, 1)
    assert [(c.name, c.holds) for c in opposite.cases] == [("opposite-sign", True)]
    _passed(10, "both displayed witness identities hold on their generated glues")
