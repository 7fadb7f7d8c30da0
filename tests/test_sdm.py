import functools
import random
import re
import time
import tracemalloc

import pytest

import ladderdet.sdm as sdm_module
from ladderdet import (
    DivisorClass,
    Ladder,
    LadderError,
    P,
    Q,
    QPrime,
    antitranspose,
    basis,
    canonical_class,
    classify,
    compose,
    construct_2n,
    corners,
    decompose,
    ideal_generators,
    is_gorenstein,
    parse_ascii,
    validate,
)

from helpers import (
    L1_ASCII,
    L2_ASCII,
    L3_ASCII,
    classes_by_addition,
    embed_factor_omega,
    enumerate_ladder_cellsets,
    factor_image,
    lower_ext,
    random_staircase_cells,
    sdm_json,
    thetas_in_order,
)


def random_corner_free_factor(rng, max_m=6, max_n=6):
    while True:
        ladder = Ladder(random_staircase_cells(rng, max_m, max_n))
        if validate(ladder).two_connected and not corners(ladder).coincidental:
            return ladder


# ---------------------------------------------------------------------------
# Gorenstein test

def test_gorenstein_worked_ladders(l1, l2, l3):
    assert is_gorenstein(l2)
    assert not is_gorenstein(l1)
    assert not is_gorenstein(l3)


def test_gorenstein_matrices():
    for m in range(2, 6):
        for n in range(2, 6):
            assert is_gorenstein(Ladder.full_matrix(m, n)) == (m == n)


def test_gorenstein_square_with_off_diagonal_corner():
    # 4x4 with one inside corner off the antidiagonal
    ladder = Ladder([(r, c) for r in range(1, 5) for c in range(1, 5) if (r, c) != (1, 1)])
    assert not is_gorenstein(ladder)


def test_gorenstein_requires_two_connected():
    with pytest.raises(LadderError):
        is_gorenstein(Ladder.full_matrix(1, 1))


# ---------------------------------------------------------------------------
# classification

def test_classify_l3(l3):
    report = classify(l3)
    assert report.rank == 3
    assert report.omega == DivisorClass(l3, {Q(1): 1, Q(2): 1, P(1): 1})
    assert report.count == 4
    expected = {
        DivisorClass(l3),
        DivisorClass(l3, {Q(1): 1}),
        DivisorClass(l3, {Q(2): 1, P(1): 1}),
        DivisorClass(l3, {Q(1): 1, Q(2): 1, P(1): 1}),
    }
    assert set(report.classes) == expected
    assert len(report.classes) == 4


def test_classify_composite_count_8(l1, l2, l3):
    report = classify(compose([l1, l2, l3]))
    assert report.count == 8
    assert len(report.factors) == 4
    assert tuple(f.epsilon for f in report.factors) == (1, 0, 1, 1)


def test_classify_gorenstein_single_factor(l2):
    report = classify(l2)
    assert report.count == 1
    assert report.classes == (DivisorClass(l2),)
    assert sdm_json(report)["thetas"] == [[0]]


def test_classify_trivial_pair(l1):
    # single non-Gorenstein factor: exactly the zero class and omega
    report = classify(l1)
    assert report.count == 2
    assert set(report.classes) == {DivisorClass(l1), canonical_class(l1)}


def test_classify_contains_zero_and_omega_with_aligned_thetas(l1, l2, l3):
    ladder = compose([l3, l1])
    report = classify(ladder)
    assert DivisorClass(report.omega.ladder) in report.classes
    assert report.omega in report.classes
    factorization = decompose(ladder)
    images = [embed_factor_omega(factorization, u) for u in range(len(report.factors))]
    for theta, cls in zip(sdm_json(report)["thetas"], report.classes):
        acc = DivisorClass(report.omega.ladder)
        for t, image in zip(theta, images):
            if t:
                acc = acc + image
        assert acc == cls


def _analyzable(ladder):
    report = validate(ladder)
    return report.two_connected and report.sidedness != "other"


@functools.lru_cache(maxsize=1)
def _enumerated_and_glued():
    """The analyzable ladders up to 5x5 and 300 seeded glues of 2-6 corner-free factors."""
    ladders = [Ladder(cells) for cells in enumerate_ladder_cellsets(5, 5)]
    ladders = [ladder for ladder in ladders if _analyzable(ladder)]
    rng = random.Random(61)
    ladders += [
        compose([random_corner_free_factor(rng, 5, 5) for _ in range(rng.randint(2, 6))])
        for _ in range(300)
    ]
    return ladders


def test_classify_classes_match_brute_force():
    # Brute-force counterpart of classify's disjoint-support certificate: the
    # classes are distinct, each is the sum of its theta's factor images, and
    # theta runs over {0,1} (0 for Gorenstein factors) in lexicographic order.
    for ladder in _enumerated_and_glued():
        report = classify(ladder)
        classes, thetas = report.classes, list(map(tuple, sdm_json(report)["thetas"]))
        assert report.count == 2 ** sum(not f.gorenstein for f in report.factors)
        assert len(classes) == len(set(classes)) == report.count
        assert len(thetas) == len(set(thetas)) == report.count
        assert list(thetas) == sorted(thetas)
        factorization = decompose(ladder)
        images = [embed_factor_omega(factorization, u).items() for u in range(len(report.factors))]
        for theta, cls in zip(thetas, classes):
            expected = {}
            for t, factor, image in zip(theta, report.factors, images):
                assert not (t and factor.gorenstein)
                for label, c in image:
                    expected[label] = expected.get(label, 0) + t * c
            assert dict(cls.items()) == {label: c for label, c in expected.items() if c}


def _assert_classes_match_addition(report):
    classes = report.classes
    expected = classes_by_addition(report)
    assert [c._vec for c in classes] == [c._vec for c in expected]
    assert all(c.ladder is report.omega.ladder for c in classes)
    doc = sdm_json(report)
    assert doc["classes"] == [c.to_json_dict() for c in expected]
    assert doc["thetas"] == thetas_in_order(report)


def test_classes_match_the_addition_oracle(l2):
    for ladder in _enumerated_and_glued():
        _assert_classes_match_addition(classify(ladder))
    glue = construct_2n(12, [(2, 3), (3, 2)] * 6)
    _assert_classes_match_addition(classify(glue))
    # a Gorenstein square block between non-square ones pins a middle theta coordinate
    report = classify(compose([Ladder.full_matrix(2, 3), l2, Ladder.full_matrix(3, 3), Ladder.full_matrix(4, 2)]))
    assert [f.gorenstein for f in report.factors] == [False, True, True, False]
    assert report.count == 4
    _assert_classes_match_addition(report)


def test_classify_2n_40_counts_without_enumerating():
    sizes = [(2, 3), (3, 2)] * 20
    start = time.process_time()
    report = classify(construct_2n(40, sizes))
    assert report.count == 2**40
    assert time.process_time() - start < 1.0


def test_classify_rejects_a_factor_class_off_its_labels(monkeypatch, l1, l3):
    # factor 2's canonical class, one Q coefficient off, no longer matches its
    # slice of the ladder's: the check names the factor
    ladder = compose([l1, l3])
    factor = decompose(ladder).factors[2]
    canonical = sdm_module.canonical_class

    def off(l):
        cls = canonical(l)
        return cls + DivisorClass(l, {Q(1): 1}) if l is factor else cls

    monkeypatch.setattr(sdm_module, "canonical_class", off)
    with pytest.raises(LadderError, match="^internal inconsistency: factor 2's canonical class is not the ladder's"):
        classify(ladder)


def test_classify_rejects_labels_the_factors_do_not_cover(monkeypatch):
    # one Q label more than the factors' runs reach: every run still matches
    ladder = Ladder.full_matrix(2, 3)
    corners_of = sdm_module.corners

    def extra(l):
        prof = corners_of(l)
        return prof._replace(lower=prof.lower + (lower_ext(prof)[-1],)) if l is ladder else prof

    monkeypatch.setattr(sdm_module, "corners", extra)
    with pytest.raises(LadderError, match="^internal inconsistency: the factors' labels do not cover the class group$"):
        classify(ladder)


def test_classify_of_a_one_factor_ladder_reuses_omega(monkeypatch, l1):
    # the one factor is the ladder's twin, so its canonical class is omega
    calls = []
    canonical = sdm_module.canonical_class
    monkeypatch.setattr(sdm_module, "canonical_class", lambda l: calls.append(l) or canonical(l))
    report = classify(l1)
    assert calls == [l1] and calls[0] is l1
    (f,) = report.factors
    assert factor_image(report, f) == report.omega and report.count == 2
    assert sdm_json(report)["factors"][0]["omega_image"] == report.omega.to_json_dict()


@pytest.mark.parametrize("text", [L1_ASCII, L2_ASCII], ids=["L1", "L2"])
def test_classify_of_a_one_factor_ladder_checks_gorenstein_against_omega(monkeypatch, text):
    # a wrong Gorenstein test is caught on the lone factor too, either way round
    ladder = parse_ascii(text)
    truth = is_gorenstein(ladder)
    monkeypatch.setattr(sdm_module, "is_gorenstein", lambda l: not truth)
    disagree = "^internal inconsistency: factor 0 Gorenstein test and canonical image disagree$"
    with pytest.raises(LadderError, match=disagree):
        classify(ladder)


def test_factor_images_match_the_relabeling_oracle():
    glue = construct_2n(12, [(2, 3), (3, 2)] * 6)
    for ladder in [*_enumerated_and_glued(), glue]:
        factorization = decompose(ladder)
        report = classify(ladder)
        doc = sdm_json(report)
        for u, f in enumerate(report.factors):
            image = embed_factor_omega(factorization, u)
            assert factor_image(report, f) == image
            assert doc["factors"][u]["omega_image"] == image.to_json_dict()


def test_classify_holds_memory_linear_in_the_rank():
    # 1,000 2x2 blocks and a 2x3 block: rank 2,001, 1,001 factors.  A dense
    # image per factor held over 2 million coordinates, 15.5 MB.
    ladder = compose([Ladder.full_matrix(2, 2)] * 1000 + [Ladder.full_matrix(2, 3)])
    decompose(ladder)  # the ladder keeps its factors; the report is what classify adds
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = classify(ladder)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (report.rank, report.count, len(report.factors)) == (2001, 2, 1001)
    assert held < 2 * 2**20


def test_factor_runs_partition_the_labels_and_are_omega_there():
    # the Q runs follow one another from Q1 to Q(h+1), the P runs from P1 to Pk
    for ladder in _enumerated_and_glued():
        report = classify(ladder)
        omega = report.omega._vec
        h = corners(ladder).h
        for kind, at, end in ((0, 0, h + 1), (1, h + 1, report.rank)):
            for f in report.factors:
                first, run = (f.q, f.p)[kind]
                assert first == at and omega[first : first + len(run)] == run
                at += len(run)
            assert at == end
        for f, doc in zip(report.factors, sdm_json(report)["factors"]):
            assert doc["omega_image"] == factor_image(report, f).to_json_dict()
            assert f.gorenstein == factor_image(report, f).is_zero


def test_texts_joined_from_the_images_are_the_classes_str():
    for ladder in [*_enumerated_and_glued(), construct_2n(8, [(2, 5), (4, 2)] * 4)]:
        report = classify(ladder)
        omega, images, classes = report._texts()
        assert omega == str(report.omega)
        assert images == [str(factor_image(report, f)) for f in report.factors]
        assert list(classes) == list(map(str, report.classes))


def test_classify_rejects_non_two_connected():
    with pytest.raises(LadderError):
        classify(Ladder.full_matrix(1, 5))


def test_classify_count_multiplicative_under_compose():
    rng = random.Random(53)
    for _ in range(20):
        a = random_corner_free_factor(rng, 5, 5)
        b = random_corner_free_factor(rng, 5, 5)
        assert classify(compose([a, b])).count == classify(a).count * classify(b).count


def test_classify_count_antitranspose_invariant():
    rng = random.Random(59)
    for _ in range(20):
        ladder = Ladder(random_staircase_cells(rng, 7, 7))
        if not validate(ladder).two_connected:
            continue
        assert classify(ladder).count == classify(antitranspose(ladder)).count


def test_classify_json_shape(l3):
    doc = sdm_json(classify(l3))
    assert set(doc) == {"rank", "omega", "count", "factors", "classes", "thetas"}
    assert doc["count"] == 4
    assert doc["omega"] == {"Q": {"1": 1, "2": 1}, "P": {"1": 1}}
    assert doc["thetas"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert doc["factors"][0] == {
        "m": 3,
        "n": 2,
        "gorenstein": False,
        "omega_image": {"Q": {"1": 1}, "P": {}},
    }


# ---------------------------------------------------------------------------
# the 2^N construction

def test_construct_2n_single_block():
    ladder = construct_2n(1, [(3, 2)])
    assert ladder == Ladder.full_matrix(3, 2)
    assert classify(ladder).count == 2


def test_construct_2n_two_blocks():
    assert classify(construct_2n(2, [(2, 3), (3, 4)])).count == 4


def test_construct_2n_three_blocks():
    assert classify(construct_2n(3, [(3, 2), (2, 3), (4, 5)])).count == 8


def test_construct_2n_rejects_square_blocks():
    with pytest.raises(LadderError, match="Gorenstein"):
        construct_2n(2, [(2, 3), (3, 3)])


def test_construct_2n_rejects_degenerate_blocks():
    with pytest.raises(LadderError):
        construct_2n(1, [(1, 3)])


@pytest.mark.parametrize(
    "n, sizes, bad",
    [(2, [(2.0, 3), (3, 2)], "2.0"), (1, [(True, 3)], "True"), (2, [(2, 3), (3, "2")], "'2'")],
)
def test_construct_2n_takes_integer_sizes(n, sizes, bad):
    # not a TypeError, and True is no side of 1 to call too small
    with pytest.raises(LadderError, match=f"^block sizes must be integers, got {re.escape(bad)}$"):
        construct_2n(n, sizes)


@pytest.mark.parametrize(
    "n, message",
    [
        pytest.param("2", "block count must be an integer, got '2'", id="str"),
        pytest.param(True, "block count must be an integer, got True", id="bool"),
        pytest.param(2.0, "block count must be an integer, got 2.0", id="float"),
        # 5,001 digits: past what Python prints, so the count is not printed in full
        pytest.param(10**5000, "expected <over-4300-digit> block sizes, got 2", id="long"),
    ],
)
def test_construct_2n_takes_an_integer_block_count(n, message):
    with pytest.raises(LadderError, match=f"^{re.escape(message)}$"):
        construct_2n(n, [(2, 3), (3, 2)])


def test_construct_2n_rejects_bad_arity():
    with pytest.raises(LadderError):
        construct_2n(0, [])
    with pytest.raises(LadderError):
        construct_2n(2, [(2, 3)])


def test_classify_builds_no_cell_set(cell_reads):
    # a 30x30 staircase: row i runs from column max(1, 21 - i) to min(30, 41 - i)
    staircase = "\n".join(
        "." * (max(1, 21 - i) - 1) + "#" * (min(30, 41 - i) - max(1, 21 - i) + 1) for i in range(30)
    )
    for text in (L3_ASCII, staircase):
        ladder = parse_ascii(text)
        assert classify(ladder).count >= 1
        factors = decompose(ladder).factors
        glued = compose(factors)
        for label in (*basis(ladder), *map(QPrime, range(1, corners(ladder).h + 2))):
            assert ideal_generators(ladder, label)
        assert glued == ladder
        assert cell_reads == []
    assert (ladder.m, ladder.n, validate(ladder).sidedness) == (30, 30, "two-sided")
