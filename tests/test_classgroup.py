import bisect
import copy
import functools
import gc
import json
import operator
import pickle
import random
import re
import time
import tracemalloc

import pytest

import ladderdet.classgroup as classgroup_module
from ladderdet import (
    BasisLabel,
    Cell,
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
    corners,
    decompose,
    ideal_generators,
    ideal_monomials_bounded,
    intersect_bounded,
    is_gorenstein,
    parse_ascii,
    qprime_class,
    require_analyzable,
    validate,
)

from helpers import (
    FactorRole,
    canonical_class_oracle,
    class_text,
    embed_factor_omega,
    enumerate_ladder_cellsets,
    factor_image,
    hibi_coordinates,
    hibi_facets,
    hibi_graded,
    label_generators_oracle,
    lower_ext,
    naive_corners,
    qprime_class_oracle,
    random_staircase_cells,
    random_two_connected_staircase,
    relabel,
)


def random_two_connected(rng, max_m=8, max_n=8):
    while True:
        ladder = Ladder(random_staircase_cells(rng, max_m, max_n))
        if validate(ladder).two_connected:
            return ladder


# ---------------------------------------------------------------------------
# basis and ideals

def test_basis_l3(l3):
    assert basis(l3) == (Q(1), Q(2), P(1))


def test_basis_full_matrix():
    assert basis(Ladder.full_matrix(4, 7)) == (Q(1),)


def test_basis_rank_12_composite(l1, l2, l3):
    composite = compose([l1, l2, l3])
    prof = corners(composite)
    assert (prof.h, prof.k) == (5, 6)
    assert len(basis(composite)) == 12


def test_basis_rejects_non_two_connected():
    with pytest.raises(LadderError):
        basis(Ladder.full_matrix(1, 3))


def test_basis_rejects_degenerate_non_path_connected():
    # closure-valid and operationally 2-connected, but not path-connected:
    # outside the analyzed class, so downstream analysis refuses it
    weird = Ladder([(1, 1), (1, 3), (3, 1), (3, 3)])
    assert validate(weird).two_connected
    assert validate(weird).sidedness == "other"
    with pytest.raises(LadderError, match="degenerate"):
        basis(weird)


def test_ideal_generators_l3(l3):
    assert ideal_generators(l3, Q(1)) == {Cell(1, 2), Cell(1, 3)}
    assert ideal_generators(l3, Q(2)) == {Cell(3, 1), Cell(3, 2), Cell(3, 3)}
    assert ideal_generators(l3, P(1)) == {Cell(1, 2), Cell(2, 2), Cell(3, 1), Cell(3, 2)}
    # QPrime(i) is the column b_i prime: column 2 (class -Q1-P1) and column 1 (class -Q2-P1)
    assert ideal_generators(l3, QPrime(1)) == {Cell(1, 2), Cell(2, 2), Cell(3, 2), Cell(4, 2), Cell(5, 2)}
    assert ideal_generators(l3, QPrime(2)) == {Cell(3, 1), Cell(4, 1), Cell(5, 1)}


@functools.lru_cache(maxsize=1)  # two tests walk the same cases
def _hibi_cases():
    small = [Ladder(cells) for cells in enumerate_ladder_cellsets(5, 5)]
    rng = random.Random(37)
    drawn = [random_two_connected(rng, 6, 6) for _ in range(60)]
    rng = random.Random(41)
    staircases = [Ladder(random_two_connected_staircase(rng, 8, 8)) for _ in range(300)]
    glues = [
        compose(Ladder(random_two_connected_staircase(rng, 4, 4)) for _ in range(rng.randint(2, 6)))
        for _ in range(200)
    ]
    return [ladder for ladder in small + drawn + staircases + glues if _analyzable(ladder)]


def _analyzable(ladder):
    try:
        require_analyzable(ladder)
    except LadderError:
        return False
    return True


def test_classes_match_the_hibi_oracle():
    """QPrime(i) is a column prime of class qprime_class(i), the facets sum to the canonical class,
    and the ladder is Gorenstein exactly when P-hat is graded."""
    cases = _hibi_cases()
    assert len(cases) > 1000
    assert sum(len(decompose(ladder).factors) > 1 for ladder in cases) > 200
    for ladder in cases:
        cells = set(ladder.cells)
        assert is_gorenstein(ladder) == hibi_graded(cells), ladder
        labels = basis(ladder)
        primes = [ideal_generators(ladder, label) for label in labels]
        qprimes = [ideal_generators(ladder, QPrime(i)) for i in range(1, corners(ladder).h + 2)]
        for gens in qprimes:
            (col,) = {p.col for p in gens}
            assert gens == {p for p in cells if p.col == col}
        *coords, omega = hibi_coordinates(cells, [[gens] for gens in qprimes] + [list(hibi_facets(cells))], primes)
        for i, coord in enumerate(coords, start=1):
            assert DivisorClass(ladder, zip(labels, coord)) == qprime_class(ladder, i), (ladder, i)
        assert DivisorClass(ladder, zip(labels, omega)) == canonical_class(ladder), ladder


def test_factor_images_are_facet_sums():
    """Factor u's image of the canonical class is the sum of the facets of Y whose generators lie
    in factor u's cells, placed at its offset.  This rule is tested here, not proved.  Facets that
    span a cut lie in no factor, so by the rule and sum(images) = omega their classes sum to zero."""
    cases = [ladder for ladder in _hibi_cases() if decompose(ladder).w]
    assert len(cases) > 200
    for ladder in cases:
        f = decompose(ladder)
        cells = set(ladder.cells)
        labels = basis(ladder)
        facets = hibi_facets(cells)
        regions = [{(r + dr, c + dc) for r, c in factor.cells} for factor, (dr, dc) in zip(f.factors, f.offsets)]
        sums = hibi_coordinates(
            cells,
            [[gens for gens in facets if gens <= region] for region in regions],
            [ideal_generators(ladder, label) for label in labels],
        )
        report = classify(ladder)
        images = [factor_image(report, factor) for factor in report.factors]
        for u, coord in enumerate(sums):
            image = embed_factor_omega(ladder, f, u)
            assert DivisorClass(ladder, zip(labels, coord)) == image == images[u], (ladder, u)


def test_label_layer_matches_the_lower_ext_oracle():
    # every analyzable ladder up to 5x5 and 200 seeded glues: the generators of
    # every label, each QPrime class and the canonical class, read by index
    # into the lower corners, are the oracle's, read off lower_ext and the cells
    small = [ladder for ladder in map(Ladder, enumerate_ladder_cellsets(5, 5)) if _analyzable(ladder)]
    rng = random.Random(43)
    glues = [
        compose(Ladder(random_two_connected_staircase(rng, 5, 5)) for _ in range(rng.randint(2, 5)))
        for _ in range(200)
    ]
    assert len(small) == 494 and all(map(_analyzable, glues))
    for ladder in small + glues:
        h = corners(ladder).h
        for label in (*basis(ladder), *map(QPrime, range(1, h + 2))):
            assert ideal_generators(ladder, label) == label_generators_oracle(ladder, label), (ladder, label)
        for i in range(1, h + 2):
            assert qprime_class(ladder, i) == DivisorClass(ladder, qprime_class_oracle(ladder, i)), (ladder, i)
        assert canonical_class(ladder) == DivisorClass(ladder, canonical_class_oracle(ladder)), ladder


def test_generator_sets_behave_as_frozensets():
    # every label of every analyzable ladder up to 5x5: the read-only set
    # held as row runs against the frozenset of the oracle's cells
    small = [ladder for ladder in map(Ladder, enumerate_ladder_cellsets(5, 5)) if _analyzable(ladder)]
    assert len(small) == 494
    for ladder in small:
        labels = (*basis(ladder), *map(QPrime, range(1, corners(ladder).h + 2)))
        sets = [ideal_generators(ladder, label) for label in labels]
        frozen = [frozenset(label_generators_oracle(ladder, label)) for label in labels]
        for u, (label, gens, expected) in enumerate(zip(labels, sets, frozen)):
            case = (ladder, label)
            assert gens == expected and expected == gens and set(expected) == gens, case
            assert not (gens != expected or expected != gens), case
            assert hash(gens) == hash(expected) and len(gens) == len(expected), case
            assert list(gens) == sorted(expected), case
            for r, c in expected:
                for probe in ((r, c), (r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    assert (probe in gens) == (probe in expected), (case, probe)
                for probe in ((r, c + 0.5), (float(r), c), (True, 1), "x", None, (r, c, 1)):
                    assert (probe in gens) == (probe in expected), (case, probe)
            other, other_expected = sets[u - 1], frozen[u - 1]
            for op in (operator.and_, operator.or_, operator.sub, operator.xor):
                got = op(gens, other)
                assert type(got) is frozenset and got == op(expected, other_expected), (case, op)
            assert pickle.loads(pickle.dumps(gens)) == gens == copy.deepcopy(gens), case
            with pytest.raises(AttributeError):
                gens._spans = None
            with pytest.raises(AttributeError):
                gens.extra = None


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(None, id="matrix-2x200000"),
        pytest.param("\n".join(["#" * 200_000] * 2 + ["#" * 100_000]), id="three-rows-upper-corner"),
    ],
)
def test_generators_cost_their_rows_not_their_cells(text, cell_reads):
    # Q(1) of the full 2 x 200,000 matrix alone has 200,000 cells, and so
    # have Q(1) and P(1) of the wide ladder; no two-row ladder with a corner
    # is 2-connected
    ladder = Ladder.full_matrix(2, 200_000) if text is None else parse_ascii(text)
    labels = (*basis(ladder), *map(QPrime, range(1, corners(ladder).h + 2)))
    assert len(labels) == (1 if text is None else 2) + 1
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sizes = [len(ideal_generators(ladder, label)) for label in labels]
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sizes == ([200_000, 2] if text is None else [200_000, 200_000, 3])
    assert cell_reads == [] and peak < 4096, peak


class _Index(int):
    """An int subclass: accepted as an index, as an int is."""


class _Label(BasisLabel):
    """A BasisLabel subclass: accepted as a label, as a BasisLabel is."""


@pytest.mark.parametrize(
    "label, message",
    [
        pytest.param(("Q", 1), "not a basis label: got type tuple", id="tuple"),
        pytest.param(10**4300, "not a basis label: got type int", id="huge-int"),
        pytest.param(Q(True), "Q label index out of range 1..2 (h = 1)", id="Q-bool"),
        pytest.param(P(False), "P label index out of range 1..1 (k = 1)", id="P-bool"),
        pytest.param(Q(0), "Q label index out of range 1..2 (h = 1)", id="Q-low"),
        pytest.param(Q(3), "Q label index out of range 1..2 (h = 1)", id="Q-high"),
        pytest.param(P(2), "P label index out of range 1..1 (k = 1)", id="P-high"),
        pytest.param(Q(_Index(3)), "Q label index out of range 1..2 (h = 1)", id="Q-int-subclass-high"),
        pytest.param(_Label("P", 0), "P label index out of range 1..1 (k = 1)", id="label-subclass-low"),
        pytest.param(Q(10**4300), "Q label index out of range 1..2 (h = 1)", id="Q-huge"),
        pytest.param(P(-(10**4300)), "P label index out of range 1..1 (k = 1)", id="P-huge-negative"),
        pytest.param(BasisLabel("R", 1), "unknown label kind: expected 'Q' or 'P', got type str", id="kind-R"),
        pytest.param(BasisLabel(None, 1), "unknown label kind: expected 'Q' or 'P', got type NoneType", id="kind-None"),
        pytest.param(QPrime(True), "QPrime index out of range 1..2 (h = 1)", id="QPrime-bool"),
        pytest.param(QPrime(_Index(0)), "QPrime index out of range 1..2 (h = 1)", id="QPrime-int-subclass-low"),
        pytest.param(QPrime(10**4300), "QPrime index out of range 1..2 (h = 1)", id="QPrime-huge"),
    ],
)
def test_bad_labels_name_their_type_or_range(l3, label, message):
    # each message is the whole of what is raised, for the generators and,
    # for a label that is no QPrime, for a class built on it
    calls = [lambda: ideal_generators(l3, label)]
    if not isinstance(label, QPrime):
        calls.append(lambda: DivisorClass(l3, {label: 1}))
    for call in calls:
        with pytest.raises(LadderError, match=f"^{re.escape(message)}$"):
            call()


def test_a_long_coefficient_is_cut_in_the_message(l3):
    with pytest.raises(LadderError) as caught:
        DivisorClass(l3, {Q(1): "y" * 10**6})
    message = str(caught.value)
    assert message.startswith("coefficient of Q1 must be an integer, got 'yyy") and len(message) < 200, message[:300]


def test_int_and_label_subclasses_name_the_same_labels(l3):
    for kind, i in [("Q", 1), ("Q", 2), ("P", 1)]:
        label = BasisLabel(kind, i)
        for other in (BasisLabel(kind, _Index(i)), _Label(kind, i)):
            assert ideal_generators(l3, other) == ideal_generators(l3, label)
            assert DivisorClass(l3, {other: 3}) == DivisorClass(l3, {label: 3})
    for i in (1, 2):
        assert ideal_generators(l3, QPrime(_Index(i))) == ideal_generators(l3, QPrime(i))
        assert qprime_class(l3, _Index(i)) == qprime_class(l3, i)


def test_ideal_generators_out_of_range(l3):
    with pytest.raises(LadderError):
        ideal_generators(l3, Q(3))
    with pytest.raises(LadderError):
        ideal_generators(l3, P(2))
    with pytest.raises(LadderError):
        ideal_generators(l3, QPrime(0))


# ---------------------------------------------------------------------------
# canonical class

def test_canonical_l3(l3):
    assert canonical_class(l3) == DivisorClass(l3, {Q(1): 1, Q(2): 1, P(1): 1})


def test_canonical_l2_vanishes(l2):
    assert canonical_class(l2).is_zero


def test_canonical_l1(l1):
    # corners (2,2)/(3,2) with sentinels (1,3), (5,1):
    # lambda_1 = 2+2-1-3 = 0, lambda_2 = 5+1-2-2 = 2, delta_1 = 5+1-3-2 = 1
    assert canonical_class(l1) == DivisorClass(l1, {Q(2): 2, P(1): 1})


def test_canonical_matrix():
    for m in range(2, 6):
        for n in range(2, 6):
            ladder = Ladder.full_matrix(m, n)
            assert canonical_class(ladder) == DivisorClass(ladder, {Q(1): m - n})


def test_canonical_class_on_a_long_band_is_linear():
    # a band of 5,000 rows, each starting one column left of the row above:
    # 4,997 corners of each kind; a scan of the lower corners per upper corner
    # took 0.6 s of CPU on one core of a shared x86-64 Xeon
    m = 5000
    lines = ("." * max(0, m - r - 2) + "#" * (min(m, m - r + 3) - max(1, m - r - 1) + 1) for r in range(1, m + 1))
    band = parse_ascii("\n".join(lines))
    prof = corners(band)
    assert (prof.h, prof.k) == (4997, 4997)
    start = time.process_time()
    omega = canonical_class(band)
    assert time.process_time() - start < 0.1
    # i_j is the least i with a_i > c_j, found here by bisection over the rows of the sentinel-extended corners
    le = lower_ext(prof)
    rows = [a for a, _ in le]
    lam = [le[i].row + le[i].col - le[i - 1].row - le[i - 1].col for i in range(1, prof.h + 2)]
    delta = [le[i].row + le[i].col - c - d for c, d in prof.upper for i in [bisect.bisect_right(rows, c)]]
    assert omega._vec == tuple(lam + delta)


# ---------------------------------------------------------------------------
# q-prime classes

def test_qprime_l3(l3):
    assert qprime_class(l3, 1) == DivisorClass(l3, {Q(1): -1, P(1): -1})
    assert qprime_class(l3, 2) == DivisorClass(l3, {Q(2): -1, P(1): -1})


def test_qprime_matrix_special_case():
    ladder = Ladder.full_matrix(3, 4)
    assert qprime_class(ladder, 1) == DivisorClass(ladder, {Q(1): -1})


def test_qprime_out_of_range(l3):
    with pytest.raises(LadderError):
        qprime_class(l3, 0)
    with pytest.raises(LadderError):
        qprime_class(l3, 3)


def test_huge_qprime_index_is_a_domain_error(l3):
    # the message names the range: an index of over 4300 digits has no str()
    with pytest.raises(LadderError, match=re.escape("QPrime index out of range 1..2 (h = 1)")):
        qprime_class(l3, 10**4300)


def test_qprime_reduces_to_minus_q_iff_no_dominating_upper_corner():
    rng = random.Random(31)
    for _ in range(40):
        ladder = random_two_connected(rng, 7, 7)
        prof = corners(ladder)
        le = lower_ext(prof)
        for i in range(1, prof.h + 2):
            dominating = [
                j
                for j, (c, d) in enumerate(prof.upper, start=1)
                if le[i - 1].row <= c and le[i].col <= d
            ]
            cls = qprime_class(ladder, i)
            if dominating:
                assert cls != DivisorClass(ladder, {Q(i): -1})
            else:
                assert cls == DivisorClass(ladder, {Q(i): -1})


# ---------------------------------------------------------------------------
# divisor class arithmetic

def test_divisor_class_arithmetic(l3):
    a = DivisorClass(l3, {Q(1): 2, P(1): -1})
    b = DivisorClass(l3, {Q(1): -2, Q(2): 5})
    assert (a + b) == DivisorClass(l3, {Q(2): 5, P(1): -1})
    assert (a - a).is_zero
    assert -a == DivisorClass(l3, {Q(1): -2, P(1): 1})
    assert a.items() == ((Q(1), 2), (P(1), -1))


def test_divisor_class_zero_equality(l3):
    assert DivisorClass(l3, {Q(1): 0}) == DivisorClass(l3)
    assert DivisorClass(l3, [(Q(1), 1), (Q(1), -1)]).is_zero


def test_divisor_class_rejects_bad_labels(l3):
    with pytest.raises(LadderError):
        DivisorClass(l3, {Q(5): 1})
    with pytest.raises(LadderError):
        DivisorClass(l3, {P(2): 1})


def test_huge_label_index_is_a_domain_error(l3):
    with pytest.raises(LadderError, match=re.escape("Q label index out of range 1..2 (h = 1)")):
        DivisorClass(l3, {Q(10**4300): 1})


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda l: DivisorClass(l, {10**4300: 1}), id="class"),
        pytest.param(lambda l: ideal_generators(l, 10**4300), id="generators"),
    ],
)
def test_huge_integer_as_label_is_a_domain_error(l3, call):
    # the message names the type: an integer of over 4300 digits has no str()
    with pytest.raises(LadderError, match="^not a basis label: got type int$"):
        call(l3)


def test_huge_integer_as_label_kind_is_a_domain_error(l3):
    # the message names the kind's type: an integer of over 4300 digits has no str()
    with pytest.raises(LadderError, match="^unknown label kind: expected 'Q' or 'P', got type int$"):
        DivisorClass(l3, {BasisLabel(10**4300, 1): 1})


@pytest.mark.parametrize("value", [1.5, 1.0, True, False, "3", None])
def test_divisor_class_rejects_non_integer_coefficients(l3, value):
    with pytest.raises(LadderError, match=re.escape(f"coefficient of Q1 must be an integer, got {value!r}")):
        DivisorClass(l3, {Q(1): value})


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda l: DivisorClass(l, {Q(True): 1}), id="label-Q(True)"),
        pytest.param(lambda l: DivisorClass(l, {Q(1.0): 1}), id="label-Q(1.0)"),
        pytest.param(lambda l: ideal_generators(l, Q(1.5)), id="generators-Q(1.5)"),
        pytest.param(lambda l: ideal_generators(l, QPrime(1.0)), id="generators-QPrime(1.0)"),
        pytest.param(lambda l: ideal_generators(l, QPrime(True)), id="generators-QPrime(True)"),
        pytest.param(lambda l: qprime_class(l, True), id="qprime-True"),
        pytest.param(lambda l: ideal_monomials_bounded([(1.0, 2)], 2, l), id="generator-(1.0,2)"),
        pytest.param(lambda l: ideal_monomials_bounded([(1,)], 2, l), id="generator-(1,)"),
        pytest.param(lambda l: ideal_monomials_bounded([(1, 2)], 2.5, l), id="d-2.5"),
        pytest.param(lambda l: ideal_monomials_bounded([(1, 2)], True, l), id="d-True"),
        pytest.param(lambda l: intersect_bounded([(1, 2)], [(3, True)], 2, l), id="intersect-(3,True)"),
    ],
)
def test_label_and_ideal_inputs_must_be_integers(l3, call):
    with pytest.raises(LadderError):
        call(l3)


def test_divisor_classes_from_different_ladders_never_equal(l1, l3):
    assert DivisorClass(l3, {Q(1): 1}) != DivisorClass(l1, {Q(1): 1})
    with pytest.raises(LadderError):
        DivisorClass(l3, {Q(1): 1}) + DivisorClass(l1, {Q(1): 1})


def test_divisor_class_json(l3):
    omega = canonical_class(l3)
    assert omega.to_json_dict() == {"Q": {"1": 1, "2": 1}, "P": {"1": 1}}
    assert DivisorClass(l3).to_json_dict() == {"Q": {}, "P": {}}


def test_divisor_class_names_only_its_nonzero_labels(monkeypatch):
    # items, str and JSON as the full label list gave them, byte for byte,
    # with no call that builds that list
    rng = random.Random(71)
    cases = []
    for _ in range(60):
        ladder = random_two_connected(rng)
        labels = classgroup_module._labels(ladder)
        vec = tuple(rng.choice((0, 0, 1, -1, 2, -3)) for _ in labels)
        items = tuple((l, c) for l, c in zip(labels, vec) if c)
        doc = {kind: {str(l.index): c for l, c in items if l.kind == kind} for kind in ("Q", "P")}
        text = class_text(labels, vec)
        cases.append((DivisorClass._make(ladder, vec), items, text, json.dumps(doc)))
    calls = []
    labels_of = classgroup_module._labels
    monkeypatch.setattr(classgroup_module, "_labels", lambda l: calls.append(l) or labels_of(l))
    for cls, items, text, doc in cases:
        assert cls.items() == items
        assert str(cls) == text
        assert json.dumps(cls.to_json_dict()) == doc
    assert calls == []


# ---------------------------------------------------------------------------
# relabeling and factor embedding

def test_relabel_l3(l3):
    rmap = relabel(l3, decompose(l3))
    assert rmap[Q(1)] == FactorRole(0, "q", 1)
    assert rmap[Q(2)] == FactorRole(1, "q", 1)
    assert rmap[P(1)] == FactorRole(1, "p", 0)
    assert len(rmap) == 3


def test_relabel_trivial_for_single_factor(l2):
    rmap = relabel(l2, decompose(l2))
    prof = corners(l2)
    for i in range(1, prof.h + 2):
        assert rmap[Q(i)] == FactorRole(0, "q", i)
    for j in range(1, prof.k + 1):
        assert rmap[P(j)] == FactorRole(0, "p", j)


def test_relabel_composite_has_w_cut_roles(l1, l2, l3):
    ladder = compose([l1, l2, l3])
    rmap = relabel(ladder, decompose(ladder))
    assert len(rmap) == 12
    cut_roles = [role for _, role in rmap.items() if role.kind == "p" and role.index == 0]
    assert len(cut_roles) == 3
    assert sorted(r.factor for r in cut_roles) == [1, 2, 3]


def test_embed_factor_omega_l3(l3):
    f = decompose(l3)
    assert embed_factor_omega(l3, f, 0) == DivisorClass(l3, {Q(1): 1})
    assert embed_factor_omega(l3, f, 1) == DivisorClass(l3, {Q(2): 1, P(1): 1})


def test_embed_gorenstein_factor_is_zero(l2):
    composite = compose([Ladder.full_matrix(3, 2), l2])
    f = decompose(composite)
    assert embed_factor_omega(composite, f, 1).is_zero


def test_embed_two_sided_lower_factor(l1):
    # hand-computed: glue a 2x3 matrix on top of L_1
    composite = compose([Ladder.full_matrix(2, 3), l1])
    assert canonical_class(composite) == DivisorClass(
        composite, {Q(1): -1, Q(3): 2, P(2): 1}
    )
    f = decompose(composite)
    assert embed_factor_omega(composite, f, 0) == DivisorClass(composite, {Q(1): -1})
    assert embed_factor_omega(composite, f, 1) == DivisorClass(composite, {Q(3): 2, P(2): 1})


# ---------------------------------------------------------------------------
# global consistency properties

def test_global_factor_consistency_randomized():
    rng = random.Random(41)
    for _ in range(60):
        ladder = random_two_connected(rng)
        f = decompose(ladder)
        total = DivisorClass(ladder)
        for u in range(f.w + 1):
            total = total + embed_factor_omega(ladder, f, u)
        assert total == canonical_class(ladder)
        assert canonical_class(ladder).is_zero == is_gorenstein(ladder)


def test_antitranspose_duality_randomized():
    rng = random.Random(43)
    for _ in range(60):
        ladder = random_two_connected(rng)
        flipped = antitranspose(ladder)
        assert len(basis(ladder)) == len(basis(flipped))
        assert canonical_class(ladder).is_zero == canonical_class(flipped).is_zero
