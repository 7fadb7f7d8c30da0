import subprocess
import sys
from importlib import import_module

import pytest

import ladderdet
from ladderdet import classify, corners, decompose, validate, verify_witnesses

from helpers import child_env


def test_public_surface_is_pinned():
    # a removed helper cannot come back, nor a new name appear, unnoticed
    assert ladderdet.__all__ == [
        "BasisLabel", "Cell", "CornerProfile", "DivisorClass", "FactorReport",
        "Factorization", "Ladder", "LadderError", "MAX_DEGREE_BOUND", "Monomial", "P", "Q",
        "QPrime", "RewriteSystem", "SdmReport", "ValidationReport", "WitnessCase", "WitnessReport",
        "antitranspose", "basis", "canonical_class", "classify", "compose", "construct_2n",
        "corners", "decompose", "equal_mod_minors", "ideal_generators", "ideal_monomials_bounded",
        "intersect_bounded", "is_gorenstein", "normal_form", "parse_ascii", "parse_auto",
        "parse_json", "qprime_class", "render_ascii", "require_analyzable", "validate",
        "verify_witnesses",
    ]


def test_report_types_public_attributes_are_pinned():
    # the report keeps what classify certifies and the CLI reads: a dropped view cannot come back unnoticed;
    # the factorization a ladder keeps names no ladder but its factors
    from ladderdet import FactorReport, Factorization, SdmReport

    def own_public(cls):
        return sorted(name for name in vars(cls) if not name.startswith("_") and name not in cls._fields)

    assert FactorReport._fields == ("m", "n", "gorenstein", "epsilon", "q", "p")
    assert own_public(FactorReport) == []
    assert SdmReport._fields == ("rank", "omega", "factors")
    assert own_public(SdmReport) == ["classes", "count"]
    assert Factorization._fields == ("factors", "coincidental", "offsets")
    assert own_public(Factorization) == ["to_json_dict", "w"]


def test_every_export_is_its_home_modules_object():
    for name in ladderdet.__all__:
        home = import_module(f"ladderdet.{ladderdet._HOME[name]}")
        assert getattr(ladderdet, name) is getattr(home, name), name


@pytest.mark.parametrize("first", ["ladderdet.sdm", "ladderdet.decompose", "ladderdet.rewrite"])
def test_decompose_stays_the_function_whatever_is_imported_first(first):
    probe = f"import {first}\nimport ladderdet\nprint(type(ladderdet.decompose).__name__)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "function\n", "")


def test_unknown_name_is_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        ladderdet.no_such_name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ladderdet import *", namespace)
    assert set(ladderdet.__all__) <= set(namespace)


def test_result_types_are_immutable_hashable_tuples(l3):
    report = classify(l3)
    values = [corners(l3), validate(l3), decompose(l3), report.factors[0], report, verify_witnesses(l3)]
    for value in values:
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
        twin = type(value)(*value)
        assert twin is not value and twin == value and hash(twin) == hash(value)
        assert value == tuple(value)  # the one change from frozen dataclasses: these are tuples
    assert classify(l3) == report and hash(classify(l3)) == hash(report)
    assert [type(v).__name__ for v in values] == [
        "CornerProfile", "ValidationReport", "Factorization", "FactorReport", "SdmReport", "WitnessReport"
    ]
