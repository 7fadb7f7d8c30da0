import argparse
import hashlib
import io
import json
import random
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from ladderdet import Ladder, compose, construct_2n, parse_ascii
from ladderdet.cli import MAX_SDM_CLASSES, _json_pieces, build_parser, main
from ladderdet.sdm import MAX_CONSTRUCT_CELLS

from helpers import L1_ASCII, L2_ASCII, L3_ASCII, L3_CELLS, child_env


@pytest.fixture
def l3_json(tmp_path):
    path = tmp_path / "l3.json"
    path.write_text(json.dumps({"cells": L3_CELLS}))
    return str(path)


@pytest.fixture
def l2_txt(tmp_path):
    path = tmp_path / "l2.txt"
    path.write_text(L2_ASCII)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


L3_PRETTY = {  # command: (extra arguments, exact stdout on L3)
    "validate": ([], "is_ladder: true\nnormalized: true\nevery_cell_in_minor: true\ntwo_connected: true\n"
                     "path_connected: true\nsidedness: two-sided\n"),
    "corners": ([], "lower: (3,2)\nupper: (3,2)\ncoincidental: (3,2)\n"),
    "decompose": ([], "coincidental: (3,2)\nfactor 0 (3x2) at offset (0,1):\n##\n##\n##\n"
                      "factor 1 (3x2) at offset (2,0):\n##\n##\n##\n"),
    "classgroup": ([], "rank: 3\nQ1: (1,2) (1,3)\nQ2: (3,1) (3,2) (3,3)\nP1: (1,2) (2,2) (3,1) (3,2)\n"),
    "canonical": ([], "omega = Q1 + Q2 + P1\n"),
    "gorenstein": ([], "false\n"),
    "sdm": ([], "rank: 3\nomega: Q1 + Q2 + P1\ncount: 4\nfactors:\n"
                "  0: 3x2  gorenstein=false  omega_image=Q1\n  1: 3x2  gorenstein=false  omega_image=Q2 + P1\n"
                "classes:\n  theta=0,0  0\n  theta=0,1  Q2 + P1\n  theta=1,0  Q1\n  theta=1,1  Q1 + Q2 + P1\n"),
    "compose": ([], L3_ASCII + "\n"),
    "antitranspose": ([], "..###\n#####\n###..\n"),
    "render": (["--annotate"], ".##\n.##\n#C#\n##.\n##.\n"),
    "construct2n": (["--sizes", "3x2,3x2"], L3_ASCII + "\n"),
    "nf": (['{"exps": [[1, 2, 1], [3, 3, 1]]}'], "x(1,3)*x(3,2)\n"),
    "eq": (['{"exps": [[1, 2, 1], [2, 3, 1]]}', '{"exps": [[1, 3, 1], [2, 2, 1]]}'], "true\n"),
    "witness": ([], "corner: (3,2)\nlambda_top: 1\nlambda_bottom: 1\ncase equal-sign: holds\n"),
}


@pytest.mark.parametrize("command", L3_PRETTY)
def test_pretty_output_of_every_command(capsys, l3_json, command):
    extra, expected = L3_PRETTY[command]
    argv = [command, *extra] if command == "construct2n" else [command, "--in", l3_json, *extra]
    assert run(capsys, *argv, "--pretty") == (0, expected, "")
    assert run(capsys, *argv) == (0, expected, "")


def test_sdm_json_count(capsys, l3_json):
    code, out, _ = run(capsys, "sdm", "--in", l3_json, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert doc["rank"] == 3
    assert doc["omega"] == {"P": {"1": 1}, "Q": {"1": 1, "2": 1}}


def test_sdm_omega_matches_canonical_command(capsys, l3_json):
    code, sdm_out, _ = run(capsys, "sdm", "--in", l3_json, "--json")
    assert code == 0
    code, canonical_out, _ = run(capsys, "canonical", "--in", l3_json, "--json")
    assert code == 0
    assert json.loads(sdm_out)["omega"] == json.loads(canonical_out)


def test_sdm_over_class_cap_is_domain_error(capsys, tmp_path):
    path = tmp_path / "glue17.json"
    path.write_text(json.dumps(construct_2n(17, [(2, 3), (3, 2)] * 8 + [(2, 3)]).to_json_dict()))
    for mode in ("--json", "--pretty"):
        start = time.process_time()
        code, out, err = run(capsys, "sdm", "--in", str(path), mode)
        assert time.process_time() - start < 5.0
        assert (code, out) == (1, "")
        assert err == f"error: 2**17 semidualizing classes exceed the output cap of {MAX_SDM_CLASSES}\n"


def test_gorenstein_pretty(capsys, l2_txt, l3_json):
    code, out, _ = run(capsys, "gorenstein", "--in", l2_txt)
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "gorenstein", "--in", l3_json)
    assert (code, out.strip()) == (0, "false")


def test_validate_broken_input_exits_1(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("#.\n.#")
    code, _, err = run(capsys, "validate", "--in", str(path))
    assert code == 1
    assert "closure violation" in err


def test_validate_not_two_connected_exits_1(capsys, tmp_path):
    path = tmp_path / "row.txt"
    path.write_text("####")
    code, out, _ = run(capsys, "validate", "--in", str(path))
    assert code == 1
    assert "two_connected: false" in out


def test_duplicate_cell_warning_is_one_line(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"cells": [[1, 1], [1, 1], [1, 2]]}')
    code, out, err = run(capsys, "validate", "--in", str(path), "--json")
    assert code == 1
    assert json.loads(out)["two_connected"] is False
    assert err == "warning: duplicate cells in ladder input; deduplicating\n"
    # a failing command still shows the warning first, then its error
    path.write_text('{"cells": [[1, 1], [1, 1], [2, 2]]}')
    assert run(capsys, "validate", "--in", str(path)) == (
        1, "", "warning: duplicate cells in ladder input; deduplicating\n"
        "error: closure violation: cells (1,1) and (2,2) require (1,2) and (2,1)\n",
    )


def test_validate_pretty_ok(capsys, l3_json):
    code, out, _ = run(capsys, "validate", "--in", l3_json)
    assert code == 0
    assert "sidedness: two-sided" in out


def test_corners_json(capsys, l3_json):
    code, out, _ = run(capsys, "corners", "--in", l3_json, "--json")
    assert code == 0
    assert json.loads(out) == {"lower": [[3, 2]], "upper": [[3, 2]], "coincidental": [[3, 2]]}


def test_decompose_json(capsys, l3_json):
    code, out, _ = run(capsys, "decompose", "--in", l3_json, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coincidental"] == [[3, 2]]
    assert doc["offsets"] == [[0, 1], [2, 0]]
    assert len(doc["factors"]) == 2


def test_classgroup_json(capsys, l3_json):
    code, out, _ = run(capsys, "classgroup", "--in", l3_json, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == ["Q1", "Q2", "P1"]
    assert doc["generators"]["Q1"] == [[1, 2], [1, 3]]


def test_compose_multiple_inputs(capsys, tmp_path, l3_json):
    block = tmp_path / "m32.txt"
    block.write_text("##\n##\n##")
    code, out, _ = run(capsys, "compose", "--in", str(block), "--in", str(block))
    assert code == 0
    assert out.strip("\n") == L3_ASCII


def test_antitranspose_roundtrip(capsys, l2_txt):
    code, out, _ = run(capsys, "antitranspose", "--in", l2_txt, "--json")
    assert code == 0
    flipped = json.loads(out)
    assert len(flipped["cells"]) == len(L2_ASCII.replace("\n", "").replace(".", ""))


def test_render_annotated(capsys, l3_json):
    code, out, _ = run(capsys, "render", "--in", l3_json, "--annotate")
    assert code == 0
    assert out.split("\n")[2][1] == "C"


@pytest.mark.parametrize("argv", [["render"], ["render", "--json"], ["antitranspose"]])
def test_render_over_extent_cap_is_domain_error(capsys, tmp_path, argv):
    # a valid two-cell ladder with a 100000 x 100000 bounding box
    path = tmp_path / "wide.json"
    path.write_text('{"cells": [[1,100000],[100000,1]]}')
    code, out, err = run(capsys, *argv, "--in", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot render a 100000x100000 grid") and err.count("\n") == 1


BIG = "9" * 4300  # the longest integer Python prints


@pytest.mark.parametrize(
    "cells, argv",
    [
        # m and n of 4300 digits each: the grid's area would have 8600
        pytest.param(f"[[1, {BIG}], [{BIG}, 1]]", ["render"], id="render-area"),
        # normalization gives n of 4301 digits, which no output could print
        pytest.param(f"[[1, -{BIG}], [1, {BIG}]]", ["antitranspose", "--json"], id="antitranspose-extent"),
        pytest.param(f"[[1, -{BIG}], [1, {BIG}]]", ["compose", "--json"], id="compose-extent"),
    ],
)
def test_huge_extent_is_domain_error(capsys, tmp_path, cells, argv):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"cells": {cells}}}')
    code, out, err = run(capsys, *argv, "--in", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err[:200]


HUGE_TWO_CELLS = {  # command: (exit code, exact JSON stdout)
    "validate": (1, '{\n  "every_cell_in_minor": false,\n  "is_ladder": true,\n  "messages": [\n'
                    '    "2 cell(s) belong to no full 2-minor",\n    "cell set is not path-connected"\n  ],\n'
                    '  "normalized": true,\n  "path_connected": false,\n  "sidedness": "other",\n'
                    '  "two_connected": false\n}\n'),
    "corners": (0, '{\n  "coincidental": [],\n  "lower": [],\n  "upper": []\n}\n'),
}


@pytest.mark.parametrize("col", [BIG, str(10**19)], ids=["4300-digit", "over-ssize_t"])
@pytest.mark.parametrize("command", sorted(HUGE_TWO_CELLS))
def test_whole_rows_on_consecutive_rows_with_a_huge_column(capsys, tmp_path, command, col):
    # each row is the whole of its one-cell span, and the rows are consecutive,
    # but the occupied columns 1 and col leave every column between them empty
    path = tmp_path / "huge.json"
    path.write_text(f'{{"cells": [[1, {col}], [2, 1]]}}')
    code, out = HUGE_TWO_CELLS[command]
    assert run(capsys, command, "--json", "--in", str(path)) == (code, out, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["validate"],
            "closure violation: cells (1,1) and (2,<4300-digit>) require (1,<4300-digit>) and (2,1)",
            id="closure",
        ),
        pytest.param(
            ["construct2n", "--sizes", f"1x{BIG}"], "block 1x<4300-digit> too small: both sides must exceed 1",
            id="small-block",
        ),
        pytest.param(
            ["construct2n", "--sizes", f"{BIG}x{BIG}"],
            "square block <4300-digit>x<4300-digit> rejected: a square matrix is Gorenstein (m = n), "
            "so it contributes no factor of 2",
            id="square-block",
        ),
    ],
)
def test_long_index_is_named_by_its_length(capsys, tmp_path, argv, message):
    path = tmp_path / "long.json"
    path.write_text(f'{{"cells": [[1, 1], [2, {BIG}]]}}')
    inputs = ["--in", str(path)] if argv[0] == "validate" else []
    assert run(capsys, *argv, *inputs) == (1, "", f"error: {message}\n")


def test_sdm_cap_names_a_long_count_by_its_exponent(capsys, monkeypatch, l3_json):
    # a count of 2**14300 has over 4300 digits; no ladder classify can build in
    # memory has that many classes, so a stub report stands in
    monkeypatch.setattr("ladderdet.sdm.classify", lambda ladder: SimpleNamespace(count=2**14300))
    for mode in ("--json", "--pretty"):
        assert run(capsys, "sdm", "--in", l3_json, mode) == (
            1, "", f"error: 2**14300 semidualizing classes exceed the output cap of {MAX_SDM_CLASSES}\n"
        )


def test_failed_command_prints_nothing_to_stdout(capsys, monkeypatch, l3_json):
    # L3's 3x2 factors fail to render only after the decomposition succeeded
    monkeypatch.setattr("ladderdet.ladders.MAX_RENDER_AREA", 5)
    code, out, err = run(capsys, "decompose", "--in", l3_json)
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot render a 3x2 grid") and err.count("\n") == 1


SDM_SHA256 = {  # (ladder, mode): SHA-256 of `sdm` stdout as written when classes were sums
    ("L3", "--json"): "c1204f17d08de64bd0ba9a738a090ecb80d68f25e4ffd82b251da13123181b40",
    ("L3", "--pretty"): "46c4feab537ed16ea2e7ae25574e5bfd34ddf30fc8c62f810b87697b48b0f2c2",
    ("glue12", "--json"): "33500618183b360b8ea8a52ac19c4df9cc7480f4019b7bc6319acdd2ae3f6c05",
    ("glue12", "--pretty"): "53cce2bfaabee71c6a7e44a0ecf7df3f897fb2a7b87ced323bd89e6978a8169f",
    ("L1L2L3", "--json"): "572da64576400f42578bbac6f3623945e559a08c58c2ba8223e4678e512f54b4",
    ("L1L2L3", "--pretty"): "01ce3e000c52dc88b785d0d5ce57d8a0b4a9ddfec75820e2148cb1bc4f17c2fa",
    # written when each factor image was a dense class
    ("glue300", "--json"): "f367cd849bb830a978ac92af9da2cdd4cfcfd9e707211e878879501ecd3c2e3e",
    ("glue300", "--pretty"): "182c0c26a3ea78a54482da6299f146992f0d08df8c6681d20171d168d1fa02a6",
    ("band200", "--json"): "d0fb23ddd0183188ee7a775579eb3a4c31588cc4e6d45e353ec81e35082f3b68",
    ("band200", "--pretty"): "dfed8bf9cc63ee4735b77c103e6c43649fd7c27a8111c248e0eee1e8c3e64f60",
}


def glue300():
    """290 blocks of 2x2 and 3x3 with 10 non-square blocks among them: rank 599, 1,024 classes."""
    rng = random.Random(300)
    sizes = [rng.choice([(2, 2), (3, 3)]) for _ in range(290)]
    for shape in rng.sample([(2, 3), (3, 2), (2, 4), (4, 3), (3, 4), (4, 2)] * 2, 10):
        sizes.insert(rng.randrange(len(sizes) + 1), shape)
    return compose(Ladder.full_matrix(m, n) for m, n in sizes)


def band(m):
    """m rows, each starting one column left of the row above: one factor with m - 3 corners of each kind."""
    lines = ("." * max(0, m - r - 2) + "#" * (min(m, m - r + 3) - max(1, m - r - 1) + 1) for r in range(1, m + 1))
    return parse_ascii("\n".join(lines))


SDM_LADDERS = {
    # construct2n --sizes 2x3,3x2,... (6 pairs): 4,096 classes
    "glue12": lambda: construct_2n(12, [(2, 3), (3, 2)] * 6),
    # compose: a two-sided factor, a Gorenstein one and two 3x2 blocks
    "L1L2L3": lambda: compose([parse_ascii(text) for text in (L1_ASCII, L2_ASCII, L3_ASCII)]),
    "glue300": glue300,
    "band200": lambda: band(200),
}


@pytest.mark.parametrize("ladder, mode", SDM_SHA256)
def test_sdm_output_bytes_are_unchanged(capsys, tmp_path, l3_json, ladder, mode):
    path = l3_json
    if ladder in SDM_LADDERS:
        path = tmp_path / f"{ladder}.json"
        path.write_text(json.dumps(SDM_LADDERS[ladder]().to_json_dict()))
    code, out, err = run(capsys, "sdm", "--in", str(path), mode)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SDM_SHA256[ladder, mode]


@pytest.mark.parametrize("mode", ["--json", "--pretty"])
def test_sdm_names_the_labels_once(capsys, monkeypatch, tmp_path, mode):
    # 300 factor images and 1,024 classes: names per image or per class would be hundreds of calls
    import ladderdet.classgroup
    import ladderdet.sdm

    calls = []
    labels = ladderdet.classgroup._labels

    def counted(ladder):
        calls.append(ladder)
        return labels(ladder)

    for module in (ladderdet.classgroup, ladderdet.sdm):
        monkeypatch.setattr(module, "_labels", counted)
    path = tmp_path / "glue300.json"
    path.write_text(json.dumps(glue300().to_json_dict()))
    code, out, err = run(capsys, "sdm", "--in", str(path), mode)
    assert (code, err) == (0, "")
    assert len(calls) <= 1


@pytest.mark.parametrize(
    "make",
    [
        lambda items: {"a": items([])},
        lambda items: {"b": items([{"Q": {"10": 1, "2": -3}, "P": {}}] * 2500), "a": [[1, 2]], "c": {"x": "y\nz"}},
        lambda items: {"t": items([[0, 1], [1, 0]]), "e": {}, "n": 3},
        lambda items: {},
        lambda items: True,
        lambda items: [{"k": [1, {"m": []}]}],
    ],
    ids=["empty-iterator", "batches", "lists", "empty-doc", "scalar", "list-doc"],
)
def test_json_pieces_are_json_dumps(make):
    # iterators in the document are written as the lists they yield
    got, want = "".join(_json_pieces(make(iter))), json.dumps(make(list), sort_keys=True, indent=2)
    # show where they part: a diff of the whole texts takes minutes
    at = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), min(len(got), len(want)))
    near = slice(max(at - 40, 0), at + 40)
    assert (got[near], len(got)) == (want[near], len(want))


def test_closed_stdout_pipe_ends_quietly(tmp_path):
    # about 1.5 MB of JSON, far more than a pipe buffers
    path = tmp_path / "glue12.json"
    path.write_text(json.dumps(construct_2n(12, [(2, 3), (3, 2)] * 6).to_json_dict()))
    with subprocess.Popen(
        [sys.executable, "-m", "ladderdet.cli", "sdm", "--json", "--in", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    ) as proc:
        assert proc.stdout.read(10) == b'{\n  "class'
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")


# What importing the CLI must not load: ``dataclasses`` pulls in ``inspect``,
# and each command loads the library modules it uses itself.
HEAVY_MODULES = ("dataclasses", "inspect", "ladderdet.classgroup", "ladderdet.rewrite", "ladderdet.sdm")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], ""),
        (["validate"], ""),
        (["nf", '{"exps": [[1, 2, 1], [3, 3, 1]]}'], "ladderdet.rewrite"),
        (["eq", '{"exps": [[1, 2, 1]]}', '{"exps": [[1, 2, 1]]}'], "ladderdet.rewrite"),
    ],
    ids=["import", "validate", "nf", "eq"],
)
def test_cli_imports_only_what_its_command_uses(l3_json, argv, loaded):
    probe = (
        "import sys\nfrom ladderdet.cli import main\n"
        "code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
        f"print(code, *(m for m in {HEAVY_MODULES!r} if m in sys.modules), file=sys.stderr)"
    )
    args = [*argv[:1], "--in", l3_json, "--json", *argv[1:]] if argv else []
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert proc.stderr.split() == ["0", *loaded.split()]


def test_render_json_grid(capsys, l3_json):
    code, out, _ = run(capsys, "render", "--in", l3_json, "--json")
    assert code == 0
    assert json.loads(out)["grid"] == L3_ASCII.split("\n")


def test_construct2n(capsys):
    code, out, _ = run(capsys, "construct2n", "--sizes", "2x3,3x4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert max(rc[0] for rc in doc["cells"]) == 4
    assert max(rc[1] for rc in doc["cells"]) == 6


def test_construct2n_refuses_square_block(capsys):
    code, _, err = run(capsys, "construct2n", "--sizes", "3x3")
    assert code == 1
    assert "Gorenstein" in err


def test_construct2n_over_cell_cap_is_domain_error(capsys):
    start = time.process_time()
    code, out, err = run(capsys, "construct2n", "--sizes", "100000x99999", "--json")
    assert time.process_time() - start < 1.0
    assert (code, out) == (1, "")
    assert err == f"error: blocks of {100000 * 99999} cells in all exceed the cap of {MAX_CONSTRUCT_CELLS}\n"


def test_construct2n_unprintable_total_is_domain_error(capsys):
    # 2 x (10**4300 - 1) cells: a total of 4301 digits, which Python will not print
    code, out, err = run(capsys, "construct2n", "--sizes", f"2x{BIG}")
    assert (code, out) == (1, "")
    assert err == f"error: blocks of at least 10**4300 cells in all exceed the cap of {MAX_CONSTRUCT_CELLS}\n"


def test_nf_command(capsys, l3_json):
    code, out, _ = run(capsys, "nf", "--in", l3_json, '{"exps": [[1, 2, 1], [3, 3, 1]]}', "--json")
    assert code == 0
    assert json.loads(out) == {"exps": [[1, 3, 1], [3, 2, 1]]}


def test_eq_command(capsys, l3_json):
    code, out, _ = run(
        capsys,
        "eq",
        "--in",
        l3_json,
        '{"exps": [[1, 2, 1], [2, 3, 1]]}',
        '{"exps": [[1, 3, 1], [2, 2, 1]]}',
    )
    assert (code, out.strip()) == (0, "true")


def test_eq_degree_bound_enforced(capsys, l3_json):
    # Degrees up to the cap of 8 are answered; above it, one error line.
    for e in (5, 8):
        code, out, _ = run(capsys, "eq", "--in", l3_json, f'{{"exps": [[1, 2, {e}]]}}', f'{{"exps": [[1, 3, {e}]]}}')
        assert (code, out) == (0, "false\n")
    code, out, err = run(capsys, "eq", "--in", l3_json, '{"exps": [[1, 2, 9]]}', '{"exps": [[1, 3, 9]]}')
    assert (code, out) == (1, "")
    assert err == "error: monomial degree exceeds the cap of 8\n"


@pytest.mark.parametrize(
    "monomials",
    [
        ['{"exps": [[1, 2, 1.5]]}'],
        ['{"exps": [[1, 2, 1.9]]}', '{"exps": [[1, 2, 1]]}'],
        ['{"exps": [[1.0, 2.0, 1]]}'],
        ['{"exps": [[1, 2, "x"]]}'],
        ['{"exps": [[1, 2, 1e400]]}'],
        ['{"exps": [[1, 2, NaN]]}'],
        ['{"exps": [[1, 2, true]]}'],
        ['{"exps": [[1, 2, ' + "9" * 5000 + "]]}"],
        ["[" * 100000],
        # A degree of 4301 digits, one more than Python prints.
        ['{"exps": [[1, 2, ' + "9" * 4300 + "], [1, 2, 1]]}"],
        ['{"exps": [[1, 2, ' + "9" * 4300 + "], [1, 2, " + "9" * 4300 + "]]}"],
        ['{"exps": [[1, 2, ' + "9" * 4300 + "], [1, 2, " + "9" * 4300 + "]]}", '{"exps": [[1, 2, 1]]}'],
    ],
)
def test_malformed_monomial_is_domain_error(capsys, l3_json, monomials):
    command = "nf" if len(monomials) == 1 else "eq"
    code, out, err = run(capsys, command, "--in", l3_json, *monomials)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"cells": [[1, ' + "9" * 5000 + "]]}",
        '{"cells": ' + "[" * 200000 + "]" * 200000 + "}",
    ],
    ids=["long-integer", "deep-nesting"],
)
def test_malformed_ladder_json_is_domain_error(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, text",
    [
        ("validate", json.dumps({"cells": [[1, "x" * 10**6]]})),
        ("validate", json.dumps({"cells": [[0] * 200_000]})),
        ("validate", json.dumps({"cells": [[1, 2], ["x" * 10**6, 1]]})),
        ("nf", json.dumps({"exps": [[1, "x" * 10**6, 1]]})),
        ("nf", json.dumps({"exps": [[0] * 200_000]})),
    ],
    ids=["1MB-column", "200k-zeros", "1MB-row", "1MB-monomial-entry", "200k-zero-exponent-entry"],
)
def test_error_line_echoes_a_bounded_part_of_the_input(capsys, tmp_path, l3_json, command, text):
    # the echoed entry is cut, as _brief cuts a long integer; a short one prints in full
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = ["validate", "--in", str(path)] if command == "validate" else ["nf", "--in", l3_json, text]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 200, err[:300]


def test_module_entry_point_matches_main(capsys, l3_json):
    argv = ["validate", "--in", l3_json, "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "ladderdet.cli", *argv], capture_output=True, text=True, env=child_env(), timeout=60
    )
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out) == (0, out)
    assert json.loads(out)["two_connected"] is True


def test_degree_bound_cap_is_usage_error(capsys, l3_json):
    # The option is gone: the cap is fixed.
    for argv in (["nf", '{"exps": []}'], ["eq", '{"exps": []}', '{"exps": []}'], ["witness"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--in", l3_json, "--degree-bound", "4"])
        assert exc.value.code == 2


def test_witness_command(capsys, l3_json):
    code, out, _ = run(capsys, "witness", "--in", l3_json, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cases"] == [{"holds": True, "name": "equal-sign"}]


@pytest.mark.parametrize(
    "sizes, case",
    [([(4, 2), (4, 2)], "equal-sign"), ([(6, 2), (6, 2)], "equal-sign"), ([(2, 6), (6, 2)], "opposite-sign")],
    ids=["4x2#4x2", "6x2#6x2", "2x6#6x2"],
)
def test_witness_identities_of_high_degree(capsys, tmp_path, sizes, case):
    # The identities have degree 5, 9 and 9.
    path = tmp_path / "glue.json"
    path.write_text(json.dumps(construct_2n(2, sizes).to_json_dict()))
    code, out, _ = run(capsys, "witness", "--in", str(path))
    assert code == 0
    assert out.endswith(f"case {case}: holds\n")


def test_witness_pretty_vacuous(capsys, tmp_path):
    path = tmp_path / "glue.txt"
    path.write_text(".##\n###\n##.\n##.\n##.")  # 2x2 glued on top of 4x2
    code, out, _ = run(capsys, "witness", "--in", str(path))
    assert code == 0
    assert "vacuous" in out


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(L3_ASCII.encode())))
    code, out, _ = run(capsys, "corners")
    assert code == 0
    assert "coincidental: (3,2)" in out


def test_non_utf8_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"cells": [[1, 1]]}')
    code, out, err = run(capsys, "validate", "--in", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read input: ") and err.count("\n") == 1


def test_non_utf8_stdin_is_usage_error(capsys, monkeypatch):
    # latin-1 would decode these bytes; the command must insist on UTF-8 itself
    raw = io.BytesIO(b'\xff\xfe{"cells": [[1, 1]]}')
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="latin-1"))
    code, out, err = run(capsys, "validate")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read input: ") and err.count("\n") == 1


def _help(capsys, *argv):
    """What ``main`` prints for ``--help``, after checking that it exits 0."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_names_every_command(capsys):
    # content, not bytes: argparse words and wraps its help differently on each Python
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    helps = {action.dest: action.help for action in sub._choices_actions}
    top = _help(capsys)
    assert top.split()[:2] == ["usage:", "ladderdet"]
    assert len(helps) == 14 and all("".join(h.split()) in "".join(top.split()) for h in helps.values())
    for command in helps:
        assert _help(capsys, command).split()[:3] == ["usage:", "ladderdet", command]


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "corners", "--in", "/nonexistent/ladder.json")
    assert code == 2
    assert "cannot read input" in err


def test_json_pretty_mutually_exclusive(capsys, l3_json):
    with pytest.raises(SystemExit) as exc:
        main(["corners", "--in", l3_json, "--json", "--pretty"])
    assert exc.value.code == 2


def test_json_output_is_deterministic(capsys, l3_json):
    _, first, _ = run(capsys, "sdm", "--in", l3_json, "--json")
    _, second, _ = run(capsys, "sdm", "--in", l3_json, "--json")
    assert first == second


def test_repeated_in_flag_on_single_input_command(capsys, l3_json):
    code, _, err = run(capsys, "corners", "--in", l3_json, "--in", l3_json)
    assert code == 2
    assert "exactly one" in err


def test_domain_error_exit_code(capsys, tmp_path):
    path = tmp_path / "row.txt"
    path.write_text("####")
    code, _, err = run(capsys, "sdm", "--in", str(path))
    assert code == 1
    assert "2-connected" in err
