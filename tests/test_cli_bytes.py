"""Byte pins for every command: one SHA-256 per command over what ``main`` prints.

Each command runs in ``--json`` and in ``--pretty`` mode on a fixed, seeded
set of inputs: L1-L3, a sample of the ladders up to 3x4, a glue, a band, a
ladder whose occupied columns have gaps, and adversarial input (malformed
JSON, non-UTF-8 bytes, duplicate cells, a 4,300-digit index, huge extents).
A pin hashes, for every run in order, the exit code, stdout and stderr.

Two kinds of text differ between Python versions, and are cut before they
are hashed: argparse's usage text, and the interpreter's wording of an
exception that the library quotes after one of ``QUOTING`` below.
"""

import argparse
import hashlib
import json
import random

import pytest

from ladderdet.cli import build_parser, main

from helpers import L1_ASCII, L2_ASCII, L3_ASCII, L3_CELLS, enumerate_ladder_cellsets, validate_oracle

BIG = "9" * 4300  # the longest integer Python prints

# Library messages that end in an exception's own text, whose wording is the interpreter's.
QUOTING = ("error: malformed JSON:", "error: malformed monomial JSON:", "error: cannot read input:")


def _cells_json(cells) -> str:
    return json.dumps({"cells": sorted(map(list, cells))})


def _band(m: int) -> str:
    """m rows, each starting one column left of the row above."""
    rows = ("." * max(0, m - r - 2) + "#" * (min(m, m - r + 3) - max(1, m - r - 1) + 1) for r in range(1, m + 1))
    return "\n".join(rows)


def _inputs():
    """(name, file content, cells or None) for every ladder input, in a fixed order."""
    gapped = [(1, 3), (1, 5), (2, 1), (2, 3), (2, 5), (3, 1), (3, 3)]
    out = [
        ("L1", L1_ASCII, None),
        ("L2", L2_ASCII, None),
        ("L3", _cells_json(L3_CELLS), L3_CELLS),
        # a 2x3, a 3x3 and a 3x2 block glued corner to corner
        ("glue", "...###\n.#####\n.###..\n####..\n##....\n##....", None),
        ("band", _band(8), None),
        # one coincidental corner between two full matrices
        ("pair", "..####\n######\n###...\n###...", None),
        # S = {1, 3, 5}: 2-connected, not path-connected
        ("gapped", _cells_json(gapped), gapped),
    ]
    # every analyzable ladder up to 3x4, and a seeded sample of the rest
    small = enumerate_ladder_cellsets(3, 4)
    analyzable = [c for c in small if (lambda v: v["two_connected"] and v["sidedness"] != "other")(validate_oracle(c))]
    rest = random.Random(21).sample([c for c in small if c not in analyzable], 6)
    for i, cells in enumerate(analyzable + rest):
        out.append((f"small{i}", _cells_json(cells), sorted(cells)))
    out += [
        ("malformed", '{"cells": [[1, 2]', None),
        ("long-integer", '{"cells": [[1, ' + "9" * 5000 + "]]}", None),
        ("not-a-ladder", '{"cells": [[1, 1], [2, 2]]}', None),
        ("duplicates", '{"cells": [[1, 1], [1, 1], [1, 2], [2, 1], [2, 2]]}', None),
        ("long-index", f'{{"cells": [[1, 1], [2, {BIG}]]}}', None),
        ("huge-area", f'{{"cells": [[1, {BIG}], [{BIG}, 1]]}}', None),
        ("huge-extent", f'{{"cells": [[1, -{BIG}], [1, {BIG}]]}}', None),
        ("wide", '{"cells": [[1,100000],[100000,1]]}', None),
    ]
    return out


def _monomials(cells, rng):
    """A monomial of two seeded cells, and the one with their rows swapped."""
    if cells is None:
        return '{"exps": [[1, 1, 1]]}', '{"exps": [[1, 2, 1]]}'
    (i, j), (p, q) = sorted(rng.choice(cells) for _ in range(2))
    exps = lambda a, b: json.dumps({"exps": [[*a, 1], [*b, 1]]})
    return exps((i, j), (p, q)), exps((i, q), (p, j))


def _runs(paths):
    """(command, argv) for every run, in a fixed order."""
    rng = random.Random(7)
    ladder_commands = (
        "validate", "corners", "decompose", "classgroup", "canonical", "gorenstein", "sdm",
        "compose", "antitranspose", "render", "witness",
    )
    out = []
    for name, _, cells in _inputs():
        io = ["--in", paths[name]]
        m1, m2 = _monomials(cells, rng)
        out += [(command, [command, *io]) for command in ladder_commands]
        out += [("render", ["render", "--annotate", *io]), ("nf", ["nf", *io, m1]), ("eq", ["eq", *io, m1, m2])]
    l3 = ["--in", paths["L3"]]
    out += [("compose", ["compose", "--in", paths["L1"], "--in", paths["L2"], *l3])]
    out += [("nf", ["nf", *l3, m]) for m in ('{"exps": [[1, 2, 1.5]]}', '{"exps": [[1, 2, 9]]}', '{"exps": [', "[]")]
    out += [("eq", ["eq", *l3, '{"exps": [[1, 2, 2]]}', '{"exps": [[1, 2, 1], [1, 2, 1]]}'])]
    out += [("nf", ["nf", *l3])]  # a usage error
    out += [("corners", ["corners", "--in", paths["non-utf8"]]), ("sdm", ["sdm", "--in", paths["missing"]])]
    sizes = ("3x2,3x2", "2x3,3x4", "2x3,3x2,2x4", "2x3,5x2,2x3,3x2", "3x3", "1x5", "100000x99999", f"2x{BIG}", "3y2", "ax2", "2x")
    out += [("construct2n", ["construct2n", "--sizes", s]) for s in sizes]
    return out


def _cut(err: str) -> str:
    """stderr with interpreter-worded text after a ``QUOTING`` prefix removed."""
    return "".join(next((p + "\n" for p in QUOTING if line.startswith(p)), line) for line in err.splitlines(True))


def _run(capsys, argv):
    """(exit code, stdout, stderr) of one ``main`` run; of a usage error, stderr's ``error:`` prefix only."""
    try:
        code = main(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err.splitlines()[-1].partition(" error: ")[0] + " error:"
    captured = capsys.readouterr()
    return code, captured.out, _cut(captured.err)


COMMAND_SHA256 = {  # written before a Ladder stopped caching its cell set and its hash
    "validate": "e51afbf2dd9b6de3819e4ab23eb4d8363d5a20c2411da8498d021713f8b2a215",
    "corners": "463c9df63ba180244015d6d8bd0eedb12e882bd4b1dedbe80ffb5ac132612232",
    "decompose": "acd41fc0e1c25763e60ee8bb91ef5e04ec6b2b6c474eda81aa39cd5df6ecb1e4",
    "classgroup": "50777719a9b041d10790c5fd635c690ac1b02e8f739528f983f9636d53b40264",
    "canonical": "1f6f5f1769aec39f5b155396ba77becbad2b2a893ea16d596a78619091453764",
    "gorenstein": "f7cf1a9f3b210b93f8364e30b3d223461f37d9af8a7d70135f0b43951ad5817d",
    "sdm": "20b4406fe2b8489e04adc7d97e35efe3ab60a9bdd2145d141a16167efa3b6165",
    "compose": "24ff2d7fbfb5f51933be5c6fca705b28af1d407b980a71d3de72281cca55dba4",
    "antitranspose": "f35302e7d824098659ffe9bb2dea1df9ceff8cf7377b2b62b96c978bfeb4ef8a",
    "render": "7f3de1b5b083ab0dcd65666138c177d5fc6c369a554da421da5e688632d7a562",
    "construct2n": "baddaaf0b32546d6beea80d9fa2194a7556c608c6ecd7668c8ff1da92a0262f2",
    "nf": "602986a783507c2f5f45af3ebe5bf3bafcc295dafe08b65b84f60a6f89828dec",
    "eq": "9dfa5e559f54395f5499181d4a2bcd41694fd0a68193deabf54a877449358868",
    "witness": "1280c144147b3137d6427f0c08c11fb7c0e97c3b78fe907902ea3f9a3c2b1eb8",
}


COMMANDS = (
    "validate", "corners", "decompose", "classgroup", "canonical", "gorenstein", "sdm",
    "compose", "antitranspose", "render", "construct2n", "nf", "eq", "witness",
)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The argv of every run, by command, with the inputs written to files."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {"missing": str(root / "missing.json"), "non-utf8": str(root / "non-utf8")}
    (root / "non-utf8").write_bytes(b'\xff\xfe{"cells": [[1, 1]]}')
    for name, text, _ in _inputs():
        (root / name).write_text(text)
        paths[name] = str(root / name)
    out = {command: [] for command in COMMANDS}
    for command, argv in _runs(paths):
        out[command].append(argv)
    return out


@pytest.mark.parametrize("command", COMMANDS)
def test_command_output_bytes_are_unchanged(capsys, runs, command):
    digest = hashlib.sha256()
    for argv in runs[command]:
        for mode in ("--json", "--pretty"):
            code, out, err = _run(capsys, [*argv, mode])
            digest.update(json.dumps([code, out, err]).encode())
    assert digest.hexdigest() == COMMAND_SHA256[command]


def test_every_registered_command_is_pinned(runs):
    # a command that the parser registers cannot ship without runs and a pin
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMANDS) == set(COMMAND_SHA256)
    assert all(runs[command] for command in COMMANDS)
