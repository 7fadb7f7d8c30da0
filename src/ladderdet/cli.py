"""Command-line front end: ladder analysis with JSON or human-readable output.

Each command handler returns ``(json_doc, pretty_text, exit_code)``, the first
two as zero-argument callables, so only the requested form is built; ``main``
prints it once, after the command has succeeded, and maps errors to exit codes.
The one part built while it is written, ``sdm``'s class list, cannot fail.
Handlers import ``classgroup``, ``rewrite`` and ``sdm`` themselves, so a run
loads only the modules its command uses.

Exit codes: 0 success, 1 domain/validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from collections.abc import Iterator
from functools import partial
from itertools import islice

from .decompose import decompose
from .ladders import (
    Ladder,
    LadderError,
    _brief_repr,
    antitranspose,
    compose,
    corners,
    parse_auto,
    render_ascii,
    validate,
)

# The most semidualizing classes `sdm` prints; the count itself is cheap, but
# the output grows as 2^N in the number of non-Gorenstein factors.
MAX_SDM_CLASSES = 2**16


class UsageError(Exception):
    pass


def _read_text(path):
    """The input text, decoded as strict UTF-8 from the file or from stdin."""
    try:
        if path is None:
            sys.stdin.reconfigure(encoding="utf-8", errors="strict")
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read input: {exc}") from None


def _load_ladders(args) -> list[Ladder]:
    paths = args.input if args.input else [None]
    return [parse_auto(_read_text(p)) for p in paths]


def _load_ladder(args) -> Ladder:
    if args.input and len(args.input) != 1:
        raise UsageError("this command takes exactly one --in ladder")
    return _load_ladders(args)[0]


def _parse_monomial(text: str):
    from .rewrite import MAX_DEGREE_BOUND, Monomial

    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers and deep nesting
        raise LadderError(f"malformed monomial JSON: {exc}") from None
    mono = Monomial.from_json_dict(doc)
    # The cap keeps every exponent of the answer printable: Python will not
    # convert an integer of over 4300 digits to a string.  For the same
    # reason the message leaves the degree out.
    if mono.degree > MAX_DEGREE_BOUND:
        raise LadderError(f"monomial degree exceeds the cap of {MAX_DEGREE_BOUND}")
    return mono


def _fmt_cells(cells) -> str:
    return " ".join(f"({r},{c})" for r, c in cells)


def _sizes(value: str) -> list[tuple[int, int]]:
    out = []
    for chunk in value.split(","):
        parts = chunk.lower().split("x")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"bad block size {_brief_repr(chunk)}: expected MxN")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad block size {_brief_repr(chunk)}: expected MxN") from None
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladderdet",
        description="Divisor class groups and semidualizing module classes of ladder determinantal rings of 2-minors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_text, inputs=True, many=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if inputs:
            p.add_argument(
                "--in",
                dest="input",
                action="append",
                metavar="FILE",
                help="ladder input file (JSON or ASCII grid); stdin when omitted"
                + ("; repeat for several factors" if many else ""),
            )
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--json", action="store_true", help="machine-readable output")
        mode.add_argument("--pretty", action="store_true", help="human-readable output (default)")
        return p

    add("validate", _cmd_validate, "structural and connectivity diagnostics")
    add("corners", _cmd_corners, "lower, upper, and coincidental inside corners")
    add("decompose", _cmd_decompose, "factorization at the coincidental inside corners")
    add("classgroup", _cmd_classgroup, "class group basis and ideal generators")
    add("canonical", _cmd_canonical, "canonical class in the Q/P basis")
    add("gorenstein", _cmd_gorenstein, "Gorenstein test")
    add("sdm", _cmd_sdm, "semidualizing module classes")
    add("compose", _cmd_compose, "glue ladders corner to corner", many=True)
    add("antitranspose", _cmd_antitranspose, "reflect along the antidiagonal")
    p = add("render", _cmd_render, "ASCII grid")
    p.add_argument("--annotate", action="store_true", help="mark corners L/U/C")

    p = add("construct2n", _cmd_construct2n, "compose non-square matrix blocks for a 2^N class count", inputs=False)
    p.add_argument("--sizes", required=True, type=_sizes, metavar="M1xN1,M2xN2,...")

    p = add("nf", _cmd_nf, "normal form of a monomial modulo the 2-minors")
    p.add_argument("monomial", help='monomial JSON, e.g. {"exps": [[1,2,1],[3,3,1]]}')

    p = add("eq", _cmd_eq, "equality of two monomials modulo the 2-minors")
    p.add_argument("monomial", nargs=2, help="two monomial JSON documents")

    add("witness", _cmd_witness, "multiplication-map witness identities on a two-matrix glue")

    return parser


def _ladder_output(ladder: Ladder):
    """A ladder as a command result: its cells as JSON, its grid as text."""
    return ladder.to_json_dict, partial(render_ascii, ladder), 0


def _bool_output(result: bool):
    """A yes/no command result: JSON true/false, text "true"/"false"."""
    return lambda: result, lambda: str(result).lower(), 0


def _cmd_validate(args):
    report = validate(_load_ladder(args))

    def text():
        flags = ("every_cell_in_minor", "two_connected", "path_connected")
        lines = ["is_ladder: true", "normalized: true"]
        lines += [f"{key}: {str(getattr(report, key)).lower()}" for key in flags]
        lines.append(f"sidedness: {report.sidedness}")
        return "\n".join(lines + [f"note: {msg}" for msg in report.messages])

    return report.to_json_dict, text, 0 if report.two_connected else 1


def _cmd_corners(args):
    prof = corners(_load_ladder(args))
    kinds = {"lower": prof.lower, "upper": prof.upper, "coincidental": prof.coincidental}
    return (
        lambda: {kind: [[r, c] for r, c in cells] for kind, cells in kinds.items()},
        lambda: "\n".join(f"{kind}: {_fmt_cells(cells)}" for kind, cells in kinds.items()),
        0,
    )


def _cmd_decompose(args):
    factorization = decompose(_load_ladder(args))

    def text():
        lines = [f"coincidental: {_fmt_cells(factorization.coincidental)}"]
        for u, (factor, (dr, dc)) in enumerate(zip(factorization.factors, factorization.offsets)):
            lines += [f"factor {u} ({factor.m}x{factor.n}) at offset ({dr},{dc}):", render_ascii(factor)]
        return "\n".join(lines)

    return factorization.to_json_dict, text, 0


def _cmd_classgroup(args):
    from .classgroup import basis, ideal_generators

    ladder = _load_ladder(args)
    gens = {str(l): ideal_generators(ladder, l) for l in basis(ladder)}
    return (
        lambda: {
            "rank": len(gens),
            "basis": list(gens),
            "generators": {name: [[r, c] for r, c in cells] for name, cells in gens.items()},
        },
        lambda: "\n".join([f"rank: {len(gens)}"] + [f"{name}: {_fmt_cells(cells)}" for name, cells in gens.items()]),
        0,
    )


def _cmd_canonical(args):
    from .classgroup import canonical_class

    omega = canonical_class(_load_ladder(args))
    return omega.to_json_dict, lambda: f"omega = {omega}", 0


def _cmd_gorenstein(args):
    from .sdm import is_gorenstein

    return _bool_output(is_gorenstein(_load_ladder(args)))


def _cmd_sdm(args):
    from .sdm import classify

    report = classify(_load_ladder(args))
    if report.count > MAX_SDM_CLASSES:
        # The count is a power of 2, and may have too many digits to print.
        raise LadderError(
            f"2**{report.count.bit_length() - 1} semidualizing classes exceed the output cap of {MAX_SDM_CLASSES}"
        )

    def text():
        omega, images, classes = report._texts()
        lines = [f"rank: {report.rank}", f"omega: {omega}", f"count: {report.count}", "factors:"]
        lines += [
            f"  {u}: {f.m}x{f.n}  gorenstein={str(f.gorenstein).lower()}  omega_image={image}"
            for u, (f, image) in enumerate(zip(report.factors, images))
        ]
        lines.append("classes:")
        lines += [f"  theta={','.join(map(str, theta))}  {cls}" for theta, cls in zip(report._thetas(), classes)]
        return "\n".join(lines)

    return report._json_doc, text, 0


def _cmd_compose(args):
    return _ladder_output(compose(_load_ladders(args)))


def _cmd_antitranspose(args):
    return _ladder_output(antitranspose(_load_ladder(args)))


def _cmd_render(args):
    text = partial(render_ascii, _load_ladder(args), annotate=args.annotate)
    return lambda: {"grid": text().split("\n")}, text, 0


def _cmd_construct2n(args):
    from .sdm import construct_2n

    return _ladder_output(construct_2n(len(args.sizes), args.sizes))


def _cmd_nf(args):
    from .rewrite import normal_form

    ladder = _load_ladder(args)
    mono = _parse_monomial(args.monomial)
    result = normal_form(mono, ladder)
    return result.to_json_dict, lambda: str(result), 0


def _cmd_eq(args):
    from .rewrite import equal_mod_minors

    ladder = _load_ladder(args)
    m1 = _parse_monomial(args.monomial[0])
    m2 = _parse_monomial(args.monomial[1])
    return _bool_output(equal_mod_minors(m1, m2, ladder))


def _cmd_witness(args):
    from .rewrite import verify_witnesses

    report = verify_witnesses(_load_ladder(args))

    def text():
        lines = [
            f"corner: ({report.corner.row},{report.corner.col})",
            f"lambda_top: {report.lam_top}",
            f"lambda_bottom: {report.lam_bottom}",
        ]
        if report.vacuous:
            lines.append("vacuous: no case hypothesis applies")
        return "\n".join(lines + [f"case {case.name}: {'holds' if case.holds else 'FAILS'}" for case in report.cases])

    return report.to_json_dict, text, 0


def _print_warning(message, *_):
    """Show a library warning as one ``warning:`` line, without Python's source header."""
    print(f"warning: {message}", file=sys.stderr)


def _json_pieces(doc):
    """``json.dumps(doc, sort_keys=True, indent=2)`` in pieces; a top-level list
    or iterator (``sdm``'s classes) is encoded a batch of items at a time.

    JSON escapes the newlines in strings, so every newline of an encoded value
    is indentation, which nesting deepens.
    """
    enc = json.JSONEncoder(sort_keys=True, indent=2)
    if not isinstance(doc, dict) or not doc:
        yield enc.encode(doc)
        return
    sep = "{\n"
    for key in sorted(doc):
        value = doc[key]
        yield f"{sep}  {enc.encode(key)}: "
        sep = ",\n"
        if not isinstance(value, (list, Iterator)):
            yield enc.encode(value).replace("\n", "\n  ")
            continue
        items, item_sep = iter(value), "[\n"
        while batch := list(islice(items, 1024)):
            # "[\n  item,\n  item\n]" without its brackets, two levels deeper
            yield item_sep + "    " + enc.encode(batch)[4:-2].replace("\n", "\n  ")
            item_sep = ",\n"
        yield "[]" if item_sep == "[\n" else "\n  ]"
    yield "\n}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            doc, text, code = args.run(args)
            out = doc() if args.json else text()
    except (LadderError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    try:
        if args.json:
            # A large document is never held as one string, and an unbuffered
            # stdout is not written per encoder chunk.
            for piece in _json_pieces(out):
                sys.stdout.write(piece)
            sys.stdout.write("\n")
        else:
            print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone.  Send the rest to devnull so that the flush at
        # interpreter exit does not fail again (the recipe in the Python docs'
        # note on SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
