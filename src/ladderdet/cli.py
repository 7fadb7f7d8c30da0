"""Command-line front end: ladder analysis with JSON or human-readable output.

Exit codes: 0 success, 1 domain/validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classgroup import basis, canonical_class, ideal_generators
from .decompose import decompose
from .ladders import (
    Ladder,
    LadderError,
    antitranspose,
    coincidental_corners,
    compose,
    corners,
    parse_auto,
    render_ascii,
    validate,
)
from .rewrite import (
    MAX_DEGREE_BOUND,
    Monomial,
    RewriteSystem,
    equal_mod_minors,
    normal_form,
    verify_witnesses,
)
from .sdm import classify, construct_2n, is_gorenstein

# The most semidualizing classes `sdm` prints; the count itself is cheap, but
# the output grows as 2^N in the number of non-Gorenstein factors.
MAX_SDM_CLASSES = 2**16


class UsageError(Exception):
    pass


def _read_text(path):
    """The input text, decoded as strict UTF-8 from the file or from stdin."""
    if path is None:
        sys.stdin.reconfigure(encoding="utf-8", errors="strict")
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_ladders(args) -> list[Ladder]:
    paths = args.input if args.input else [None]
    return [parse_auto(_read_text(p)) for p in paths]


def _load_ladder(args) -> Ladder:
    if args.input and len(args.input) != 1:
        raise UsageError("this command takes exactly one --in ladder")
    return _load_ladders(args)[0]


def _parse_monomial(text: str, bound: int) -> Monomial:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers and deep nesting
        raise LadderError(f"malformed monomial JSON: {exc}") from None
    mono = Monomial.from_json_dict(doc)
    if mono.degree > bound:
        raise LadderError(
            f"monomial degree {mono.degree} exceeds --degree-bound {bound}"
        )
    return mono


def _emit_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _fmt_cells(cells) -> str:
    return " ".join(f"({r},{c})" for r, c in cells)


def _degree_bound(value: str) -> int:
    bound = int(value)
    if not 1 <= bound <= MAX_DEGREE_BOUND:
        raise argparse.ArgumentTypeError(
            f"degree bound must be between 1 and {MAX_DEGREE_BOUND}"
        )
    return bound


def _sizes(value: str) -> list[tuple[int, int]]:
    out = []
    for chunk in value.split(","):
        parts = chunk.lower().split("x")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"bad block size {chunk!r}: expected MxN")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad block size {chunk!r}: expected MxN") from None
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladderdet",
        description="Divisor class groups and semidualizing module classes of ladder determinantal rings of 2-minors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, inputs=True, many=False):
        p = sub.add_parser(name, help=help_text)
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

    add("validate", "structural and connectivity diagnostics")
    add("corners", "lower, upper, and coincidental inside corners")
    add("decompose", "factorization at the coincidental inside corners")
    add("classgroup", "class group basis and ideal generators")
    add("canonical", "canonical class in the Q/P basis")
    add("gorenstein", "Gorenstein test")
    add("sdm", "semidualizing module classes")
    add("compose", "glue ladders corner to corner", many=True)
    add("antitranspose", "reflect along the antidiagonal")
    p = add("render", "ASCII grid")
    p.add_argument("--annotate", action="store_true", help="mark corners L/U/C")

    p = add("construct2n", "compose non-square matrix blocks for a 2^N class count", inputs=False)
    p.add_argument("--sizes", required=True, type=_sizes, metavar="M1xN1,M2xN2,...")

    p = add("nf", "normal form of a monomial modulo the 2-minors")
    p.add_argument("monomial", help='monomial JSON, e.g. {"exps": [[1,2,1],[3,3,1]]}')
    p.add_argument("--degree-bound", type=_degree_bound, default=4, metavar="D")

    p = add("eq", "equality of two monomials modulo the 2-minors")
    p.add_argument("monomial", nargs=2, help="two monomial JSON documents")
    p.add_argument("--degree-bound", type=_degree_bound, default=4, metavar="D")

    p = add("witness", "multiplication-map witness identities on a two-matrix glue")
    p.add_argument("--degree-bound", type=_degree_bound, default=4, metavar="D")

    return parser


def _cmd_validate(args) -> int:
    report = validate(_load_ladder(args))
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        for key in (
            "is_ladder",
            "normalized",
            "every_cell_in_minor",
            "two_connected",
            "path_connected",
        ):
            print(f"{key}: {str(getattr(report, key)).lower()}")
        print(f"sidedness: {report.sidedness}")
        for msg in report.messages:
            print(f"note: {msg}")
    return 0 if report.two_connected else 1


def _cmd_corners(args) -> int:
    ladder = _load_ladder(args)
    prof = corners(ladder)
    if args.json:
        _emit_json(
            {
                "lower": [[r, c] for r, c in prof.lower],
                "upper": [[r, c] for r, c in prof.upper],
                "coincidental": [[r, c] for r, c in prof.coincidental],
            }
        )
    else:
        print(f"lower: {_fmt_cells(prof.lower)}")
        print(f"upper: {_fmt_cells(prof.upper)}")
        print(f"coincidental: {_fmt_cells(prof.coincidental)}")
    return 0


def _cmd_decompose(args) -> int:
    factorization = decompose(_load_ladder(args))
    if args.json:
        _emit_json(factorization.to_json_dict())
    else:
        print(f"coincidental: {_fmt_cells(factorization.coincidental)}")
        for u, (factor, (dr, dc)) in enumerate(zip(factorization.factors, factorization.offsets)):
            print(f"factor {u} ({factor.m}x{factor.n}) at offset ({dr},{dc}):")
            print(render_ascii(factor))
    return 0


def _cmd_classgroup(args) -> int:
    ladder = _load_ladder(args)
    labels = basis(ladder)
    gens = {str(l): sorted(ideal_generators(ladder, l)) for l in labels}
    if args.json:
        _emit_json(
            {
                "rank": len(labels),
                "basis": [str(l) for l in labels],
                "generators": {name: [[r, c] for r, c in cells] for name, cells in gens.items()},
            }
        )
    else:
        print(f"rank: {len(labels)}")
        for l in labels:
            print(f"{l}: {_fmt_cells(gens[str(l)])}")
    return 0


def _cmd_canonical(args) -> int:
    omega = canonical_class(_load_ladder(args))
    if args.json:
        _emit_json(omega.to_json_dict())
    else:
        print(f"omega = {omega}")
    return 0


def _cmd_gorenstein(args) -> int:
    result = is_gorenstein(_load_ladder(args))
    if args.json:
        _emit_json(result)
    else:
        print(str(result).lower())
    return 0


def _cmd_sdm(args) -> int:
    report = classify(_load_ladder(args))
    if report.count > MAX_SDM_CLASSES:
        raise LadderError(
            f"{report.count} semidualizing classes exceed the output cap of {MAX_SDM_CLASSES}"
        )
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        print(f"rank: {report.rank}")
        print(f"omega: {report.omega}")
        print(f"count: {report.count}")
        print("factors:")
        for u, f in enumerate(report.factors):
            print(
                f"  {u}: {f.m}x{f.n}  gorenstein={str(f.gorenstein).lower()}  "
                f"omega_image={f.omega_image}"
            )
        print("classes:")
        for theta, cls in zip(report.theta_vectors, report.classes):
            print(f"  theta={','.join(map(str, theta))}  {cls}")
    return 0


def _cmd_compose(args) -> int:
    result = compose(_load_ladders(args))
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        print(render_ascii(result))
    return 0


def _cmd_antitranspose(args) -> int:
    result = antitranspose(_load_ladder(args))
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        print(render_ascii(result))
    return 0


def _cmd_render(args) -> int:
    text = render_ascii(_load_ladder(args), annotate=args.annotate)
    if args.json:
        _emit_json({"grid": text.split("\n")})
    else:
        print(text)
    return 0


def _cmd_construct2n(args) -> int:
    result = construct_2n(len(args.sizes), args.sizes)
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        print(render_ascii(result))
    return 0


def _cmd_nf(args) -> int:
    ladder = _load_ladder(args)
    mono = _parse_monomial(args.monomial, args.degree_bound)
    result = normal_form(mono, RewriteSystem(ladder))
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        print(str(result))
    return 0


def _cmd_eq(args) -> int:
    ladder = _load_ladder(args)
    m1 = _parse_monomial(args.monomial[0], args.degree_bound)
    m2 = _parse_monomial(args.monomial[1], args.degree_bound)
    result = equal_mod_minors(m1, m2, RewriteSystem(ladder))
    if args.json:
        _emit_json(result)
    else:
        print(str(result).lower())
    return 0


def _cmd_witness(args) -> int:
    ladder = _load_ladder(args)
    report = verify_witnesses(ladder)
    identity_degree = 2 * max(abs(report.lam_top), abs(report.lam_bottom)) + 1
    if not report.vacuous and identity_degree > args.degree_bound:
        raise LadderError(
            f"witness identities have degree {identity_degree}; raise --degree-bound"
        )
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        print(f"corner: ({report.corner.row},{report.corner.col})")
        print(f"lambda_top: {report.lam_top}")
        print(f"lambda_bottom: {report.lam_bottom}")
        if report.vacuous:
            print("vacuous: no case hypothesis applies")
        for case in report.cases:
            print(f"case {case.name}: {'holds' if case.holds else 'FAILS'}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "corners": _cmd_corners,
    "decompose": _cmd_decompose,
    "classgroup": _cmd_classgroup,
    "canonical": _cmd_canonical,
    "gorenstein": _cmd_gorenstein,
    "sdm": _cmd_sdm,
    "compose": _cmd_compose,
    "antitranspose": _cmd_antitranspose,
    "render": _cmd_render,
    "construct2n": _cmd_construct2n,
    "nf": _cmd_nf,
    "eq": _cmd_eq,
    "witness": _cmd_witness,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except LadderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
