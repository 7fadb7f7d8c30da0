"""The benchmark workloads: seeded inputs, one operation, and its check.

Every workload hands the library generated text only, runs in one process
with one caller (a closed loop), and produces its inputs in cycles with a
fixed mix, so the figures of two seeds compare.  ``run`` is the timed
operation; ``check`` compares its result with ``oracle``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys

import gen
import oracle
import spans


def _labels(cells):
    lower, upper = oracle.naive_corners(cells)
    return [("Q", i) for i in range(1, len(lower) + 2)] + [("P", j) for j in range(1, len(upper) + 1)]


def _parse(lib, tr, inp):
    if inp["text"].lstrip().startswith("{"):
        return tr.call("ladders.parse_json", lib.parse_json, inp["text"])
    return tr.call("ladders.parse_ascii", lib.parse_ascii, inp["text"])


def _distinct_classes(classes):
    return len({json.dumps(c.to_json_dict(), sort_keys=True) for c in classes})


class InProcess:
    """A workload that calls the library in this process."""

    clock = staticmethod(spans.CLOCK)

    def __init__(self, seed):
        self.lib = importlib.import_module("ladderdet")
        self.rng = random.Random(seed)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Corpus(InProcess):
    """A stream of fresh small ladders, each analysed once in full.

    No ladder repeats, warm-up included, because ``validate`` and
    ``corners`` cache on the cell set.
    """

    name = "corpus"
    cycles_per_s = 3.0  # nominal rate when the benchmark was defined; sizes the traced phase
    rss_cycles = 20

    def __init__(self, seed):
        super().__init__(seed)
        self.distinct = gen.Distinct()

    def warm_up(self, tr):
        for _ in range(20):
            self.run(gen.corpus_ladder(self.rng, self.distinct), tr)

    def make_cycle(self):
        return [gen.corpus_ladder(self.rng, self.distinct) for _ in range(100)]

    def run(self, inp, tr):
        lib = self.lib
        ladder = _parse(lib, tr, inp)
        report = tr.call("ladders.validate", lib.validate, ladder)
        prof = tr.call("ladders.corners", lib.corners, ladder)
        factorization = tr.call("decompose.decompose", lib.decompose, ladder)
        labels = tr.call("classgroup.basis", lib.basis, ladder)
        gens = [tr.call("classgroup.ideal_generators", lib.ideal_generators, ladder, label) for label in labels]
        omega = tr.call("classgroup.canonical_class", lib.canonical_class, ladder)
        sdm = tr.call("sdm.classify", lib.classify, ladder)
        classes = list(sdm.classes)
        tr.count("ladders.cells", len(ladder))
        tr.count("decompose.factors", len(factorization.factors))
        tr.count("classgroup.rank", len(labels))
        tr.count("sdm.classes", len(classes))
        return report, prof, factorization, labels, gens, omega, sdm, classes

    def check(self, inp, out):
        report, prof, factorization, labels, gens, omega, sdm, classes = out
        cells = inp["cells"]
        lower, upper = oracle.naive_corners(cells)
        return (
            list(map(tuple, prof.lower)) == lower
            and list(map(tuple, prof.upper)) == upper
            and report.two_connected
            and report.sidedness == oracle.sidedness(cells, lower, upper)
            and len(factorization.factors) == inp["factors"]
            and [(label.kind, label.index) for label in labels] == _labels(cells)
            and all(set(map(tuple, g)) == oracle.ideal_generators(cells, label.kind, label.index)
                    for g, label in zip(gens, labels))
            and omega.to_json_dict() == oracle.canonical_class(cells)
            and sdm.count == inp["count"] == len(classes) == _distinct_classes(classes)
            and sdm.rank == len(lower) + len(upper) + 1
        )


def _size_stream(rng, work):
    """Fresh m x n sizes, aspect at most 2, with closure work within 10% of ``work``, then 20%, ..."""
    window = 0.0
    while True:
        pool = [
            (m, n)
            for m in range(2, 200)
            for n in range((m + 1) // 2, 2 * m + 1)
            if window <= abs(m * (m - 1) / 2 * n / work - 1) < window + 0.1
        ]
        rng.shuffle(pool)
        yield from pool
        window += 0.1


class Scale(InProcess):
    """Few large fresh inputs: full matrices, large staircases and 2^N constructions.

    One op is parse (or ``construct_2n``), ``validate`` and ``classify``;
    the closure check, ``validate`` and the 2^N class enumeration dominate.
    """

    name = "scale"
    cycles_per_s = 0.6
    rss_cycles = 5
    # Fresh inputs must not repeat, so sizes vary from cycle to cycle; each
    # slot holds its closure work (gen.closure_work) near a target instead,
    # which keeps the cost of a cycle nearly the same for every seed.
    # Slots: ("full", work), ("stair", (side range, lower, upper, work)), ("2n", N).
    SLOTS = (
        ("full", 24000),
        ("full", 12000),
        ("stair", (40, 48, True, False, 24000)),
        ("stair", (36, 46, False, True, 20000)),
        ("stair", (64, 74, True, True, 25000)),
        ("2n", 9),
        ("2n", 10),
        ("2n", 11),
        ("2n", 12),
        ("2n", 12),  # two of ten ops, so p90 falls inside this group, not at its edge
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.distinct = gen.Distinct()
        self.full_sizes = [_size_stream(self.rng, work) for kind, work in self.SLOTS if kind == "full"]

    def warm_up(self, tr):
        for inp in (self._full(8, 9), self._stair(12, 12, True, True, None), self._construct(3)):
            self.run(inp, tr)

    def _full(self, m, n):
        rows = gen.full_rows(m, n)
        self.distinct.fresh(rows)
        return {"kind": "full", "text": gen.to_text(rows, self.rng), "cells": gen.cells_of(rows)}

    def _stair(self, m, n, lower, upper, work):
        for tries in itertools.count():
            rows = gen.random_rows(self.rng, m, n, lower, upper)
            near = work is None or tries > 1000 or abs(gen.closure_work(rows) / work - 1) < 0.1
            if near and self.distinct.fresh(rows):
                return {"kind": "stair", "text": gen.to_text(rows, self.rng), "cells": gen.cells_of(rows)}

    def _construct(self, n_blocks):
        blocks = [(2, 3), (3, 2)]  # one block shape per side keeps the cost a function of N
        while True:
            sizes = [self.rng.choice(blocks) for _ in range(n_blocks)]
            if self.distinct.fresh(sizes):
                return {"kind": "2n", "text": json.dumps({"sizes": sizes}), "n": n_blocks}

    def make_cycle(self):
        out = []
        fulls = iter(self.full_sizes)
        for kind, arg in self.SLOTS:
            if kind == "full":
                out.append(self._full(*next(next(fulls))))
            elif kind == "stair":
                lo, hi, lower, upper, work = arg
                out.append(self._stair(self.rng.randint(lo, hi), self.rng.randint(lo, hi), lower, upper, work))
            else:
                out.append(self._construct(arg))
        return out

    def run(self, inp, tr):
        lib = self.lib
        if inp["kind"] == "2n":
            sizes = [tuple(s) for s in json.loads(inp["text"])["sizes"]]
            ladder = tr.call("sdm.construct_2n", lib.construct_2n, len(sizes), sizes)
        else:
            ladder = _parse(lib, tr, inp)
        report = tr.call("ladders.validate", lib.validate, ladder)
        sdm = tr.call("sdm.classify", lib.classify, ladder)
        classes = list(sdm.classes)
        tr.count("ladders.cells", len(ladder))
        tr.count("sdm.classes", len(classes))
        return report, sdm, classes

    def check(self, inp, out):
        report, sdm, classes = out
        if not (report.two_connected and len(classes) == sdm.count == _distinct_classes(classes)):
            return False
        if inp["kind"] == "2n":
            return sdm.count == 2 ** inp["n"]
        cells = inp["cells"]
        lower, upper = oracle.naive_corners(cells)
        if inp["kind"] == "full":
            m, n = oracle.extent(cells)
            sidedness, count = "matrix", 1 if m == n else 2
        else:
            sidedness, count = oracle.sidedness(cells, lower, upper), 1 if oracle.is_gorenstein(cells) else 2
        return report.sidedness == sidedness and sdm.count == count and sdm.rank == len(lower) + len(upper) + 1


WORKED_L3_INTERSECTION = [[[3, 1, 1]], [[3, 2, 1]]]  # q11 and p10 at d = 2: x(3,1), x(3,2)


class Monomials(InProcess):
    """Many monomial queries over a few fixed ladders, reused every cycle."""

    name = "monomial"
    cycles_per_s = 3.0
    rss_cycles = 10
    # (query, ladder, degree); "ix" slots are (query, ladder, labels or None, d).
    SLOTS = (
        ("nf", "L1", 8), ("nf", "L2", 16), ("nf", "L3", 24), ("nf", "F8", 16), ("nf", "F8", 32),
        ("nf", "F20", 8), ("nf", "F20", 24), ("nf", "F30", 16), ("nf", "F30", 40), ("nf", "G", 32),
        ("eq", "L1", 12), ("eq", "L2", 40), ("eq", "F8", 24), ("eq", "F20", 32), ("eq", "F30", 24),
        ("eq", "G", 16),
        ("ix", "L3", (("Q", 2), ("P", 1)), 2), ("ix", "L3", None, 3), ("ix", "L1", None, 2),
        ("ix", "L2", None, 2),
        ("witness",), ("witness",),
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.ladders = {
            "L1": gen.rows_of_ascii(gen.L1_ASCII),
            "L2": gen.rows_of_ascii(gen.L2_ASCII),
            "L3": gen.rows_of_ascii(gen.L3_ASCII),
            "F8": gen.full_rows(8, 8),
            "F20": gen.full_rows(20, 20),
            "F30": gen.full_rows(30, 30),
            "G": gen.glue([gen.full_rows(6, 4), gen.full_rows(7, 5)]),
        }
        self.cells = {name: gen.cells_of(rows) for name, rows in self.ladders.items()}
        self.expected_ix = {}

    def warm_up(self, tr):
        for name in self.ladders:
            self.run(self._query("nf", name, 4), tr)
        self.run(self._witness(), tr)

    def _text(self, name):
        return gen.to_text(self.ladders[name], self.rng)

    def _query(self, kind, name, degree):
        cells = self.cells[name]
        exps = gen.random_monomial(self.rng, cells, degree)
        inp = {"kind": kind, "ladder": self._text(name), "monomials": [gen.mono_json(exps)]}
        if kind == "eq":
            other = gen.partner(self.rng, cells, exps)
            inp["monomials"].append(gen.mono_json(other))
            inp["expected"] = oracle.equal_mod_minors(exps, other)
        else:
            inp["expected"] = oracle.normal_form(exps)
        return inp

    def _intersection(self, name, labels, d):
        cells = self.cells[name]
        if labels is None:
            labels = tuple(self.rng.sample(_labels(cells), 2))
        gens = [sorted(oracle.ideal_generators(cells, *label)) for label in labels]
        key = (name, labels, d)
        if key not in self.expected_ix:
            self.expected_ix[key] = oracle.intersect_bounded(cells, gens[0], gens[1], d)
        expected = self.expected_ix[key]
        if (name, labels, d) == ("L3", (("Q", 2), ("P", 1)), 2) and expected != WORKED_L3_INTERSECTION:
            raise AssertionError("the reference lost the paper's worked intersection")
        return {"kind": "ix", "ladder": self._text(name), "gens": gens, "d": d, "expected": expected}

    def _witness(self):
        lam = self.rng.randint(1, 3)
        n2 = self.rng.randint(2, 4)
        if self.rng.random() < 0.5:
            n1 = self.rng.randint(2, 4)
            m1, case = n1 + lam, "equal-sign"
        else:
            m1 = self.rng.randint(2, 4)
            n1, case = m1 + lam, "opposite-sign"
        rows = gen.glue([gen.full_rows(m1, n1), gen.full_rows(n2 + lam, n2)])
        expected = {"corner": [m1, n2], "lam": [m1 - n1, lam], "cases": [[case, True]]}
        return {"kind": "witness", "ladder": gen.to_text(rows, self.rng), "expected": expected}

    def make_cycle(self):
        out = []
        for slot in self.SLOTS:
            if slot[0] == "ix":
                out.append(self._intersection(*slot[1:]))
            elif slot[0] == "witness":
                out.append(self._witness())
            else:
                out.append(self._query(*slot))
        for inp in out:
            parts = [inp["ladder"], *inp.get("monomials", [])]
            if "gens" in inp:
                parts.append(json.dumps(inp["gens"]))
            inp["text"] = "\n".join(parts)
        return out

    def run(self, inp, tr):
        lib = self.lib
        ladder = _parse(lib, tr, {"text": inp["ladder"]})
        tr.call("ladders.validate", lib.validate, ladder)
        if inp["kind"] == "witness":
            return tr.call("rewrite.verify_witnesses", lib.verify_witnesses, ladder)
        system = tr.call("rewrite.RewriteSystem", lib.RewriteSystem, ladder)
        if inp["kind"] == "ix":
            gens = [[tuple(p) for p in g] for g in inp["gens"]]
            members = tr.call("rewrite.intersect_bounded", lib.intersect_bounded, gens[0], gens[1], inp["d"], system)
            tr.count("rewrite.ideal_members", len(members))
            return members
        monos = [tr.call("rewrite.from_json_dict", lib.Monomial.from_json_dict, json.loads(t)) for t in inp["monomials"]]
        tr.count("rewrite.degree", sum(m.degree for m in monos))
        if inp["kind"] == "eq":
            return tr.call("rewrite.equal_mod_minors", lib.equal_mod_minors, monos[0], monos[1], system)
        return tr.call("rewrite.normal_form", lib.normal_form, monos[0], system)

    def check(self, inp, out):
        expected = inp["expected"]
        if inp["kind"] == "witness":
            return (
                [out.corner.row, out.corner.col] == expected["corner"]
                and [out.lam_top, out.lam_bottom] == expected["lam"]
                and [[c.name, c.holds] for c in out.cases] == expected["cases"]
            )
        if inp["kind"] == "ix":
            return sorted(m.to_json_dict()["exps"] for m in out) == expected
        if inp["kind"] == "eq":
            return out is expected
        return out.to_json_dict()["exps"] == expected


# The child reports its own peak RSS when it exits.  Its ru_maxrss would
# not do: a forked child's maximum also counts the parent it was forked from.
CLI_MAIN = """
import atexit, sys
def report_peak_rss():
    with open("/proc/self/status") as status:
        sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
atexit.register(report_peak_rss)
from ladderdet.cli import entry
entry()
"""
CLI_WORKED = {  # the paper's worked examples
    "L1": {"count": 2, "coincidental": []},
    "L2": {"count": 1, "coincidental": []},
    "L3": {"count": 4, "omega": {"Q": {"1": 1, "2": 1}, "P": {"1": 1}}, "coincidental": [[3, 2]]},
}


class Cli:
    """Sequential ``ladderdet`` subprocesses with ``--json``: the ``cli`` layer.

    Each op is one whole process on L1, L2 or L3, given as JSON or ASCII on
    stdin: interpreter start, importing ``ladderdet.cli``, parsing, the
    command and JSON output.  Its time is the CPU time of the child plus
    that of this process spawning it and reading its output.  Every traced
    run also measures one cycle of it.

    These all cost about the same, so p90 would sit in the tail that
    process start-up noise makes.  Each cycle therefore also validates a
    full 40 x 40 matrix ``HEAVY`` times, and p90 falls inside that group.
    """

    name = "cli"
    clock = staticmethod(spans.tree_clock)
    cycles_per_s = 0.35
    HEAVY = 4  # of 22 ops: p90 is near the median of this group
    rss_cycles = 0  # children do not accumulate: report the largest
    COMMANDS = ("sdm", "canonical", "decompose", "validate", "nf", "eq")

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.ladders = {
            "L1": gen.rows_of_ascii(gen.L1_ASCII),
            "L2": gen.rows_of_ascii(gen.L2_ASCII),
            "L3": gen.rows_of_ascii(gen.L3_ASCII),
            "F40": gen.full_rows(40, 40),
        }
        self.max_child_rss_mb = 0.0
        # Children inherit this CPU, so the reference kernel, which runs in
        # this process, measures the speed of the CPU they run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def child(self, argv, stdin_text):
        """Run one child to completion; returns (exit code, stdout)."""
        proc = subprocess.run(
            [sys.executable] + argv, input=stdin_text, capture_output=True, text=True,
            cwd=self.root, env=self.env, timeout=60,
        )
        for line in proc.stderr.splitlines():
            if line.startswith("VmHWM:"):
                self.max_child_rss_mb = max(self.max_child_rss_mb, int(line.split()[1]) / 1024)
        return proc.returncode, proc.stdout

    def warm_up(self, tr):
        self.run(self._input("sdm", "L3"), tr)

    def _input(self, command, name):
        rows = self.ladders[name]
        cells = gen.cells_of(rows)
        args = [command, "--json"]
        if command in ("nf", "eq"):
            exps = gen.random_monomial(self.rng, cells, self.rng.randint(2, 4))
            args.append(gen.mono_json(exps))
        if command == "eq":
            args.append(gen.mono_json(gen.partner(self.rng, cells, exps)))
        ladder = gen.to_text(rows, self.rng)
        return {"command": command, "name": name, "args": args, "ladder": ladder, "cells": cells,
                "text": "\n".join(args + [ladder])}

    def make_cycle(self):
        light = [self._input(command, name) for name in ("L1", "L2", "L3") for command in self.COMMANDS]
        return light + [self._input("validate", "F40") for _ in range(self.HEAVY)]

    def run(self, inp, tr):
        argv = ["-c", CLI_MAIN] + inp["args"]
        return tr.call(f"cli.{inp['command']}", self.child, argv, inp["ladder"])

    def check(self, inp, out):
        code, stdout = out
        if code != 0:
            return False
        doc = json.loads(stdout)
        command, cells = inp["command"], inp["cells"]
        lower, upper = oracle.naive_corners(cells)
        coincidental = sorted(set(lower) & set(upper))
        worked = CLI_WORKED.get(inp["name"], {})
        omega = oracle.canonical_class(cells)
        if command == "sdm":
            return (
                doc["count"] == worked["count"] == len(doc["classes"])
                and doc["rank"] == len(lower) + len(upper) + 1
                and doc["omega"] == omega == worked.get("omega", omega)
            )
        if command == "canonical":
            return doc == omega == worked.get("omega", omega)
        if command == "decompose":
            return (
                doc["coincidental"] == [list(p) for p in coincidental] == worked["coincidental"]
                and len(doc["factors"]) == len(coincidental) + 1
            )
        if command == "validate":
            return doc["two_connected"] and doc["sidedness"] == oracle.sidedness(cells, lower, upper)
        exps = [json.loads(a)["exps"] for a in inp["args"][2:]]
        if command == "nf":
            return doc["exps"] == oracle.normal_form(exps[0])
        return doc is oracle.equal_mod_minors(exps[0], exps[1])

    def peak_rss_mb(self):
        return self.max_child_rss_mb

    def layer_extras(self, repeats=7):
        """``cli.interpreter_ms`` (bare ``-c pass``), ``cli.import_ms`` (import minus bare), and peak RSS."""
        def median_ms(argv):
            times = []
            for _ in range(repeats):
                start = spans.tree_clock()
                self.child(argv, "")
                times.append(spans.tree_clock() - start)
            return sorted(times)[repeats // 2] * 1000

        bare = median_ms(["-c", "pass"])
        imported = median_ms(["-c", "import ladderdet.cli"])
        return {"cli.interpreter_ms": bare, "cli.import_ms": imported - bare, "cli.peak_rss_mb": self.max_child_rss_mb}


WORKLOADS = {w.name: w for w in (Corpus, Scale, Monomials, Cli)}
