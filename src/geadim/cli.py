"""Command-line interface: .gea document parsing and report commands.

Document grammar (line oriented, ``#`` comments, identifiers
``[A-Za-z0-9_]+``)::

    elements: 0 a b 1
    zero: 0
    sum: a + b = 1
    relation merge: {a b}

Exit codes: 0 success / property holds, 1 violation or counterexample
found, 2 input error.  ``--json`` switches every command to a stable
machine-readable schema {command, inputs, results, witnesses, text}, where
``text`` is the report printed without ``--json``.
"""

import argparse
import contextlib
import json
import re
import sys

from . import catalog, congruence as cg, core, dimension as dm, theorems
from . import hull as hull_mod
from .errors import (
    AxiomViolation,
    ConflictingEquation,
    GeadimError,
    ParseError,
    UnknownElement,
)
from .exocenter import center, exocenter

_IDENT = re.compile(r"^[A-Za-z0-9_]+$")
_SUM_RE = re.compile(
    r"^\s*(?P<a>[A-Za-z0-9_]+)\s*\+\s*(?P<b>[A-Za-z0-9_]+)\s*=\s*(?P<c>[A-Za-z0-9_]+)\s*$"
)


def parse_gea_file(text):
    """Parse a .gea document into its model and its relations by name,
    ``(E, relations)``; raises ParseError / ConflictingEquation /
    UnknownElement with positions, and AxiomViolation for a model that
    fails an axiom."""
    elements = None
    zero = None
    equations = []
    pairs = {}
    relations = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        col = len(line) - len(line.lstrip()) + 1
        head, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(lineno, col, "expected 'directive: ...'")
        head = head.strip()
        if not head:
            raise ParseError(lineno, col, "empty directive")
        if head == "elements":
            if elements is not None:
                raise ParseError(lineno, col, "repeated 'elements:' line")
            names = rest.split()
            if not names:
                raise ParseError(lineno, col, "empty element list")
            for name in names:
                if not _IDENT.match(name):
                    raise ParseError(lineno, col, f"bad identifier {name!r}")
            if len(set(names)) != len(names):
                raise ParseError(lineno, col, "duplicate element names")
            if len(names) > core.MAX_ELEMENTS:
                raise ParseError(
                    lineno, col, f"more than {core.MAX_ELEMENTS} elements"
                )
            elements = names
        elif head == "zero":
            if zero is not None:
                raise ParseError(lineno, col, "repeated 'zero:' line")
            zero = rest.strip()
            if not _IDENT.match(zero):
                raise ParseError(lineno, col, f"bad identifier {zero!r}")
        elif head == "sum":
            m = _SUM_RE.match(rest)
            if not m:
                raise ParseError(lineno, col, "expected 'sum: a + b = c'")
            a, b, c = m.group("a"), m.group("b"), m.group("c")
            if elements is None:
                raise ParseError(lineno, col, "'elements:' must come first")
            for x in (a, b, c):
                if x not in elements:
                    raise UnknownElement(f"line {lineno}: {x!r}")
            key = tuple(sorted((a, b)))
            if key in pairs and pairs[key] != c:
                raise ConflictingEquation(
                    f"line {lineno}: {a} + {b} already equals {pairs[key]}"
                )
            pairs[key] = c
            equations.append((a, b, c))
        elif head.split(None, 1)[0] == "relation":
            name = head[len("relation"):].strip()
            if not _IDENT.match(name):
                raise ParseError(lineno, col, f"bad relation name {name!r}")
            if name in relations:
                raise ParseError(lineno, col, f"repeated 'relation {name}:' line")
            if elements is None:
                raise ParseError(lineno, col, "'elements:' must come first")
            classes = []
            for group in re.findall(r"\{([^{}]*)\}", rest):
                members = group.split()
                for x in members:
                    if x not in elements:
                        raise UnknownElement(f"line {lineno}: {x!r}")
                if members:
                    classes.append(members)
            stripped = re.sub(r"\{[^{}]*\}", "", rest).strip()
            if stripped:
                raise ParseError(lineno, col, f"unexpected text {stripped!r}")
            relations[name] = classes
        else:
            raise ParseError(lineno, col, f"unknown directive {head!r}")
    if elements is None:
        raise ParseError(0, 0, "missing 'elements:' line")
    if zero is None:
        raise ParseError(0, 0, "missing 'zero:' line")
    if zero not in elements:
        raise ParseError(0, 0, f"zero {zero!r} is not an element")
    E = core.build_gea(elements, zero, equations)
    return E, {name: cg.build_equiv(E, classes)
               for name, classes in relations.items()}


# ---------------------------------------------------------------------------
# reports
#
# Each command returns its exit code with the ``inputs``, ``results``,
# ``witnesses`` and ``text`` of its report; ``run_command`` writes the text
# or the JSON envelope.
# ---------------------------------------------------------------------------

def _load(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, exc.start - line_start + 1,
                         "not valid UTF-8") from None
    return parse_gea_file(text)


def _load_relation(args):
    """The model of ``args.file`` and its relation ``args.relation``."""
    E, rels = _load(args.file)
    if args.relation not in rels:
        known = ", ".join(sorted(rels)) or "none"
        raise GeadimError(f"unknown relation {args.relation!r} (known: {known})")
    return E, rels[args.relation]


def _map_repr(E, m):
    return {E.names[e]: E.names[m[e]] for e in range(E.n)}


def cmd_check(args):
    inputs = {"file": args.file}
    try:
        E, rels = _load(args.file)
    except AxiomViolation as exc:
        return (1, inputs, {"valid": False, "axiom": exc.axiom},
                [list(exc.witness)],
                f"INVALID: {exc.axiom} fails at {exc.witness}")
    flags = core.structure_predicates(E)
    results = {
        "valid": True,
        "elements": list(E.names),
        "directed": flags.directed,
        "orthogonally_ordered": flags.orthogonally_ordered,
        "is_ea": None if flags.is_ea is None else E.names[flags.is_ea],
        "lattice": flags.lattice,
        "atoms": [E.names[a] for a in E.atoms],
        "relations": sorted(rels),
    }
    text = [f"valid model with {E.n} elements"]
    for k in ("directed", "orthogonally_ordered", "is_ea", "lattice"):
        text.append(f"  {k}: {results[k]}")
    return 0, inputs, results, [], "\n".join(text)


def cmd_exocenter(args):
    E, _ = _load(args.file)
    S = exocenter(E)
    cen = center(E)
    results = {
        "size": len(S),
        "maps": [_map_repr(E, m) for m in S],
        "center": [E.names[c] for c, _ in cen],
        "irreducible": len(S) == 2 or E.n == 1,
    }
    text = [f"exocenter has {len(S)} maps; center = {{{', '.join(results['center'])}}}"]
    for m in S:
        text.append("  " + " ".join(f"{E.names[e]}->{E.names[m[e]]}" for e in range(E.n)))
    return 0, {"file": args.file}, results, [], "\n".join(text)


def _sk_payload(R):
    """The relation's ``dm.Dgea``, None when it is no congruence; the
    verdict on each axiom by name, SK4a' last and unchecked without a
    Dgea; and the failing verdicts in that order, as report witnesses."""
    report = cg.check_sk(R)
    d = dm.Dgea(R) if report.sk else None
    axioms = {name: _verdict(R.E, w) for name, w in zip(cg.AXES, report)}
    axioms["SK4a'"] = (
        {"holds": None, "witness": None} if d is None
        else _verdict(R.E, d.sk4a_prime)
    )
    failing = [
        {"axiom": name, "witness": rec["witness"]}
        for name, rec in axioms.items()
        if rec["holds"] is False
    ]
    return d, axioms, failing


def _cross_check(d, scopes):
    """Run every non-review property of the scopes ``scopes`` on the
    ``Dgea`` ``d``; returns their names, their ``{property, detail}``
    witnesses and the report lines naming both."""
    checks = [p for p in theorems.REGISTRY.values()
              if p.scope in scopes and not p.review_only]
    witnesses = [
        {"property": p.name, "detail": detail}
        for p in checks
        for detail in theorems.run_property(p, d)
    ]
    lines = [f"cross-checked: {', '.join(p.name for p in checks)}"]
    lines += [f"  VIOLATION {w['property']}: {w['detail']}" for w in witnesses]
    return [p.name for p in checks], witnesses, lines


def _verdict(E, witness):
    return {
        "holds": witness is None,
        "witness": None if witness is None else [E.names[w] for w in witness],
    }


def cmd_sk(args):
    E, R = _load_relation(args)
    d, axioms, failing = _sk_payload(R)
    checks, witnesses, check_lines = (
        ([], [], []) if d is None else _cross_check(d, ("relation",))
    )
    results = {
        "relation": args.relation,
        "classes": [[E.names[e] for e in c] for c in R.classes],
        "axioms": axioms,
        "sk": d is not None,
        "der": None if d is None else d.der,
        "cross_checks": checks,
    }
    lines = [f"relation {args.relation}: congruence={d is not None}"]
    for name, rec in axioms.items():
        state = "?" if rec["holds"] is None else ("ok" if rec["holds"] else f"FAILS {rec['witness']}")
        lines.append(f"  {name}: {state}")
    if d is not None:
        lines.append(f"  dimension relation: {d.der}")
    lines += check_lines
    inputs = {"file": args.file, "relation": args.relation}
    code = 1 if d is None or witnesses else 0
    return code, inputs, results, failing + witnesses, "\n".join(lines)


def cmd_hull(args):
    E, R = _load_relation(args)
    d, _, failing = _sk_payload(R)
    inputs = {"file": args.file, "relation": args.relation}
    if d is None:
        name, witness = failing[0]["axiom"], failing[0]["witness"]
        return (1, inputs, {"sk": False, "failed_axiom": name}, failing[:1],
                f"not a congruence: {name} fails at {tuple(witness)}")
    sigma, H = d.sigma, d.hull
    checks, witnesses, check_lines = _cross_check(d, ("relation",))
    results = {
        "relation": args.relation,
        "splitting_maps": [_map_repr(E, m) for m in sigma],
        "hull": {E.names[e]: _map_repr(E, H.maps[e]) for e in range(E.n)},
        "divisible": hull_mod.is_divisible(H),
        "cross_checks": checks,
    }
    lines = [
        f"splitting algebra has {len(sigma)} maps; hull system "
        f"(divisible={results['divisible']}):"
    ]
    for e in range(E.n):
        img = " ".join(f"{E.names[x]}->{E.names[H.maps[e][x]]}" for x in range(E.n))
        lines.append(f"  eta[{E.names[e]}]: {img}")
    lines += check_lines
    return (1 if witnesses else 0), inputs, results, witnesses, "\n".join(lines)


def cmd_decompose(args):
    E, R = _load_relation(args)
    d, _, failing = _sk_payload(R)
    inputs = {"file": args.file, "relation": args.relation}
    if d is None or not d.der:
        name = failing[0]["axiom"]
        return (1, inputs, {"der": False, "failed_axiom": name}, failing[:1],
                f"not a dimension relation: {name} fails")
    dec = d.decomposition
    type_label = dec.type_verdict
    if dec.type_verdict in ("I", "II") and dec.finite_type:
        type_label = dec.type_verdict + "_F"
    checks, witnesses, check_lines = _cross_check(d, ("relation", "der"))
    results = {
        "relation": args.relation,
        "type": type_label,
        "finite_type": dec.finite_type,
        "properly_non_finite": dec.properly_non_finite,
        "unit": None if dec.unit is None else E.names[dec.unit],
        "f_tilde": E.names[dec.f_tilde],
        "projections": {
            name: [E.names[e] for e in summand]
            for name, summand in sorted(dec.summands.items())
        },
        "cross_checks": checks,
    }
    lines = [f"type {type_label}; largest finite invariant element {results['f_tilde']}"]
    if dec.unit is not None:
        lines.append(f"finite type with unit {E.names[dec.unit]}")
    for name in ("I", "II", "III"):
        lines.append(f"  summand {name}: {{{', '.join(results['projections'][name])}}}")
    lines += check_lines
    return (1 if witnesses else 0), inputs, results, witnesses, "\n".join(lines)


def cmd_catalog(args):
    count = catalog.write_catalog(args.out, args.max_size)
    return (0, {"max_size": args.max_size, "out": args.out}, {"models": count},
            [], f"wrote {count} models up to size {args.max_size} to {args.out}")


def cmd_verify(args):
    theorems_list = None if args.theorems is None else args.theorems.split(",")
    if theorems_list is not None and "" in theorems_list:
        raise GeadimError(f"--theorems has an empty name: {args.theorems!r}")
    results = theorems.run_theorem_suite(
        args.max_size, theorems=theorems_list, jobs=args.jobs, invert=args.invert
    )
    inputs = {
        "max_size": args.max_size,
        "theorems": sorted(theorems_list) if theorems_list else "all",
        "invert": args.invert,
    }
    witnesses = [v for p in results["properties"].values() for v in p["violations"]]
    return (0 if results["status"] == "ok" else 1, inputs, results, witnesses,
            theorems.suite_text(args.max_size, results))


def cmd_search(args):
    hit = catalog.search_counterexample(args.property, args.max_size)
    results = {
        "property": args.property,
        "max_size": args.max_size,
        "found": hit is not None,
        "witness": hit,
    }
    text = (
        f"counterexample search '{args.property}' up to size {args.max_size}: "
        + (f"witness in model {hit['key']}" if hit else "exhausted, none found")
    )
    inputs = {"property": args.property, "max_size": args.max_size}
    return (1 if hit is not None else 0, inputs, results,
            [] if hit is None else [hit], text)


class _Parser(argparse.ArgumentParser):
    """A bad command line raises ``GeadimError``, reported in one line,
    in place of argparse's usage on stderr; subparsers share the class."""

    def error(self, message):
        raise GeadimError(message)


def make_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p = _Parser(
        prog="geadim",
        description="finite-model toolkit for generalized effect algebras "
        "with dimension relations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", parents=[shared], help="validate a .gea model file")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("exocenter", parents=[shared],
                        help="exocenter maps and the center")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_exocenter)

    sp = sub.add_parser("hull", parents=[shared],
                        help="splitting algebra and induced hull system")
    sp.add_argument("file")
    sp.add_argument("--relation", required=True)
    sp.set_defaults(fn=cmd_hull)

    sp = sub.add_parser("sk", parents=[shared],
                        help="congruence axiom report for a relation")
    sp.add_argument("file")
    sp.add_argument("--relation", required=True)
    sp.set_defaults(fn=cmd_sk)

    sp = sub.add_parser("decompose", parents=[shared],
                        help="type I/II/III decomposition")
    sp.add_argument("file")
    sp.add_argument("--relation", required=True)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("catalog", parents=[shared],
                        help="enumerate models to a catalog file")
    sp.add_argument("--max-size", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_catalog)

    sp = sub.add_parser("verify", parents=[shared],
                        help="run the theorem suite over the catalog")
    sp.add_argument("--max-size", type=int, required=True)
    sp.add_argument("--theorems", help="comma-separated property names")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--invert", help="negate one property (sanity control)")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("search", parents=[shared],
                        help="counterexample search over the catalog")
    sp.add_argument("--property", required=True)
    sp.add_argument("--max-size", type=int, required=True)
    sp.set_defaults(fn=cmd_search)
    return p


def _check_counts(args):
    """``--max-size`` and ``--jobs``, where a command takes them, are >= 1."""
    for option in ("max_size", "jobs"):
        value = getattr(args, option, None)
        if value is not None and value < 1:
            flag = "--" + option.replace("_", "-")
            raise GeadimError(f"{flag} must be at least 1, got {value}")


def run_command(argv, out=None):
    """Dispatch a command line and write its report, as text or as the
    ``--json`` envelope, or its one-line error to ``out``; returns the
    exit code."""
    out = out if out is not None else sys.stdout
    try:
        with contextlib.redirect_stdout(out):
            args = make_parser().parse_args(argv)
        _check_counts(args)
        code, inputs, results, witnesses, text = args.fn(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (GeadimError, OSError) as exc:
        out.write(f"error: {exc}\n")
        return 2
    if args.json:
        payload = {"command": args.command, "inputs": inputs,
                   "results": results, "witnesses": witnesses, "text": text}
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        out.write(text + "\n")
    return code


def main():
    sys.exit(run_command(sys.argv[1:]))
