"""Command-line front end: parse diagram notation, dispatch to the
library, emit text or JSON, run verification suites.

Exit codes: 0 success (verification subcommands: all checks passed),
1 domain error (bad diagram, shape mismatch, failed verification),
2 usage error.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from .algebra import (
    discriminant,
    discriminant_rational_roots,
    is_semisimple_at,
)
from .chars import (
    delta_multiplicity,
    dim_specht,
    parse_partition,
    partition_key,
    partitions_of,
    ptilde_standard_multiplicity,
    sym_character,
    verify_principal_decomposition,
)
from .compose import compose
from .diagrams import VARIANTS, enumerate_diagrams, make_diagram
from .errors import DiagramError, DiagramSyntaxError
from .linear import check_triangular_axioms, factorize, verify_t3
from .taut import TautContext, taut_matrix, verify_taut_functoriality


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise DiagramSyntaxError(self.pos, repr(literal), self.text)
        self.pos += len(literal)

    def number(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise DiagramSyntaxError(start, "a number", self.text)
        return int(self.text[start : self.pos])

    def vertex(self):
        self.skip_ws()
        start = self.pos
        if self.peek() not in ("b", "t"):
            raise DiagramSyntaxError(start, "a vertex (bN or tN)", self.text)
        row = 0 if self.text[self.pos] == "b" else 1
        self.pos += 1
        return (row, self.number())


def parse_diagram(text, variant="brauer"):
    """Parse the textual grammar into a canonical diagram."""
    if variant not in VARIANTS:
        raise DiagramSyntaxError(0, f"a known variant, not {variant!r}", text)
    sc = _Scanner(text)
    if variant == "walled":
        n1 = sc.number()
        sc.expect("+")
        n2 = sc.number()
        bottom = (n1, n2)
        sc.expect("->")
        m1 = sc.number()
        sc.expect("+")
        m2 = sc.number()
        top = (m1, m2)
    else:
        bottom = sc.number()
        sc.expect("->")
        top = sc.number()
    sc.expect(":")

    if variant == "fisharp":
        sc.expect("[")
        pairs = []
        if sc.peek() != "]":
            while True:
                a = sc.vertex()
                if a[0] != 0:
                    raise DiagramSyntaxError(sc.pos, "a bottom vertex", text)
                sc.expect("->")
                b = sc.vertex()
                if b[0] != 1:
                    raise DiagramSyntaxError(sc.pos, "a top vertex", text)
                pairs.append((a[1], b[1]))
                if sc.peek() != ",":
                    break
                sc.expect(",")
        sc.expect("]")
        data = pairs
    elif variant in ("partition", "degenerate"):
        blocks = []
        while sc.peek() == "{":
            sc.expect("{")
            block = []
            while sc.peek() != "}":
                block.append(sc.vertex())
            sc.expect("}")
            blocks.append(block)
        data = blocks
    else:
        edges = []
        while sc.peek() == "(":
            sc.expect("(")
            a = sc.vertex()
            oriented = False
            if variant == "signed" and sc.peek() == ">":
                sc.expect(">")
                oriented = True
            b = sc.vertex()
            if variant == "signed" and a[0] == b[0] and not oriented:
                raise DiagramSyntaxError(
                    sc.pos, "'>' (horizontal edges carry an orientation)", text
                )
            sc.expect(")")
            edges.append((a, b))
        data = edges
    if not sc.eof():
        raise DiagramSyntaxError(sc.pos, "end of input", text)
    return make_diagram(variant, bottom, top, data)


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


# a negative number, read as a value and not as an option; argparse's
# own pattern admits ints and decimals, but not "-1/2"
_NEGATIVE_NUMBER = re.compile(r"^-\d*\.?\d+(/\d+)?$")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="diagcat",
        description="exact computations in diagram categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, category=True):
        if category:
            p.add_argument("--category", default="brauer", choices=VARIANTS)
        p.add_argument("--json", action="store_true", help="emit JSON on stdout")
        p.add_argument("--out", metavar="FILE", help="also dump JSON to FILE")
        p._negative_number_matcher = _NEGATIVE_NUMBER

    p = sub.add_parser("compose", help="compose two diagrams (beta after alpha)")
    add_common(p)
    p.add_argument("beta")
    p.add_argument("alpha")
    p.add_argument("--delta", type=_fraction, help="evaluate the parameter")

    p = sub.add_parser("enumerate", help="list a hom-space basis")
    add_common(p)
    p.add_argument("bottom")
    p.add_argument("top")
    p.add_argument("--count", action="store_true")

    p = sub.add_parser("taut", help="matrix of a diagram on tensor powers")
    add_common(p)
    p.add_argument("diagram")
    p.add_argument("--dim", type=int, help="dimension of the underlying space")
    p.add_argument("--q", type=_fraction, help="quantum parameter (planar variant)")

    p = sub.add_parser("mult", help="weight multiplicities")
    add_common(p, category=False)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta-of", metavar="LAMBDA", dest="delta_of")
    group.add_argument("--ptilde", metavar="LAMBDA")
    p.add_argument("--weight", metavar="MU")
    p.add_argument("--weights-of-size", type=int, metavar="M", dest="weights_size")

    p = sub.add_parser("char", help="symmetric group characters and dimensions")
    add_common(p, category=False)
    p.add_argument("--lambda", dest="lam", required=True, metavar="LAMBDA")
    p.add_argument("--mu", help="cycle type; omitted: print the dimension")

    p = sub.add_parser("semisimple", help="semisimplicity at a parameter value")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=_fraction)
    p.add_argument("--discriminant", action="store_true")
    p.add_argument("--roots", action="store_true")

    p = sub.add_parser("verify", help="run verification suites")
    add_common(p)
    p.add_argument("--axioms", action="store_true")
    p.add_argument("--max-size", type=int, default=3, dest="max_size")
    p.add_argument("--principal", nargs=2, type=int, metavar=("N", "M"))
    p.add_argument("--t3", nargs=2, type=int, metavar=("N", "M"))
    p.add_argument("--taut", action="store_true")
    p.add_argument("--dim", type=int)
    p.add_argument("--q", type=_fraction)

    p = sub.add_parser("factor", help="up-after-down factorization")
    add_common(p)
    p.add_argument("diagram")

    return parser


def _coefficient_text(res, delta=None):
    if res.is_zero:
        return None
    if delta is None:
        sign = "1" if res.sign > 0 else "-1"
        return f"d^{res.closed_count} * {sign}"
    value = res.sign * delta**res.closed_count
    return str(value)


def _emit(args, text_lines, json_obj):
    out = (
        json.dumps(json_obj, indent=2, sort_keys=True)
        if args.json
        else "\n".join(text_lines)
    )
    print(out)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(json_obj, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _cmd_compose(args):
    beta = parse_diagram(args.beta, args.category)
    alpha = parse_diagram(args.alpha, args.category)
    res = compose(beta, alpha)
    obj = {
        "variant": args.category,
        "closed_count": res.closed_count,
        "sign": res.sign,
        "is_zero": res.is_zero,
        "result": None if res.is_zero else res.result.to_json(),
    }
    if res.is_zero:
        _emit(args, ["0"], obj)
        return 0
    coeff = _coefficient_text(res, args.delta)
    obj["coefficient"] = coeff
    if args.delta is not None and res.sign * args.delta**res.closed_count == 0:
        _emit(args, ["0"], obj)
        return 0
    _emit(args, [f"{coeff} * ({res.result.to_text()})"], obj)
    return 0


def _parse_object(text, variant):
    try:
        if variant == "walled":
            a, b = text.split("+")
            return (int(a), int(b))
        return int(text)
    except ValueError:
        expected = "an object n1+n2" if variant == "walled" else "an object size"
        raise DiagramSyntaxError(0, expected, text) from None


def _cmd_enumerate(args):
    bottom = _parse_object(args.bottom, args.category)
    top = _parse_object(args.top, args.category)
    diagrams = enumerate_diagrams(args.category, bottom, top)
    obj = {
        "variant": args.category,
        "bottom": list(bottom) if isinstance(bottom, tuple) else bottom,
        "top": list(top) if isinstance(top, tuple) else top,
        "count": len(diagrams),
        "diagrams": [d.to_json() for d in diagrams],
    }
    if args.count:
        _emit(args, [str(len(diagrams))], obj)
    else:
        _emit(args, [d.to_text() for d in diagrams], obj)
    return 0


def _cmd_taut(args):
    d = parse_diagram(args.diagram, args.category)
    ctx = TautContext(args.category, dim=args.dim, q=args.q)
    m = taut_matrix(ctx, d)
    entries = [[str(v) for v in row] for row in m.entries]
    obj = {
        "variant": args.category,
        "parameter": str(ctx.parameter),
        "rows": m.rows,
        "cols": m.cols,
        "entries": entries,
    }
    _emit(args, [" ".join(row) for row in entries], obj)
    return 0


def _cmd_mult(args):
    kind = "delta" if args.delta_of is not None else "ptilde"
    lam = parse_partition(args.delta_of if kind == "delta" else args.ptilde)
    fn = delta_multiplicity if kind == "delta" else ptilde_standard_multiplicity
    if args.weight is None and args.weights_size is None:
        raise DiagramError("one of --weight or --weights-of-size is required")
    if args.weight is not None:
        mu = parse_partition(args.weight)
        value = fn(lam, mu)
        obj = {
            "module": f"{kind}({partition_key(lam)})",
            "entries": {partition_key(mu): value},
        }
        _emit(args, [str(value)], obj)
    else:
        weights = partitions_of(args.weights_size)
        entries = {partition_key(mu): fn(lam, mu) for mu in weights}
        obj = {"module": f"{kind}({partition_key(lam)})", "entries": entries}
        _emit(args, [f"{k}: {v}" for k, v in sorted(entries.items())], obj)
    return 0


def _cmd_char(args):
    lam = parse_partition(args.lam)
    if args.mu is None:
        value = dim_specht(lam)
        obj = {"lambda": partition_key(lam), "dimension": value}
    else:
        mu = parse_partition(args.mu)
        value = sym_character(lam, mu)
        obj = {
            "lambda": partition_key(lam),
            "mu": partition_key(mu),
            "character": value,
        }
    _emit(args, [str(value)], obj)
    return 0


def _cmd_semisimple(args):
    if args.discriminant or args.roots:
        poly = discriminant(args.category, args.n)
        obj = {
            "category": args.category,
            "n": args.n,
            "discriminant": str(poly),
        }
        lines = [str(poly)]
        if args.roots:
            roots = discriminant_rational_roots(args.category, args.n)
            obj["rational_roots"] = [str(r) for r in roots]
            lines = [" ".join(str(r) for r in roots) if roots else "(none)"]
        _emit(args, lines, obj)
        return 0
    if args.delta is None:
        raise DiagramError("--delta or --discriminant is required")
    value = is_semisimple_at(args.category, args.n, args.delta)
    obj = {
        "category": args.category,
        "n": args.n,
        "delta": str(args.delta),
        "semisimple": value,
    }
    _emit(args, ["true" if value else "false"], obj)
    return 0


def _cmd_verify(args):
    reports = {}
    if args.axioms:
        reports["axioms"] = check_triangular_axioms(args.category, args.max_size)
    if args.t3:
        reports["t3"] = verify_t3(args.category, *args.t3)
    if args.principal:
        reports["principal"] = verify_principal_decomposition(*args.principal)
    if args.taut:
        ctx = TautContext(args.category, dim=args.dim, q=args.q)
        reports["taut"] = verify_taut_functoriality(ctx, args.max_size)
    if not reports:
        raise DiagramError(
            "nothing to verify: pass --axioms, --t3, --principal or --taut"
        )
    ok = all(rep["pass"] for rep in reports.values())
    obj = {"pass": ok, "reports": reports}
    args.json = True  # verification always reports JSON
    _emit(args, [], obj)
    return 0 if ok else 1


def _cmd_factor(args):
    d = parse_diagram(args.diagram, args.category)
    fac = factorize(d)
    middle = (
        list(fac.middle) if isinstance(fac.middle, tuple) else fac.middle
    )
    obj = {
        "variant": args.category,
        "middle": middle,
        "down": fac.down.to_json(),
        "up": fac.up.to_json(),
    }
    _emit(
        args,
        [
            f"middle: {fac.middle}",
            f"down: {fac.down.to_text()}",
            f"up: {fac.up.to_text()}",
        ],
        obj,
    )
    return 0


_HANDLERS = {
    "compose": _cmd_compose,
    "enumerate": _cmd_enumerate,
    "taut": _cmd_taut,
    "mult": _cmd_mult,
    "char": _cmd_char,
    "semisimple": _cmd_semisimple,
    "verify": _cmd_verify,
    "factor": _cmd_factor,
}


# built once at import: building the parser costs far more than a parse
_PARSER = _build_parser()


def run(argv):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _HANDLERS[args.command](args)
    except (DiagramError, ValueError, ZeroDivisionError) as exc:
        # an invalid value the library refuses is a domain error too
        payload = {"error": getattr(exc, "code", DiagramError.code), "message": str(exc)}
        if isinstance(exc, DiagramSyntaxError):
            payload.update(position=exc.position, expected=exc.expected)
        print(json.dumps(payload, sort_keys=True) if args.json else f"error: {exc}",
              file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
