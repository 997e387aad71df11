"""The benchmark's workloads: seeded query lists and their output checks.

A query is one call of a diagcat entry point, or one hom-triple check (a
loop over every pair of diagrams of two composable hom spaces that
counts the pairs violating an identity). Every round of a workload runs
the same list: first a fixed preamble that touches each layer once,
then the workload's own queries, with the program's caches emptied
before each part. Outputs are checked after the round, outside the
timed region, against the independent computations in `oracles`.

Library functions are looked up on their modules at call time
(`dc.linear.verify_t3`, never a name imported here), so that the traced
run sees every call.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import diagcat as dc
import diagcat.algebra
import diagcat.chars
import diagcat.cli
import diagcat.taut

import oracles as orc

BOTTOM, TOP = 0, 1


class QueryFailed:
    """Stands in for the output of a query that raised."""

    def __init__(self, error):
        self.error = error


def cache_clearers():
    """Callables that empty every memo table diagcat keeps between calls."""
    out = []
    for mod in (dc.coeff, dc.algebra, dc.chars):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                out.append(value.cache_clear)
    table = getattr(dc.chars, "_lr_table", None)
    if isinstance(table, dict):
        out.append(table.clear)
    return out


def diagram_key(d):
    if isinstance(d, dc.PartitionDiagram):
        return (d.n, d.m, d.blocks)
    return (d.n, d.m, d.edges)


def terms_of(morphism):
    return {diagram_key(d): c.coeffs for d, c in morphism.terms.items()}


# -- hom-triple checks -----------------------------------------------------------


def contravariance(variant, n, m, k):
    """(g o f)^T == f^T o g^T on every pair f: n->m, g: m->k."""
    pairs = bad = 0
    homs_mk = dc.enumerate_diagrams(variant, m, k)
    for df in dc.enumerate_diagrams(variant, n, m):
        f = dc.Morphism.from_diagram(df)
        ft = dc.morphism_transpose(f)
        for dg in homs_mk:
            g = dc.Morphism.from_diagram(dg)
            lhs = dc.morphism_transpose(dc.morphism_compose(g, f))
            rhs = dc.morphism_compose(ft, dc.morphism_transpose(g))
            pairs += 1
            bad += lhs != rhs
    return pairs, bad


def interchange(variant, n1, m1, k1, total):
    """(b (x) b2) o (a (x) a2) == (b o a) (x) (b2 o a2), loops adding, for
    a: n1->m1, b: m1->k1 and every second factor with object sizes up to
    total minus the first factor's."""
    checks = bad = 0
    h_a = dc.enumerate_diagrams(variant, n1, m1)
    h_b = dc.enumerate_diagrams(variant, m1, k1)
    for n2 in range(total + 1 - n1):
        for m2 in range(total + 1 - m1):
            for k2 in range(total + 1 - k1):
                h_a2 = dc.enumerate_diagrams(variant, n2, m2)
                h_b2 = dc.enumerate_diagrams(variant, m2, k2)
                if not h_a2 or not h_b2:
                    continue
                r2 = [[dc.compose(b2, a2) for b2 in h_b2] for a2 in h_a2]
                for alpha in h_a:
                    du_a = [dc.disjoint_union(alpha, a2) for a2 in h_a2]
                    for beta in h_b:
                        r1 = dc.compose(beta, alpha)
                        du_b = [dc.disjoint_union(beta, b2) for b2 in h_b2]
                        for i, ua in enumerate(du_a):
                            for j, ub in enumerate(du_b):
                                left = dc.compose(ub, ua)
                                r = r2[i][j]
                                checks += 1
                                bad += (
                                    left.result != dc.disjoint_union(r1.result, r.result)
                                    or left.closed_count != r1.closed_count + r.closed_count
                                )
    return checks, bad


def _hom_pairs(variant, n, m, k):
    return orc.hom_count(variant, n, m) * orc.hom_count(variant, m, k)


def _interchange_count(variant, n1, m1, k1, total):
    first = _hom_pairs(variant, n1, m1, k1)
    return first * sum(
        _hom_pairs(variant, n2, m2, k2)
        for n2 in range(total + 1 - n1)
        for m2 in range(total + 1 - m1)
        for k2 in range(total + 1 - k1)
    )


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dc.cli.run(argv)
    return code, buf.getvalue()


# -- seeded inputs ----------------------------------------------------------------


def random_diagram(rng, variant, n, m):
    points = [(BOTTOM, i) for i in range(1, n + 1)] + [(TOP, i) for i in range(1, m + 1)]
    rng.shuffle(points)
    if variant == "partition":
        # exactly half as many blocks as vertices, so that every input
        # costs about the same to compose
        k = len(points) // 2
        blocks = [[v] for v in points[:k]]
        for v in points[k:]:
            blocks[rng.randrange(k)].append(v)
        return dc.make_diagram("partition", n, m, blocks)
    edges = [(points[i], points[i + 1]) for i in range(0, len(points), 2)]
    if variant == "signed":
        # orient every horizontal edge at random
        arrows = [
            (a, b) if rng.random() < 0.5 else (b, a) for a, b in edges if a[0] == b[0]
        ]
        return dc.SignedBrauerDiagram(n, m, edges, arrows)
    return dc.make_diagram(variant, n, m, edges)


def random_coefficient(rng):
    """a + b*d with small rationals a and b != 0."""
    a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return dc.DeltaPoly([a, b])


def random_morphism(rng, variant, n, m, terms):
    out = dc.Morphism.zero(variant, n, m)
    for _ in range(terms):
        d = random_diagram(rng, variant, n, m)
        out = out + dc.Morphism.from_diagram(d, random_coefficient(rng))
    return out


# -- workloads ----------------------------------------------------------------------


class Workload:
    """A named list of queries with a checker for one round's outputs.

    `queries` holds (label, thunk) pairs; `check_output(label, output)`
    returns a list of error strings for one output.
    """

    name = None

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.preamble = preamble_queries()
        self.queries = []

    def check_round(self, outputs):
        errors = []
        labels = [lab for lab, _ in self.preamble] + [lab for lab, _ in self.queries]
        for label, out in zip(labels, outputs):
            if isinstance(out, QueryFailed):
                continue
            for err in check_preamble(label, out) if label[0] == "pre" else self.check_output(label, out):
                errors.append(f"{label}: {err}")
        return errors


def preamble_queries():
    f = dc.Morphism.from_diagram(dc.make_diagram("brauer", 2, 2, [((0, 1), (1, 1)), ((0, 2), (1, 2))]))
    f = f + dc.Morphism.from_diagram(
        dc.make_diagram("brauer", 2, 2, [((0, 1), (0, 2)), ((1, 1), (1, 2))]), dc.DeltaPoly([0, 1])
    )
    return [
        (("pre", "axioms"), lambda: dc.linear.check_triangular_axioms("brauer", 2)),
        (("pre", "contravariance"), lambda: contravariance("partition", 1, 1, 1)),
        (("pre", "interchange"), lambda: interchange("brauer", 0, 2, 0, 2)),
        (("pre", "square"), lambda: dc.morphism_compose(f, f)),
        (
            ("pre", "taut"),
            lambda: dc.taut.verify_taut_functoriality(dc.taut.TautContext("brauer", dim=2), 2),
        ),
        (
            ("pre", "roots"),
            lambda: _cli(["semisimple", "--category", "temperley_lieb", "--n", "3", "--roots", "--json"]),
        ),
        (("pre", "principal"), lambda: dc.chars.verify_principal_decomposition(1, 3)),
        (("pre", "delta"), lambda: dc.chars.delta_multiplicity((1,), (2, 1))),
        (("pre", "induced"), lambda: dc.chars.induced_multiplicity_oracle((1,), (2, 1))),
    ]


def check_preamble(label, out):
    kind = label[1]
    if kind == "axioms":
        return _check_axioms_report("brauer", out)
    if kind == "contravariance":
        return _check_pairs(out, _hom_pairs("partition", 1, 1, 1))
    if kind == "interchange":
        return _check_pairs(out, _interchange_count("brauer", 0, 2, 0, 2))
    if kind == "square":
        e = ((0, 1), (1, 1)), ((0, 2), (1, 2))
        u = ((0, 1), (0, 2)), ((1, 1), (1, 2))
        f = {(2, 2, e): (Fraction(1),), (2, 2, u): (0, Fraction(1))}
        want = orc.morphism_compose(f, f, _brauer_oracle)
        return [] if terms_of(out) == want else ["square differs from the path-tracing oracle"]
    if kind == "taut":
        return _check_taut_report(out, "brauer", 2, 2)
    if kind == "roots":
        return _check_roots_json(out, "temperley_lieb", 3)
    if kind == "principal":
        return _check_principal(out)
    if kind in ("delta", "induced"):
        # both routes give 1: (2,1) appears once in (1) induced with a matching
        return [] if out == 1 else [f"multiplicity {out} != 1"]
    return [f"unknown preamble query {kind}"]


def _brauer_oracle(dg, df):
    n, k = df[0], dg[1]
    edges, loops = orc.brauer_compose(df[2], dg[2])
    return (n, k, edges), loops


def _partition_oracle(dg, df):
    n, k = df[0], dg[1]
    blocks, closed = orc.partition_compose(df[2], dg[2])
    return (n, k, blocks), closed


def _check_pairs(out, want):
    count, bad = out
    errs = []
    if count != want:
        errs.append(f"{count} pairs checked, counting formulas give {want}")
    if bad:
        errs.append(f"{bad} pairs violate the identity")
    return errs


def _check_axioms_report(variant, rep):
    errs = [] if rep["pass"] else ["axioms report failure"]
    for key, dim in rep["t0"]["hom_dims"].items():
        n, m = map(int, key.split("->"))
        if dim != orc.hom_count(variant, n, m):
            errs.append(f"dim Hom({key}) = {dim}, formula gives {orc.hom_count(variant, n, m)}")
    return errs


def _check_taut_report(rep, variant, dim, size, param=None):
    errs = [] if rep["pass"] and not rep["failures"] else [f"{len(rep['failures'])} failures"]
    objs = orc.objects_up_to(variant, size)
    want = sum(
        orc.hom_count(variant, x, y) * orc.hom_count(variant, y, z)
        for x in objs
        for y in objs
        for z in objs
    )
    if rep["pairs_checked"] != want:
        errs.append(f"pairs_checked {rep['pairs_checked']} != {want} from the hom counts")
    if param is not None and Fraction(rep["parameter"]) != param:
        errs.append(f"parameter {rep['parameter']} != cap o cup = {param}")
    return errs


def _check_roots_json(out, category, n):
    code, text = out
    if code != 0:
        return [f"exit code {code}"]
    obj = json.loads(text)
    roots = {Fraction(r) for r in obj["rational_roots"]}
    want = orc.ROOT_ORACLES[category](n)
    if roots != want:
        return [f"roots {sorted(roots)} != closed-form {sorted(want)}"]
    return []


def _check_principal(rep):
    if not rep["pass"] or any(v["lhs"] != v["rhs"] for v in rep["per_weight"].values()):
        return ["principal decomposition mismatch"]
    return []


class Sweep(Workload):
    """Exhaustive structural verification, no matrices."""

    name = "sweep"

    def __init__(self, seed, small=False):
        super().__init__(seed)
        q = self.queries
        # morphism-level contravariance on hom triples with at most 1000 pairs
        for variant, size in (("brauer", 4), ("partition", 3)):
            for n, m, k in product(range(size + 1), repeat=3):
                pairs = _hom_pairs(variant, n, m, k)
                if pairs and pairs <= (60 if small else 1000):
                    q.append((("contra", variant, n, m, k), lambda a=(variant, n, m, k): contravariance(*a)))
        # monoidal interchange, first-factor groups with at most 2000 checks
        for variant in ("brauer", "partition"):
            total = 2 if small else 3
            for n1, m1, k1 in product(range(total + 1), repeat=3):
                checks = _interchange_count(variant, n1, m1, k1, total)
                if checks and checks <= 2000:
                    q.append(
                        (("inter", variant, n1, m1, k1, total), lambda a=(variant, n1, m1, k1, total): interchange(*a))
                    )
        axioms = (("brauer", 3), ("partition", 2), ("temperley_lieb", 3)) if small else (
            ("brauer", 4), ("partition", 3), ("temperley_lieb", 4))
        for variant, size in axioms:
            q.append((("axioms", variant), lambda a=(variant, size): dc.linear.check_triangular_axioms(*a)))
        t3_limit = {"brauer": 8, "temperley_lieb": 8, "partition": 6}
        for variant, limit in t3_limit.items():
            limit = min(limit, 4) if small else limit
            for n in range(limit + 1):
                for m in range(limit + 1 - n):
                    q.append((("t3", variant, n, m), lambda a=(variant, n, m): dc.linear.verify_t3(*a)))
        # seeded multi-term morphisms, h o (g o f) against (h o g) o f
        # sizes (a, b, c, e) of f: a->b, g: b->c, h: c->e; matchings need even a+b, b+c, c+e
        matching = ((6, 8, 6, 8), (8, 6, 8, 6), (5, 7, 5, 7), (7, 5, 7, 5), (6, 6, 8, 8), (7, 7, 5, 5))
        shapes = {
            "brauer": matching,
            "signed": matching,
            "partition": ((5, 8, 6, 7), (8, 5, 7, 6), (6, 6, 6, 6), (7, 7, 5, 5), (5, 6, 7, 8), (8, 7, 6, 5)),
        }
        per_variant = 8 if small else 60
        self.assoc = {}
        for i in range(per_variant):
            for variant, variant_shapes in shapes.items():
                a, b, c, e = variant_shapes[i % len(variant_shapes)]
                f = random_morphism(self.rng, variant, a, b, 3)
                g = random_morphism(self.rng, variant, b, c, 3)
                h = random_morphism(self.rng, variant, c, e, 3)
                label = ("assoc", variant, i)
                self.assoc[label] = (f, g, h)
                q.append((label, lambda t=(f, g, h): _associativity(*t)))
        # seeded order: no memo table is shared between these queries, so the
        # order changes no work, and each kind is spread over the round
        self.rng.shuffle(q)
        # a seeded sixth of the brauer and partition triples is recomputed by the oracles
        sampled = [lab for lab in self.assoc if lab[1] != "signed"]
        self.sampled = set(self.rng.sample(sampled, max(len(sampled) // 6, 2)))
        self._expected = {}

    def check_output(self, label, out):
        kind = label[0]
        if kind == "contra":
            return _check_pairs(out, _hom_pairs(*label[1:]))
        if kind == "inter":
            return _check_pairs(out, _interchange_count(*label[1:]))
        if kind == "axioms":
            return _check_axioms_report(label[1], out)
        if kind == "t3":
            variant, n, m = label[1:]
            want = orc.hom_count(variant, n, m)
            if not out["pass"] or out["lhs_dim"] != want or out["rhs_dim"] != want:
                return [f"t3 report {out['lhs_dim']}/{out['rhs_dim']} pass={out['pass']}, hom count {want}"]
            return []
        lhs, rhs = out
        errs = [] if lhs == rhs else ["h o (g o f) != (h o g) o f"]
        if label in self.sampled:
            if label not in self._expected:
                f, g, h = (terms_of(x) for x in self.assoc[label])
                one = _brauer_oracle if label[1] == "brauer" else _partition_oracle
                self._expected[label] = orc.morphism_compose(h, orc.morphism_compose(g, f, one), one)
            if terms_of(lhs) != self._expected[label]:
                errs.append("composite differs from the oracle")
        return errs


def _associativity(f, g, h):
    return (
        dc.morphism_compose(h, dc.morphism_compose(g, f)),
        dc.morphism_compose(dc.morphism_compose(h, g), f),
    )


class Taut(Workload):
    """Tautological functoriality sweeps: matrices against compositions."""

    name = "taut"

    def __init__(self, seed, small=False):
        super().__init__(seed)
        self._matrices_checked = set()
        primes = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
        # seven planar contexts, so that the median query is the median of
        # seven similar sweeps rather than one
        qs = []
        while len(qs) < 7:
            p, r = self.rng.sample(primes, 2)
            q = Fraction(p, r) * self.rng.choice((1, -1))
            if q not in qs:
                qs.append(q)
        if small:
            contexts = [("partition", 2, None, 2), ("brauer", 2, None, 3), ("signed", 2, None, 2),
                        ("walled", 2, None, 2), ("temperley_lieb", None, qs[0], 2)]
        else:
            contexts = [("partition", 1, None, 3), ("partition", 2, None, 3), ("brauer", 2, None, 4),
                        ("brauer", 3, None, 3), ("signed", 2, None, 3), ("walled", 2, None, 3)]
            contexts += [("temperley_lieb", None, q, 3) for q in qs]
        # seeded order: each sweep builds its own matrices, so the order
        # changes no work, and the planar sweeps are spread over the round
        self.rng.shuffle(contexts)
        for variant, dim, q, size in contexts:
            ctx = dc.taut.TautContext(variant, dim=dim, q=q)
            self.queries.append(
                (("verify", variant, dim, q, size), lambda c=ctx, s=size: dc.taut.verify_taut_functoriality(c, s))
            )

    def check_output(self, label, out):
        _, variant, dim, q, size = label
        param = orc.planar_loop_value(q) if q is not None else None
        errs = _check_taut_report(out, variant, dim, size, param)
        if label not in self._matrices_checked:
            self._matrices_checked.add(label)
            errs += self._check_matrices(variant, dim, q, size)
        return errs

    def _check_matrices(self, variant, dim, q, size):
        """A seeded sample of matrices against the entrywise definition."""
        ctx = dc.taut.TautContext(variant, dim=dim, q=q)
        objs = orc.objects_up_to(variant, size)
        pool = [d for x in objs for y in objs for d in dc.enumerate_diagrams(variant, x, y)]
        errs = []
        for d in self.rng.sample(pool, min(len(pool), 12)):
            if variant == "partition":
                kind, parts, arrows = "partition", d.blocks, ()
            elif variant == "temperley_lieb":
                kind, parts, arrows = "planar", d.edges, ()
            elif variant == "signed":
                kind, parts, arrows = "signed", d.edges, d.arrows
            else:
                kind, parts, arrows = "matching", d.edges, ()
            want = orc.taut_matrix(kind, d.n, d.m, parts, ctx.dim, q=q, arrows=arrows)
            if dc.taut.taut_matrix(ctx, d).entries != want:
                errs.append(f"matrix of {d.to_text()} differs from the definition")
        return errs


class Algebra(Workload):
    """Cold discriminant and root queries through the CLI, then cached
    semisimplicity queries at seeded rationals."""

    name = "algebra"

    def __init__(self, seed, small=False):
        super().__init__(seed)
        if small:
            algebras = [("brauer", 1), ("brauer", 2), ("partition", 1), ("signed", 1), ("signed", 2),
                        ("temperley_lieb", 1), ("temperley_lieb", 2), ("temperley_lieb", 3)]
        else:
            algebras = [("brauer", 1), ("brauer", 2), ("brauer", 3), ("partition", 1), ("partition", 2),
                        ("signed", 1), ("signed", 2), ("temperley_lieb", 1), ("temperley_lieb", 2),
                        ("temperley_lieb", 3), ("temperley_lieb", 4)]
        # each algebra's cold roots query, then its cached queries, so that
        # the short queries are spread over the whole round
        for cat, n in algebras:
            argv = ["semisimple", "--category", cat, "--n", str(n), "--roots", "--json"]
            self.queries.append((("roots", cat, n), lambda a=argv: _cli(a)))
            deltas = [Fraction(self.rng.randint(-4, 4)) for _ in range(6)]
            deltas += [Fraction(self.rng.randint(-20, 20), self.rng.randint(2, 9)) for _ in range(9)]
            for delta in deltas:
                argv = ["semisimple", "--category", cat, "--n", str(n), f"--delta={delta}", "--json"]
                self.queries.append((("delta", cat, n, delta), lambda a=argv: _cli(a)))
        self._disc_checked = set()

    def check_output(self, label, out):
        kind, cat, n = label[:3]
        if kind == "delta":
            code, text = out
            if code != 0:
                return [f"exit code {code}"]
            want = label[3] not in orc.ROOT_ORACLES[cat](n)
            got = json.loads(text)["semisimple"]
            return [] if got == want else [f"semisimple {got}, closed form says {want}"]
        errs = _check_roots_json(out, cat, n)
        if not errs and (cat, n) not in self._disc_checked:
            self._disc_checked.add((cat, n))
            errs += _check_discriminant(cat, n, orc.parse_poly(json.loads(out[1])["discriminant"]))
        return errs


def _check_discriminant(cat, n, disc):
    """The discriminant against exact Gram determinants at D+1 integers,
    D bounding the degree of det(G) by the sum of the row degrees."""
    gram = [[c.coeffs for c in row] for row in dc.algebra.build_algebra(cat, n).gram_matrix()]
    bound = sum(max((len(c) - 1 for c in row), default=0) for row in gram)
    if len(disc) - 1 > bound:
        return [f"discriminant degree {len(disc) - 1} exceeds the bound {bound}"]
    for x in range(bound + 1):
        det = orc.determinant([[orc.poly_eval(c, x) for c in row] for row in gram])
        if det != orc.poly_eval(disc, x):
            return [f"discriminant at {x} is {orc.poly_eval(disc, x)}, det(G({x})) = {det}"]
    return []


class Chars(Workload):
    """Multiplicity formulas, LR products and character tables."""

    name = "chars"

    def __init__(self, seed, small=False):
        super().__init__(seed)
        mult, principal, lr, table = [], [], [], []
        max_lam, max_mu = (2, 4) if small else (4, 8)
        for a in range(max_lam + 1):
            for lam in orc.partitions(a):
                for m in range(a, max_mu + 1, 2):
                    for mu in orc.partitions(m):
                        mult.append((("mult", lam, mu), lambda x=(lam, mu): multiplicity_routes(*x)))
        for n in range(5):
            for m in range(n % 2, (4 if small else 8) + 1 - n, 2):
                principal.append((("principal", n, m), lambda x=(n, m): dc.chars.verify_principal_decomposition(*x)))
        max_lr = 5 if small else 9
        for a in range(max_lr + 1):
            for b in range(max_lr + 1 - a):
                nus = tuple(orc.partitions(a + b))
                for lam in orc.partitions(a):
                    for mu in orc.partitions(b):
                        lr.append((("lr", lam, mu, nus), lambda x=(lam, mu, nus): lr_product(*x)))
        self.rng.shuffle(lr)
        for n in range((6 if small else 12) + 1):
            lams = tuple(orc.partitions(n))
            table.append((("dims", lams), lambda x=lams: [dc.chars.dim_specht(lam) for lam in x]))
            for mu in lams:
                table.append((("column", lams, mu), lambda x=(lams, mu): character_column(*x)))
        # a seeded merge that keeps each group's own order, so that each
        # kind of query is spread over the round; the memo tables are
        # shared, so the seed decides which query computes a shared entry,
        # while the set of entries computed in a round stays the same
        groups = [mult, principal, lr, table]
        picks = [i for i, group in enumerate(groups) for _ in group]
        self.rng.shuffle(picks)
        heads = [iter(group) for group in groups]
        self.queries = [next(heads[i]) for i in picks]

    def check_round(self, outputs):
        errors = super().check_round(outputs)
        labels = [lab for lab, _ in self.preamble] + [lab for lab, _ in self.queries]
        columns = {}
        for lab, out in zip(labels, outputs):
            if lab[0] == "column" and not isinstance(out, QueryFailed):
                columns.setdefault(lab[1], {})[lab[2]] = out
        for lams, table in columns.items():
            if len(table) != len(lams):
                continue
            for mu, col in table.items():
                for nu, other in table.items():
                    want = orc.centralizer(mu) if mu == nu else 0
                    if sum(x * y for x, y in zip(col, other)) != want:
                        errors.append(f"column orthogonality fails at {mu}, {nu}")
        return errors

    def check_output(self, label, out):
        kind = label[0]
        if kind == "mult":
            by_lr, by_induction = out
            return [] if by_lr == by_induction else [f"LR route {by_lr} != induced-character route {by_induction}"]
        if kind == "principal":
            return _check_principal(out)
        if kind == "lr":
            _, lam, mu, nus = label
            total = sum(c * orc.syt_count(nu) for c, nu in zip(out, nus))
            want = comb(sum(lam) + sum(mu), sum(lam)) * orc.syt_count(lam) * orc.syt_count(mu)
            if total != want or min(out) < 0:
                return [f"sum_nu c^nu f^nu = {total}, C(|lam|+|mu|, |lam|) f^lam f^mu = {want}"]
            return []
        if kind == "dims":
            lams = label[1]
            errs = [] if out == [orc.syt_count(lam) for lam in lams] else ["dimensions differ from the branching rule"]
            if sum(f * f for f in out) != factorial(sum(lams[0])):
                errs.append("sum of squared dimensions != n!")
            return errs
        lams, mu = label[1:]
        if mu == (1,) * sum(mu) and out != [orc.syt_count(lam) for lam in lams]:
            return ["identity column differs from the tableau counts"]
        return []


def multiplicity_routes(lam, mu):
    """Weight-mu multiplicity of Delta(lam) by the LR sum and by induction."""
    return dc.chars.delta_multiplicity(lam, mu), dc.chars.induced_multiplicity_oracle(lam, mu)


def lr_product(lam, mu, nus):
    """Coefficients of s_lam * s_mu on the Schur functions s_nu."""
    return [dc.chars.lr_coefficient(lam, mu, nu) for nu in nus]


def character_column(lams, mu):
    return [dc.chars.sym_character(lam, mu) for lam in lams]


WORKLOADS = {w.name: w for w in (Sweep, Taut, Algebra, Chars)}


def build(name, seed, small=False):
    return WORKLOADS[name](seed, small)
