"""Formal linear combinations of diagrams, hom-space bases, triangular
factorization and the axiom verifiers built on top of them.
"""

from math import factorial

from .coeff import DeltaPoly
from .compose import compose
from .diagrams import (
    BOTTOM,
    TOP,
    BrauerDiagram,
    PartitionDiagram,
    SignedBrauerDiagram,
    WalledBrauerDiagram,
    enumerate_diagrams,
    identity_diagram,
    is_downwards,
    is_upwards,
    transpose,
    disjoint_union,
)
from .errors import ShapeMismatch, UnsupportedVariant, VariantMismatch


def _as_poly(c):
    return c if isinstance(c, DeltaPoly) else DeltaPoly(c)


class Morphism:
    """Finite formal combination of diagrams with DeltaPoly coefficients."""

    __slots__ = ("variant", "source", "target", "terms")

    def __init__(self, variant, source, target, terms=()):
        clean = {}
        for d, c in dict(terms).items():
            c = _as_poly(c)
            if c:
                if d.bottom != source or d.top != target:
                    raise ShapeMismatch("term does not match source/target")
                clean[d] = c
        self.variant, self.source, self.target = variant, source, target
        self.terms = clean

    @classmethod
    def _trusted(cls, variant, source, target, terms):
        """__init__ without its checks, for a dict of terms of the right
        shape with nonzero DeltaPoly coefficients, which it keeps; callers
        whose sums may cancel drop the zero terms first."""
        out = object.__new__(cls)
        out.variant, out.source, out.target = variant, source, target
        out.terms = terms
        return out

    @classmethod
    def zero(cls, variant, source, target):
        return cls(variant, source, target)

    @classmethod
    def from_diagram(cls, d, coeff=1):
        coeff = _as_poly(coeff)
        if isinstance(d, SignedBrauerDiagram):
            sign, d = d.canonicalize()
            coeff = coeff * sign
        return cls(d.variant, d.bottom, d.top, {d: coeff})

    @classmethod
    def identity(cls, variant, size):
        return cls.from_diagram(identity_diagram(variant, size))

    def is_zero(self):
        return not self.terms

    def _check_compatible(self, other):
        if self.variant != other.variant:
            raise VariantMismatch(f"{self.variant} vs {other.variant}")

    def __add__(self, other):
        self._check_compatible(other)
        if (self.source, self.target) != (other.source, other.target):
            raise ShapeMismatch("cannot add morphisms of different shapes")
        terms = dict(self.terms)
        for d, c in other.terms.items():
            terms[d] = terms.get(d, DeltaPoly.zero()) + c
        terms = {d: c for d, c in terms.items() if c}
        return Morphism._trusted(self.variant, self.source, self.target, terms)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        scalar = _as_poly(scalar)
        terms = {d: c * scalar for d, c in self.terms.items()} if scalar else {}
        return Morphism._trusted(self.variant, self.source, self.target, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.variant == other.variant
            and self.source == other.source
            and self.target == other.target
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(
            (self.variant, self.source, self.target, frozenset(self.terms.items()))
        )

    def evaluate(self, delta):
        """Coefficients specialized at an exact rational point."""
        out = {}
        for d, c in self.terms.items():
            v = c.evaluate(delta)
            if v:
                out[d] = v
        return out

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms, key=lambda x: x.sort_key()):
            parts.append(f"({self.terms[d]}) * ({d.to_text()})")
        return " + ".join(parts)

    def __repr__(self):
        return f"<Morphism {self.to_text()}>"


def morphism_compose(g, f):
    """Bilinear extension of diagram composition; g after f."""
    g._check_compatible(f)
    if f.target != g.source:
        raise ShapeMismatch("inner objects do not match")
    terms = {}
    for df, cf in f.terms.items():
        for dg, cg in g.terms.items():
            res = compose(dg, df)
            if res.is_zero:
                continue
            c = (cf * cg)._shifted(res.closed_count, res.sign)
            d = res.result
            acc = terms.get(d)
            terms[d] = c if acc is None else acc + c
    terms = {d: c for d, c in terms.items() if c}
    return Morphism._trusted(g.variant, f.source, g.target, terms)


def morphism_tensor(f, g):
    """Bilinear extension of placing g's diagrams to the right of f's."""
    f._check_compatible(g)
    terms = {}
    for df, cf in f.terms.items():
        for dg, cg in g.terms.items():
            d = disjoint_union(df, dg)
            c = cf * cg
            if isinstance(d, SignedBrauerDiagram):
                sign, d = d.canonicalize()
                c = c * sign
            acc = terms.get(d)
            terms[d] = c if acc is None else acc + c
    terms = {d: c for d, c in terms.items() if c}
    source, target = _object_sum(f.source, g.source), _object_sum(f.target, g.target)
    return Morphism._trusted(f.variant, source, target, terms)


def _object_sum(a, b):
    if isinstance(a, tuple):
        return (a[0] + b[0], a[1] + b[1])
    return a + b


def morphism_transpose(f):
    """Contravariant row-exchange at the morphism level."""
    # transpose is one-to-one and the coefficients are kept, so no term
    # can cancel
    terms = {transpose(d): c for d, c in f.terms.items()}
    return Morphism._trusted(f.variant, f.target, f.source, terms)


class HomBasis:
    """The canonical diagram basis of a hom space with its up/down flags."""

    __slots__ = ("variant", "source", "target", "diagrams", "upwards", "downwards")

    def __init__(self, variant, source, target):
        self.variant = variant
        self.source = source
        self.target = target
        self.diagrams = tuple(enumerate_diagrams(variant, source, target))
        self.upwards = tuple(is_upwards(d) for d in self.diagrams)
        self.downwards = tuple(is_downwards(d) for d in self.diagrams)

    def __len__(self):
        return len(self.diagrams)


class Factorization:
    """An up-after-down splitting of a diagram through a middle object."""

    __slots__ = ("middle", "down", "up")

    def __init__(self, middle, down, up):
        self.middle = middle
        self.down = down
        self.up = up

    def __repr__(self):
        return (
            f"<Factorization via {self.middle}: down={self.down.to_text()} "
            f"up={self.up.to_text()}>"
        )


def factorize(d):
    """Split d as (upwards) o (downwards) with no closed loops.

    Every part is cut into its bottom and its top half. A part meeting
    both rows is a through part: its halves are joined through the
    k-th vertex of the middle object, counting through parts in
    canonical order. That is the order-preserving bijection onto the
    middle object, which picks a deterministic representative of the
    orbit.
    """
    if isinstance(d, SignedBrauerDiagram):
        raise UnsupportedVariant("factorization of signed diagrams is out of scope")
    if not isinstance(d, (BrauerDiagram, PartitionDiagram)):
        raise UnsupportedVariant(f"cannot factorize {type(d).__name__}")
    down, up, through = [], [], []
    for part in d.parts:
        # a part lists its bottom vertices first
        bot = tuple([v for v in part if v[0] == BOTTOM])
        top = part[len(bot):]
        if bot and top:
            through.append(bot)
            k = len(through)
            down.append(bot + ((TOP, k),))
            up.append(((BOTTOM, k),) + top)
        else:
            (down if bot else up).append(part)
    middle = len(through)
    if isinstance(d, WalledBrauerDiagram):
        # through edges run in the order of their bottom ends, which on a
        # walled row puts every color-1 edge before every color-2 one
        p1 = sum(1 for (a,) in through if d.color(a) == 1)
        middle = (p1, middle - p1)
    cls = type(d)
    return Factorization(middle, cls(d.bottom, middle, down), cls(middle, d.top, up))


_AXIOM_VARIANTS = ("brauer", "partition", "temperley_lieb")


def _middle_aut_order(variant, p):
    # order of the bijection group of the middle object inside the category
    if variant == "temperley_lieb":
        return 1
    return factorial(p)


def verify_t3(variant, n, m):
    """Orbit-count the up-after-down factorizations of Hom([n],[m]).

    Every diagram must arise from exactly one orbit of (down, up) pairs
    under the middle bijection group acting freely, and the number of
    orbits must equal the hom dimension.
    """
    if variant not in _AXIOM_VARIANTS:
        raise UnsupportedVariant(variant)
    all_diagrams = enumerate_diagrams(variant, n, m)
    hom_dim = len(all_diagrams)
    counts = {}  # diagram -> {p: pair count}
    criterion_c_ok = True
    for p in range(min(n, m) + 1):
        downs = [
            d for d in enumerate_diagrams(variant, n, p) if is_downwards(d)
        ]
        ups = [u for u in enumerate_diagrams(variant, p, m) if is_upwards(u)]
        for down in downs:
            for up in ups:
                res = compose(up, down)
                if res.closed_count != 0:
                    criterion_c_ok = False
                    continue
                counts.setdefault(res.result, {}).setdefault(p, 0)
                counts[res.result][p] += 1
    ok = criterion_c_ok
    lhs_dim = 0
    for d in all_diagrams:
        per_p = counts.get(d)
        if per_p is None or len(per_p) != 1:
            ok = False
            continue
        p, k = next(iter(per_p.items()))
        if k != _middle_aut_order(variant, p):
            ok = False
            continue
        lhs_dim += 1
    if set(counts) - set(all_diagrams):
        ok = False
    return {
        "category": variant,
        "source": n,
        "target": m,
        "lhs_dim": lhs_dim,
        "rhs_dim": hom_dim,
        "pass": ok and lhs_dim == hom_dim,
    }


def check_triangular_axioms(variant, max_size):
    """Exhaustively verify the triangular axioms up to the given size."""
    if variant not in _AXIOM_VARIANTS:
        raise UnsupportedVariant(variant)
    sizes = range(max_size + 1)
    bases = {
        (n, m): HomBasis(variant, n, m) for n in sizes for m in sizes
    }

    hom_dims = {f"{n}->{m}": len(b) for (n, m), b in bases.items()}
    t0_pass = True  # enumeration is finite by construction; dims recorded

    # (T1), structural part: both-ways diagrams are exactly the bijections
    t1_pass = True
    for n in sizes:
        basis = bases[(n, n)]
        both = [
            d
            for d, u, w in zip(basis.diagrams, basis.upwards, basis.downwards)
            if u and w
        ]
        expected = 1 if variant == "temperley_lieb" else factorial(n)
        if len(both) != expected or not all(_is_bijection_diagram(d) for d in both):
            t1_pass = False

    # (T2): hom spaces of the wide subcategories respect the size order
    t2_pass = True
    for (n, m), basis in bases.items():
        if any(basis.upwards) and n > m:
            t2_pass = False
        if any(basis.downwards) and n < m:
            t2_pass = False

    # criterion (c): closure of the subcategories and distinguished
    # up-after-down composites
    crit_c_pass = True
    for n in sizes:
        for m in sizes:
            for k in sizes:
                fs, gs = bases[(n, m)], bases[(m, k)]
                for f, f_up, f_down in zip(fs.diagrams, fs.upwards, fs.downwards):
                    if not (f_up or f_down):
                        continue
                    for g, g_up, g_down in zip(gs.diagrams, gs.upwards, gs.downwards):
                        if f_up and g_up:
                            res = compose(g, f)
                            if res.closed_count != 0 or not is_upwards(res.result):
                                crit_c_pass = False
                        if f_down and g_down:
                            res = compose(g, f)
                            if res.closed_count != 0 or not is_downwards(res.result):
                                crit_c_pass = False
                        if f_down and g_up:
                            res = compose(g, f)
                            if res.closed_count != 0:
                                crit_c_pass = False

    # criterion (d): the explicit factorization recomposes, and orbit
    # counting confirms uniqueness modulo the middle bijections
    crit_d_pass = True
    t3_reports = {}
    for (n, m), basis in bases.items():
        for d in basis.diagrams:
            fac = factorize(d)
            res = compose(fac.up, fac.down)
            if res.closed_count != 0 or res.result != d:
                crit_d_pass = False
            if not is_downwards(fac.down) or not is_upwards(fac.up):
                crit_d_pass = False
        rep = verify_t3(variant, n, m)
        t3_reports[f"{n}->{m}"] = rep
        if not rep["pass"]:
            crit_d_pass = False

    overall = t0_pass and t1_pass and t2_pass and crit_c_pass and crit_d_pass
    return {
        "category": variant,
        "max_size": max_size,
        "t0": {"pass": t0_pass, "hom_dims": hom_dims},
        "t1": {
            "pass": t1_pass,
            "end_m_semisimple": "assumed (char 0)",
        },
        "t2": {"pass": t2_pass},
        "t3": {
            "pass": crit_c_pass and crit_d_pass,
            "criterion_c": crit_c_pass,
            "criterion_d": crit_d_pass,
            "per_hom": t3_reports,
        },
        "pass": overall,
    }


def _is_bijection_diagram(d):
    return all(len(p) == 2 and p[0][0] != p[1][0] for p in d.parts)
