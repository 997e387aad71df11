"""Formal linear combinations of diagrams, triangular factorization
and the verifiers of the triangular axioms built on top of them.
"""

from itertools import product
from math import factorial

from .algebra import _basis_index, _hom_size, _products, hom_basis
from .coeff import DeltaPoly
from .compose import compose
from .diagrams import (
    BrauerDiagram,
    PartitionDiagram,
    SignedBrauerDiagram,
    WalledBrauerDiagram,
    check_nonnegative,
    identity_diagram,
    is_downwards,
    is_upwards,
    renumbered,
    transpose,
    disjoint_union,
    variant_class,
)
from .errors import DimensionBudgetExceeded, ShapeMismatch, UnsupportedVariant, VariantMismatch


def _as_poly(c):
    return c if isinstance(c, DeltaPoly) else DeltaPoly(c)


class Morphism:
    """Finite formal combination of diagrams with DeltaPoly coefficients."""

    __slots__ = ("variant", "source", "target", "terms")

    def __init__(self, variant, source, target, terms=()):
        # an oriented term is kept in reference orientation, its sign
        # folded into the coefficient; terms that then meet are summed
        term_class = variant_class(variant)
        clean = {}
        for d, c in dict(terms).items():
            if type(d) is not term_class:
                raise VariantMismatch(f"{type(d).__name__} term in a {variant} morphism")
            c = _as_poly(c)
            if not c:
                continue
            if d.bottom != source or d.top != target:
                raise ShapeMismatch("term does not match source/target")
            if isinstance(d, SignedBrauerDiagram):
                sign, d = d.canonicalize()
                if sign < 0:
                    c = -c
                if d in clean:
                    c = clean.pop(d) + c
                    if not c:
                        continue
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
    # oriented terms are in reference orientation, and so is the
    # disjoint union of two of them
    terms = {}
    for df, cf in f.terms.items():
        for dg, cg in g.terms.items():
            d = disjoint_union(df, dg)
            c = cf * cg
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
    n, labels = d.n, d._labels
    bottom, top = labels[:n], labels[n:]
    # the bottom labels number the parts meeting the bottom row in
    # canonical order, and a through part's label appears on top too;
    # bottom + through is then already a restricted-growth string
    through = tuple(sorted(set(bottom).intersection(top)))
    middle = len(through)
    if isinstance(d, WalledBrauerDiagram):
        # through edges run in the order of their bottom ends, which on a
        # walled row puts every color-1 edge before every color-2 one
        p1 = len(set(bottom[: d.bottom_colors[0]]).intersection(top))
        middle = (p1, middle - p1)
    down = type(d)._trusted(d.bottom, middle, bottom + through)
    up = type(d)._trusted(middle, d.top, renumbered(through + top))
    return Factorization(middle, down, up)


_AXIOM_VARIANTS = ("brauer", "partition", "temperley_lieb")

# Down-after-up pairs, counted as in _check_pair_budget. On 2 CPUs
# (Python 3.11.7, cold, three runs each) verify_t3 took 0.05-0.08 s on
# partition 4 -> 4 (99,360, criterion 3's largest), 0.02-0.03 s on
# brauer 5 -> 5 (113,400) and 1.7-2.5 s on temperley_lieb 11 -> 11
# (58,786, on 22 vertices, about half of it enumerating); it took
# 0.28-0.45 s on partition 5 -> 4 (507,528) and 0.56-0.70 s on brauer
# 6 -> 6 (7,484,400), and the axiom checks to brauer size 6 (7,647,592)
# took 2.2 s.
T3_PAIR_BUDGET = 200_000


def _middle_aut_order(variant, p):
    # order of the bijection group of the middle object inside the category
    return 1 if variant == "temperley_lieb" else factorial(p)


def _check_pair_budget(variant, spaces):
    """Refuse, before any basis is built, hom spaces with more than
    T3_PAIR_BUDGET down-after-up pairs in all. A diagram of Hom([n],[m])
    through p <= min(n, m) middle vertices comes from as many pairs as
    [p] has bijections, which bounds the pairs. The count stops at the
    first space past the budget, so none larger is counted."""
    pairs = 0
    for n, m in spaces:
        pairs += _hom_size(variant, n, m, T3_PAIR_BUDGET) * _middle_aut_order(variant, min(n, m))
        if pairs > T3_PAIR_BUDGET:
            raise DimensionBudgetExceeded(
                f"{pairs} pairs up to size {max(n, m)} exceed the pair budget {T3_PAIR_BUDGET}"
            )


def _flagged(variant, x, y, flags):
    """The upwards and the downwards diagrams of Hom(x, y), each a dict
    from basis index to diagram, flagged once per check in its dict `flags`."""
    if (x, y) not in flags:
        basis = hom_basis(variant, x, y)
        flags[x, y] = tuple(
            {k: d for k, d in enumerate(basis) if flag(d)} for flag in (is_upwards, is_downwards)
        )
    return flags[x, y]


def _t3_report(variant, n, m, flags):
    """verify_t3's report on Hom([n],[m]), and whether none of its
    up-after-down composites closed a loop."""
    basis = hom_basis(variant, n, m)
    index = _basis_index(variant, n, m)
    through = {}  # basis index -> the middle object of each pair giving it
    loop_free = True
    # an empty hom space has an empty factor at every middle object
    for p in range(min(n, m) + 1 if basis else 0):
        downs = [*_flagged(variant, n, p, flags)[1].values()]
        ups = [*_flagged(variant, p, m, flags)[0].values()]
        for row in _products(variant, downs, ups, index):
            for closed, _, k in row:
                if closed:
                    loop_free = False
                else:
                    through.setdefault(k, []).append(p)
    # a diagram counts when its pairs form one free orbit: all through
    # one middle object p, as many as its bijections
    lhs_dim = 0
    for ps in through.values():
        if ps[0] == ps[-1] and len(ps) == _middle_aut_order(variant, ps[0]):
            lhs_dim += 1
    report = {
        "category": variant,
        "source": n,
        "target": m,
        "lhs_dim": lhs_dim,
        "rhs_dim": len(basis),
        "pass": loop_free and lhs_dim == len(basis),
    }
    return report, loop_free


def verify_t3(variant, n, m):
    """Orbit-count the up-after-down factorizations of Hom([n],[m]).

    Every diagram must arise from exactly one orbit of (down, up) pairs
    under the middle bijection group acting freely, and the number of
    orbits must equal the hom dimension. More than T3_PAIR_BUDGET pairs
    are refused with DimensionBudgetExceeded before any basis is built.
    """
    if variant not in _AXIOM_VARIANTS:
        raise UnsupportedVariant.of("the (T3) count", variant, _AXIOM_VARIANTS)
    n, m = check_nonnegative("row size", n, m)
    _check_pair_budget(variant, [(n, m)])
    return _t3_report(variant, n, m, {})[0]


def check_triangular_axioms(variant, max_size):
    """Exhaustively verify the triangular axioms up to the given size.

    Every hom space is read from the shared `hom_basis`. The pairs of
    criterion (c) and (T3) are composed in bulk by `_products`, those of
    (c) once per subcategory they lie in. More than T3_PAIR_BUDGET (T3)
    pairs in all are refused before any basis is built.
    """
    if variant not in _AXIOM_VARIANTS:
        raise UnsupportedVariant.of("the triangular-axiom check", variant, _AXIOM_VARIANTS)
    [max_size] = check_nonnegative("max_size", max_size)
    sizes = range(max_size + 1)
    # the spaces of each size come after those of the smaller sizes
    growing = ((n, m) for s in sizes for n, m in product(range(s + 1), repeat=2) if s in (n, m))
    _check_pair_budget(variant, growing)
    t1_pass = t2_pass = crit_c_pass = crit_d_pass = True
    hom_dims = {}
    t3_reports = {}
    flags = {}
    for n, m in product(sizes, repeat=2):
        basis = hom_basis(variant, n, m)
        hom_dims[f"{n}->{m}"] = len(basis)
        # (T1), structural part: both-ways diagrams are exactly the bijections
        ups, downs = _flagged(variant, n, m, flags)
        if n == m:
            both = ups.keys() & downs.keys()
            expected = _middle_aut_order(variant, n)
            if len(both) != expected or not all(_is_bijection_diagram(basis[k]) for k in both):
                t1_pass = False
        # (T2): hom spaces of the wide subcategories respect the size order
        if n != m and (ups if n > m else downs):
            t2_pass = False
        # criterion (d): the explicit factorization recomposes
        for d in basis:
            fac = factorize(d)
            res = compose(fac.up, fac.down)
            if res.closed_count != 0 or res.result != d:
                crit_d_pass = False
            if not is_downwards(fac.down) or not is_upwards(fac.up):
                crit_d_pass = False
        # orbit counting confirms (d)'s uniqueness modulo the middle
        # bijections, and composes (c)'s up-after-down pairs
        rep, loop_free = _t3_report(variant, n, m, flags)
        t3_reports[f"{n}->{m}"] = rep
        crit_c_pass = crit_c_pass and loop_free
        crit_d_pass = crit_d_pass and rep["pass"]

    # criterion (c): the subcategories are closed under composition
    for n, m, k in product(sizes, repeat=3):
        index = _basis_index(variant, n, k)
        # the upwards pairs, then the downwards ones
        for i in range(2):
            fs, gs, held = (_flagged(variant, x, y, flags)[i] for x, y in ((n, m), (m, k), (n, k)))
            for row in _products(variant, [*fs.values()], [*gs.values()], index):
                if any(closed or j not in held for closed, _, j in row):
                    crit_c_pass = False

    return {
        "category": variant,
        "max_size": max_size,
        "t0": {"pass": True, "hom_dims": hom_dims},
        "t1": {"pass": t1_pass, "end_m_semisimple": "assumed (char 0)"},
        "t2": {"pass": t2_pass},
        "t3": {
            "pass": crit_c_pass and crit_d_pass,
            "criterion_c": crit_c_pass,
            "criterion_d": crit_d_pass,
            "per_hom": t3_reports,
        },
        "pass": t1_pass and t2_pass and crit_c_pass and crit_d_pass,
    }


def _is_bijection_diagram(d):
    # each part is one bottom and one top vertex: bottom labels 0..n-1, each once on top
    n, labels = d.n, d.labels()
    return labels[:n] == tuple(range(n)) and sorted(labels[n:]) == list(range(n))
