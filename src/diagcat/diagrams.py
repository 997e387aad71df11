"""Diagram construction, validation, enumeration and structural predicates.

Vertices are pairs (row, index) with row 0 = bottom, row 1 = top and the
index 1-based within its row. Only skeletal objects are representable:
the rows are [n] and [m] (with a color split for the walled variant).
All diagram values are immutable and stored in canonical form, so that
equality, hashing and enumeration order are purely structural.
"""

from itertools import combinations, permutations
from operator import attrgetter

from .errors import (
    ColorViolation,
    NotAMatching,
    NotAPartition,
    NotInjective,
    ParityViolation,
    UnsupportedVariant,
    VariantMismatch,
)

BOTTOM, TOP = 0, 1


def vertex_text(v):
    row, i = v
    return ("b" if row == BOTTOM else "t") + str(i)


def _canon_edge(e):
    a, b = e
    return (a, b) if a <= b else (b, a)


def _check_vertices(vertices, n, m, exc=NotAMatching):
    for row, i in vertices:
        size = n if row == BOTTOM else m
        if not 1 <= i <= size:
            raise exc(f"vertex {vertex_text((row, i))} out of range")


class Diagram:
    """Identity shared by every diagram value.

    A subclass names its identity fields once, in `_fields`; they are
    stored canonically and never change. Two values are equal when
    they have the same class and the same fields, the hash is computed
    once from them, and `sort_key()` and `<` order by them.
    """

    __slots__ = ("n", "m", "_hash", "_labels")
    _fields = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __init__(self, *values):
        # subclasses validate and canonicalize first; the leading fields
        # given are set, so the signed class can add its arrows after
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    @classmethod
    def _trusted(cls, *values):
        """Build from field values that are already canonical, unchecked."""
        # the loop of __init__, inlined: compositions build every result here
        self = object.__new__(cls)
        for set_field, value in zip(cls._setters, values):
            set_field(self, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("diagrams are immutable")

    bottom = property(attrgetter("n"))
    top = property(attrgetter("m"))

    def labels(self):
        """Index in `parts` of the part holding each vertex, in the order
        b1..bn, t1..tm; computed once and kept on the value.

        Parts are numbered in canonical order, so for a partition this
        is its restricted-growth string.
        """
        try:
            return self._labels
        except AttributeError:
            n = self.n
            labels = [0] * (n + self.m)
            for label, part in enumerate(self.parts):
                for row, i in part:
                    labels[i - 1 if row == BOTTOM else n + i - 1] = label
            labels = tuple(labels)
            object.__setattr__(self, "_labels", labels)
            return labels

    def sort_key(self):
        return self._key(self)

    def __eq__(self, other):
        return type(other) is type(self) and self._key(self) == other._key(other)

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._key(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __lt__(self, other):
        return self._key(self) < other._key(other)

    def __repr__(self):
        return f"<{type(self).__name__} {self.to_text()}>"


def _matching_edges(n, m, edges):
    """The canonical edge tuple of a perfect matching on [n] and [m]."""
    edges = tuple(sorted(_canon_edge(tuple(e)) for e in edges))
    _check_vertices((v for e in edges for v in e), n, m)
    seen = set()
    for e in edges:
        for v in e:
            if v in seen:
                raise NotAMatching(f"vertex {vertex_text(v)} used twice")
            seen.add(v)
    if (n + m) % 2 != 0:
        detail = ""
        if len(seen) != n + m:
            detail = f" ({vertex_text(_first_missing(seen, n, m))} unmatched)"
        raise ParityViolation(f"no matching on {n}+{m} vertices{detail}")
    if len(seen) != n + m:
        missing = _first_missing(seen, n, m)
        raise NotAMatching(f"vertex {vertex_text(missing)} unmatched")
    return edges


class BrauerDiagram(Diagram):
    """Perfect matching on the disjoint union of a bottom and a top row.

    Its parts are its edges: a canonical edge is laid out like a
    canonical two-element block, so the structural routines read
    matchings and partitions alike.
    """

    variant = "brauer"
    __slots__ = ("parts",)
    _fields = ("n", "m", "parts")
    edges = property(attrgetter("parts"))

    def __init__(self, n, m, edges):
        super().__init__(n, m, _matching_edges(n, m, edges))

    def to_text(self):
        body = "".join(
            f"({vertex_text(a)} {vertex_text(b)})" for a, b in self.edges
        )
        return f"{self.n}->{self.m}:{body}"

    def to_json(self):
        return {
            "variant": self.variant,
            "bottom": self.n,
            "top": self.m,
            "edges": [[vertex_text(a), vertex_text(b)] for a, b in self.edges],
        }


class TemperleyLiebDiagram(BrauerDiagram):
    """Planar Brauer diagram: no two edges cross under the order
    b1 < ... < bn < tm < ... < t1."""

    variant = "temperley_lieb"
    __slots__ = ()

    def __init__(self, n, m, edges):
        super().__init__(n, m, edges)
        if not is_planar(self):
            raise NotAMatching("diagram is not planar")


def _first_missing(seen, n, m):
    for i in range(1, n + 1):
        if (BOTTOM, i) not in seen:
            return (BOTTOM, i)
    for i in range(1, m + 1):
        if (TOP, i) not in seen:
            return (TOP, i)
    raise AssertionError


def iota_key(v, n, m):
    """Position in the total order b1 < ... < bn < tm < ... < t1."""
    row, i = v
    return i if row == BOTTOM else n + m + 1 - i


class SignedBrauerDiagram(BrauerDiagram):
    """Brauer diagram whose horizontal edges carry orientations.

    `arrows` stores each horizontal edge as a (tail, head) pair. Values
    with any orientation are representable; `canonicalize` rewrites to
    the reference orientation (tail = smaller endpoint in the iota
    order) and reports the sign picked up.
    """

    variant = "signed"
    __slots__ = ("arrows", "_epsilon")
    _fields = ("n", "m", "parts", "arrows")

    def __init__(self, n, m, edges, arrows=None):
        super().__init__(n, m, edges)
        horizontal = [e for e in self.parts if e[0][0] == e[1][0]]
        if arrows is None:
            arrows = [canonical_arrow(e, n, m) for e in horizontal]
        arrows = tuple(sorted(tuple(a) for a in arrows))
        if len(arrows) != len(horizontal) or set(map(frozenset, arrows)) != set(
            map(frozenset, horizontal)
        ):
            raise NotAMatching("arrows must orient exactly the horizontal edges")
        object.__setattr__(self, "arrows", arrows)

    def canonicalize(self):
        """(sign, diagram with reference orientations); sign = (-1)^flips."""
        flips = 0
        fixed = []
        for tail, head in self.arrows:
            canon = canonical_arrow((tail, head), self.n, self.m)
            if (tail, head) != canon:
                flips += 1
            fixed.append(canon)
        if flips == 0:
            return 1, self
        sign = -1 if flips % 2 else 1
        return sign, SignedBrauerDiagram._trusted(
            self.n, self.m, self.edges, tuple(sorted(fixed))
        )

    def to_text(self):
        oriented = {frozenset(a): a for a in self.arrows}
        parts = []
        for a, b in self.edges:
            arrow = oriented.get(frozenset((a, b)))
            if arrow is None:
                parts.append(f"({vertex_text(a)} {vertex_text(b)})")
            else:
                parts.append(f"({vertex_text(arrow[0])}>{vertex_text(arrow[1])})")
        return f"{self.n}->{self.m}:{''.join(parts)}"

    def to_json(self):
        oriented = {frozenset(a): a for a in self.arrows}
        edges = []
        for a, b in self.edges:
            arrow = oriented.get(frozenset((a, b)))
            pair = (a, b) if arrow is None else arrow
            edges.append([vertex_text(pair[0]), vertex_text(pair[1])])
        return {
            "variant": self.variant,
            "bottom": self.n,
            "top": self.m,
            "edges": edges,
        }


def canonical_arrow(edge, n, m):
    a, b = edge
    if iota_key(a, n, m) <= iota_key(b, n, m):
        return (a, b)
    return (b, a)


class WalledBrauerDiagram(BrauerDiagram):
    """Brauer diagram on 2-colored rows.

    Rows are pairs (count of color 1, count of color 2); within a row,
    all color-1 vertices come before all color-2 vertices. Vertical
    edges join equal colors, horizontal edges join different colors.
    """

    variant = "walled"
    __slots__ = ("bottom_colors", "top_colors")
    _fields = ("bottom_colors", "top_colors", "parts")

    # the row sizes follow from the color counts
    n = property(lambda self: sum(self.bottom_colors))
    m = property(lambda self: sum(self.top_colors))

    def __init__(self, bottom, top, edges):
        n1, n2 = bottom
        m1, m2 = top
        edges = _matching_edges(n1 + n2, m1 + m2, edges)
        Diagram.__init__(self, (n1, n2), (m1, m2), edges)
        for a, b in self.edges:
            same_row = a[0] == b[0]
            same_color = self.color(a) == self.color(b)
            if same_row and same_color:
                raise ColorViolation(
                    f"horizontal edge {vertex_text(a)} {vertex_text(b)} joins equal colors"
                )
            if not same_row and not same_color:
                raise ColorViolation(
                    f"vertical edge {vertex_text(a)} {vertex_text(b)} joins different colors"
                )

    @property
    def bottom(self):
        return self.bottom_colors

    @property
    def top(self):
        return self.top_colors

    def color(self, v):
        row, i = v
        split = self.bottom_colors[0] if row == BOTTOM else self.top_colors[0]
        return 1 if i <= split else 2

    def to_text(self):
        n1, n2 = self.bottom_colors
        m1, m2 = self.top_colors
        body = "".join(
            f"({vertex_text(a)} {vertex_text(b)})" for a, b in self.edges
        )
        return f"{n1}+{n2}->{m1}+{m2}:{body}"

    def to_json(self):
        return {
            "variant": self.variant,
            "bottom": list(self.bottom_colors),
            "top": list(self.top_colors),
            "edges": [[vertex_text(a), vertex_text(b)] for a, b in self.edges],
        }


class PartitionDiagram(Diagram):
    """Set partition of the bottom and top rows into nonempty blocks,
    which are its parts."""

    variant = "partition"
    __slots__ = ("parts",)
    _fields = ("n", "m", "parts")
    blocks = property(attrgetter("parts"))

    def __init__(self, n, m, blocks):
        blocks = tuple(
            sorted(tuple(sorted(set(map(tuple, b)))) for b in blocks)
        )
        if any(not b for b in blocks):
            raise NotAPartition("empty block")
        _check_vertices((v for b in blocks for v in b), n, m, exc=NotAPartition)
        seen = set()
        for b in blocks:
            for v in b:
                if v in seen:
                    raise NotAPartition(
                        f"vertex {vertex_text(v)} in two blocks"
                    )
                seen.add(v)
        if len(seen) != n + m:
            raise NotAPartition("blocks do not cover all vertices")
        super().__init__(n, m, blocks)

    def to_text(self):
        body = "".join(
            "{" + " ".join(vertex_text(v) for v in b) + "}" for b in self.blocks
        )
        return f"{self.n}->{self.m}:{body}"

    def to_json(self):
        return {
            "variant": self.variant,
            "bottom": self.n,
            "top": self.m,
            "blocks": [[vertex_text(v) for v in b] for b in self.blocks],
        }


class DegeneratePartitionDiagram(PartitionDiagram):
    """Partition diagram under the degenerate rule: a composite whose
    glued blocks close a cycle is zero."""

    variant = "degenerate"
    __slots__ = ()


class PartialInjection(Diagram):
    """Injection from a subset of the bottom row to a subset of the top."""

    variant = "fisharp"
    __slots__ = ("pairs",)
    _fields = ("n", "m", "pairs")

    def __init__(self, n, m, pairs):
        pairs = tuple(sorted((int(a), int(b)) for a, b in pairs))
        for a, b in pairs:
            if not (1 <= a <= n and 1 <= b <= m):
                raise NotInjective(f"pair b{a}->t{b} out of range")
        dom = [a for a, _ in pairs]
        img = [b for _, b in pairs]
        if len(set(dom)) != len(dom):
            raise NotInjective("repeated source vertex")
        if len(set(img)) != len(img):
            raise NotInjective("repeated target vertex")
        super().__init__(n, m, pairs)

    def as_dict(self):
        return dict(self.pairs)

    def to_text(self):
        body = ", ".join(f"b{a}->t{b}" for a, b in self.pairs)
        return f"{self.n}->{self.m}:[{body}]"

    def to_json(self):
        return {
            "variant": self.variant,
            "bottom": self.n,
            "top": self.m,
            "pairs": [[f"b{a}", f"t{b}"] for a, b in self.pairs],
        }


# the class of each variant, in the order the CLI lists them
_CLASSES = {
    "brauer": BrauerDiagram,
    "signed": SignedBrauerDiagram,
    "walled": WalledBrauerDiagram,
    "temperley_lieb": TemperleyLiebDiagram,
    "partition": PartitionDiagram,
    "degenerate": DegeneratePartitionDiagram,
    "fisharp": PartialInjection,
}
VARIANTS = tuple(_CLASSES)


def variant_class(variant):
    """The diagram class of a variant name."""
    try:
        return _CLASSES[variant]
    except (KeyError, TypeError):
        raise UnsupportedVariant(f"unknown variant {variant!r}") from None


def make_diagram(variant, bottom, top, data):
    """Validate and build the canonical diagram of the given variant."""
    cls = variant_class(variant)
    if cls is SignedBrauerDiagram:
        edges = [tuple(e) for e in data]
        arrows = [e for e in edges if e[0][0] == e[1][0]]
        return cls(bottom, top, edges, arrows)
    return cls(bottom, top, data)


def is_upwards(d):
    """No structure below: the diagram lives in the upwards subcategory."""
    return _through_from(d, BOTTOM)


def is_downwards(d):
    """No structure above: the diagram lives in the downwards subcategory."""
    return _through_from(d, TOP)


def _through_from(d, row):
    """No part meets `row` twice or lies in `row` entirely."""
    if isinstance(d, PartialInjection):
        return len(d.pairs) == (d.n if row == BOTTOM else d.m)
    # parts list their bottom vertices first, so a part meets the bottom
    # row twice or lies in it entirely exactly when its second vertex (or
    # its only one) is a bottom vertex; the top row is read from the end
    if row == BOTTOM:
        for part in d.parts:
            if part[:2][-1][0] == BOTTOM:
                return False
    else:
        for part in d.parts:
            if part[-2:][0][0] == TOP:
                return False
    return True


def is_planar(d):
    """No crossing under the order b1 < ... < bn < tm < ... < t1."""
    n, m = d.n, d.m
    pos = [tuple(sorted(iota_key(v, n, m) for v in e)) for e in d.edges]
    for (x, y), (z, w) in combinations(pos, 2):
        if x < z < y < w or z < x < w < y:
            return False
    return True


def transpose(d):
    """Exchange the two rows; an involution."""
    if isinstance(d, SignedBrauerDiagram):
        raise UnsupportedVariant("transpose of signed diagrams is not defined")
    if isinstance(d, PartialInjection):
        return PartialInjection(d.m, d.n, [(b, a) for a, b in d.pairs])
    parts = sorted([tuple(sorted([(1 - row, i) for row, i in p])) for p in d.parts])
    # the fields of a walled value start with the colorings, not the sizes
    return type(d)._trusted(d.top, d.bottom, tuple(parts))


def disjoint_union(d1, d2):
    """Place d2 to the right of d1; vertices of d2 are re-indexed."""
    if type(d1) is not type(d2):
        raise VariantMismatch(
            f"cannot union {type(d1).__name__} with {type(d2).__name__}"
        )
    if isinstance(d1, WalledBrauerDiagram):
        return _walled_union(d1, d2)
    if isinstance(d1, PartialInjection):
        pairs = list(d1.pairs) + [(a + d1.n, b + d1.m) for a, b in d2.pairs]
        return PartialInjection(d1.n + d2.n, d1.m + d2.m, pairs)
    n, m = d1.n, d1.m

    def shift(part):
        return tuple([(row, i + (n if row == BOTTOM else m)) for row, i in part])

    # shifting keeps each part of d2 sorted, so only the order of the
    # parts has to be restored
    parts = tuple(sorted(d1.parts + tuple(map(shift, d2.parts))))
    if isinstance(d1, SignedBrauerDiagram):
        arrows = tuple(sorted(d1.arrows + tuple(map(shift, d2.arrows))))
        return SignedBrauerDiagram._trusted(n + d2.n, m + d2.m, parts, arrows)
    return type(d1)._trusted(n + d2.n, m + d2.m, parts)


def _walled_union(d1, d2):
    # color-1 vertices of both diagrams precede all color-2 vertices
    nb = (d1.bottom_colors[0] + d2.bottom_colors[0],
          d1.bottom_colors[1] + d2.bottom_colors[1])
    nt = (d1.top_colors[0] + d2.top_colors[0],
          d1.top_colors[1] + d2.top_colors[1])

    def f1(v):
        row, i = v
        split = d1.bottom_colors[0] if row == BOTTOM else d1.top_colors[0]
        add = d2.bottom_colors[0] if row == BOTTOM else d2.top_colors[0]
        return (row, i) if i <= split else (row, i + add)

    def f2(v):
        row, i = v
        split = d2.bottom_colors[0] if row == BOTTOM else d2.top_colors[0]
        c1, c2 = d1.bottom_colors if row == BOTTOM else d1.top_colors
        return (row, i + c1) if i <= split else (row, i + c1 + c2)

    edges = [_canon_edge((f1(a), f1(b))) for a, b in d1.edges] + [
        _canon_edge((f2(a), f2(b))) for a, b in d2.edges
    ]
    return WalledBrauerDiagram._trusted(nb, nt, tuple(sorted(edges)))


def _matchings(points):
    if not points:
        yield []
        return
    first = points[0]
    for idx in range(1, len(points)):
        rest = points[1:idx] + points[idx + 1 :]
        for sub in _matchings(rest):
            yield [(first, points[idx])] + sub


def _noncrossing(points):
    """Noncrossing perfect matchings of points listed in circular order.

    The first point pairs with a point at odd distance, which leaves an
    even number of points on each side of that edge; the two sides are
    then matched independently (Knuth, TAOCP 4A, 7.2.1.6).
    """
    if not points:
        yield []
        return
    first = points[0]
    for idx in range(1, len(points), 2):
        for inner in _noncrossing(points[1:idx]):
            for outer in _noncrossing(points[idx + 1 :]):
                yield [(first, points[idx])] + inner + outer


def _set_partitions(points):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for sub in _set_partitions(rest):
        yield [[first]] + sub
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]


def enumerate_diagrams(variant, bottom, top):
    """All canonical diagrams of the hom space, in sorted order."""
    cls = variant_class(variant)
    walled = cls is WalledBrauerDiagram
    n, m = (sum(bottom), sum(top)) if walled else (bottom, top)
    points = [(BOTTOM, i) for i in range(1, n + 1)] + [
        (TOP, i) for i in range(1, m + 1)
    ]
    out = []
    if issubclass(cls, PartitionDiagram):
        out = [
            cls._trusted(n, m, tuple(sorted(map(tuple, blocks))))
            for blocks in _set_partitions(points)
        ]
    elif cls is PartialInjection:
        bot = list(range(1, n + 1))
        for k in range(min(n, m) + 1):
            for dom in combinations(bot, k):
                for img in _injections(k, m):
                    out.append(PartialInjection(n, m, list(zip(dom, img))))
    elif (n + m) % 2:  # no matching on an odd number of points
        pass
    elif cls is TemperleyLiebDiagram:
        # the points in the order b1 < ... < bn < tm < ... < t1
        for edges in _noncrossing(points[:n] + points[n:][::-1]):
            out.append(cls._trusted(n, m, tuple(sorted(map(_canon_edge, edges)))))
    elif walled:
        bottom, top = tuple(bottom), tuple(top)

        def color(v):
            row, i = v
            return 1 if i <= (bottom[0] if row == BOTTOM else top[0]) else 2

        # _matchings yields each matching as canonical edges in sorted order
        for edges in _matchings(points):
            if all((color(a) == color(b)) != (a[0] == b[0]) for a, b in edges):
                out.append(cls._trusted(bottom, top, tuple(edges)))
    elif cls is SignedBrauerDiagram:
        for edges in _matchings(points):
            arrows = [canonical_arrow(e, n, m) for e in edges if e[0][0] == e[1][0]]
            out.append(cls._trusted(n, m, tuple(edges), tuple(sorted(arrows))))
    else:
        out = [cls._trusted(n, m, tuple(edges)) for edges in _matchings(points)]
    return sorted(out, key=Diagram.sort_key)


def _injections(k, m):
    if k == 0:
        yield ()
        return
    for img in combinations(range(1, m + 1), k):
        yield from permutations(img)


def identity_diagram(variant, size):
    """id on the object [size] (a color pair for the walled variant)."""
    cls = variant_class(variant)
    if cls is PartialInjection:
        return cls(size, size, [(i, i) for i in range(1, size + 1)])
    total = sum(size) if cls is WalledBrauerDiagram else size
    return cls(size, size, [((BOTTOM, i), (TOP, i)) for i in range(1, total + 1)])
