"""Diagram construction, validation, enumeration and structural predicates.

Vertices are pairs (row, index) with row 0 = bottom, row 1 = top and the
index 1-based within its row; an entry is read by value, so (0, 1.0) is
b1. Only skeletal objects are representable: the rows are [n] and [m]
(with a color split for the walled variant). All diagram values are
immutable and stored in canonical form, so that equality, hashing and
enumeration order are purely structural.

Every value is a set partition of its two rows: a matching into its
edges, a partition into its blocks, a partial injection into the pairs
{b_a, t_b} it maps and singletons. It is stored as its restricted-growth
string (Knuth, TAOCP 4A, 7.2.1.5): `labels()` numbers the part holding
each vertex of b1..bn, t1..tm, parts numbered by first appearance. With
the rows, that flat int tuple is the value's identity; an oriented
value adds the labels of its edges that point against the reference
orientation. The nested parts (a matching's `edges`, a partition's
`blocks`), a partial injection's `pairs` and an oriented value's
`arrows` are views, derived from the labels on each read and never
stored. Sorting follows these views.

Enumeration builds no view and checks nothing: the generators work on
positions, position k being the k-th vertex of b1..bn, t1..tm, and their
parts of positions are filled straight into labels; a partial
injection's pairs go through the labels routine its constructor uses.
"""

from itertools import combinations, count, permutations
from operator import attrgetter

from .errors import (
    ColorViolation,
    NotAMatching,
    NotAPartition,
    NotInjective,
    ParityViolation,
    ShapeMismatch,
    UnsupportedVariant,
    VariantMismatch,
)

BOTTOM, TOP = 0, 1


def vertex_text(v):
    row, i = v
    return ("b" if row == BOTTOM else "t") + str(i)


def _vertex(n, k):
    """The k-th vertex of b1..bn, t1..tm, counting from 0."""
    return (BOTTOM, k + 1) if k < n else (TOP, k + 1 - n)


def as_int(x):
    """An integral number as that int, judged by value; None for anything
    else."""
    if type(x) is int:
        return x
    try:
        value = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return value if value == x else None


def check_nonnegative(what, *sizes):
    """The row sizes, color counts or sweep sizes as ints, judged by
    value. Anything else, or a negative size, is refused up front."""
    out = []
    for size in sizes:
        value = as_int(size)
        if value is None:
            raise ShapeMismatch(f"{what} {size!r} is not an integer")
        if value < 0:
            raise ShapeMismatch(f"{what} {value} is negative")
        out.append(value)
    return out


def _int_pair(entry, exc, what):
    """A vertex (row, index) or a pair (a, b) as two ints, each judged by
    value; anything else is refused with `exc`."""
    try:
        x, y = entry
    except (TypeError, ValueError):
        x = y = None
    x, y = as_int(x), as_int(y)
    if x is None or y is None:
        raise exc(f"{what} {entry!r} is not a pair of integers")
    return x, y


def _color_counts(row):
    """A walled row, a pair of color counts, as a tuple of ints."""
    try:
        first, second = row
    except (TypeError, ValueError):
        raise ShapeMismatch(f"a walled row is a pair of color counts, not {row!r}") from None
    return tuple(check_nonnegative("color count", first, second))


def _canon_edge(e):
    a, b = e
    return (a, b) if a <= b else (b, a)


class Diagram:
    """Identity shared by every diagram value.

    A subclass names its identity fields once, in `_fields`: the two
    rows and the labels, in the order `_trusted` takes them, and for the
    signed class its flips. They are stored canonically and never
    change. Two values are equal when they have the same class and the
    same fields, and the hash is computed once from them.

    `parts` lists the parts of `labels()` in canonical order, each a
    sorted tuple of vertices, part k holding the vertices labelled k;
    like every view, it is derived from the labels on each read.
    `sort_key()` and `<` read, in place of each field `_views` names,
    the view it names (the parts, a partial injection's pairs, an
    oriented value's arrows), so that values sort as those views do.
    """

    __slots__ = ("n", "m", "_hash", "_labels")
    _fields = ("n", "m", "_labels")
    _views = {"_labels": "parts"}

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)
        cls._order = attrgetter(*(cls._views.get(f, f) for f in cls._fields))
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __init__(self, first, second, data):
        # subclasses validate first; the signed class adds its flips after
        setters = self._setters
        setters[0](self, first)
        setters[1](self, second)
        setters[2](self, data)

    @classmethod
    def _trusted(cls, first, second, data):
        """Build from field values that are already canonical, unchecked."""
        self = object.__new__(cls)
        Diagram.__init__(self, first, second, data)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("diagrams are immutable")

    bottom = property(attrgetter("n"))
    top = property(attrgetter("m"))

    def sort_key(self):
        return self._order(self)

    def __eq__(self, other):
        return type(other) is type(self) and self._key(self) == other._key(other)

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._key(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __lt__(self, other):
        return self._order(self) < other._order(other)

    def __repr__(self):
        return f"<{type(self).__name__} {self.to_text()}>"

    def labels(self):
        """The restricted-growth string of the parts: the index in
        `parts` of the part holding each vertex, in the order b1..bn,
        t1..tm."""
        return self._labels

    @property
    def parts(self):
        """Derived from the labels on each read: the labels number the
        parts by first appearance, which is their canonical order."""
        n, parts = self.n, {}
        for k, label in enumerate(self._labels):
            parts.setdefault(label, []).append((BOTTOM, k + 1) if k < n else (TOP, k + 1 - n))
        return tuple(map(tuple, parts.values()))


def _labels_of(n, m, parts, exc=NotAMatching, twice="used twice"):
    """The labels of canonical parts on [n] and [m] as a list, None at a
    vertex no part holds. A vertex out of range raises `exc`; failing
    that, one in two parts does, `twice` completing the message."""
    labels = [None] * (n + m)
    repeated = None
    for label, part in enumerate(parts):
        for v in part:
            row, i = v
            if not (0 < i <= n if row == BOTTOM else row == TOP and 0 < i <= m):
                raise exc(f"vertex {vertex_text(v)} out of range")
            k = i - 1 if row == BOTTOM else n + i - 1
            if labels[k] is not None:
                repeated = repeated or v
            labels[k] = label
    if repeated:
        raise exc(f"vertex {vertex_text(repeated)} {twice}")
    return labels


def _matching(n, m, edges):
    """The canonical edges of a perfect matching on [n] and [m], and its labels."""
    edges = tuple(sorted(
        _canon_edge([_int_pair(v, NotAMatching, "vertex") for v in e]) for e in edges
    ))
    labels = _labels_of(n, m, edges)
    unmatched = None in labels and vertex_text(_vertex(n, labels.index(None)))
    if (n + m) % 2 != 0:
        detail = f" ({unmatched} unmatched)" if unmatched else ""
        raise ParityViolation(f"no matching on {n}+{m} vertices{detail}")
    if unmatched:
        raise NotAMatching(f"vertex {unmatched} unmatched")
    return edges, tuple(labels)


class BrauerDiagram(Diagram):
    """Perfect matching on the disjoint union of a bottom and a top row.

    Its parts are its edges: a canonical edge is laid out like a
    canonical two-element block, so the structural routines read
    matchings and partitions alike.
    """

    variant = "brauer"
    __slots__ = ()
    edges = Diagram.parts

    def __init__(self, n, m, edges):
        n, m = check_nonnegative("row size", n, m)
        super().__init__(n, m, _matching(n, m, edges)[1])

    def _ends(self):
        """Each edge as (first end, separator, second end), in the order
        of `edges`."""
        return [(a, " ", b) for a, b in self.edges]

    def to_text(self):
        # a walled object prints as n1+n2
        rows = (
            "+".join(map(str, r)) if isinstance(r, tuple) else str(r)
            for r in (self.bottom, self.top)
        )
        body = "".join(f"({vertex_text(a)}{sep}{vertex_text(b)})" for a, sep, b in self._ends())
        return f"{'->'.join(rows)}:{body}"

    def to_json(self):
        bottom, top = self.bottom, self.top
        return {
            "variant": self.variant,
            "bottom": list(bottom) if isinstance(bottom, tuple) else bottom,
            "top": list(top) if isinstance(top, tuple) else top,
            "edges": [[vertex_text(a), vertex_text(b)] for a, _, b in self._ends()],
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


class SignedBrauerDiagram(BrauerDiagram):
    """Brauer diagram whose horizontal edges carry orientations.

    The reference orientation points a horizontal edge from its smaller
    end to its larger one in the order b1 < ... < bn < tm < ... < t1.
    `flips` lists, sorted, the labels of the horizontal edges that point
    the other way; `arrows` is a view giving each horizontal edge as a
    (tail, head) pair, sorted. Values with any orientation are
    representable; `canonicalize` drops the flips and reports the sign
    picked up.
    """

    variant = "signed"
    __slots__ = ("flips", "_epsilon")
    _fields = ("n", "m", "_labels", "flips")
    _views = {"_labels": "parts", "flips": "arrows"}

    def __init__(self, n, m, edges, arrows=None):
        super().__init__(n, m, edges)
        flips = ()
        if arrows is not None:
            # each arrow as a canonical edge, and the tails of those
            # pointing from the right end of a bottom edge or from the
            # left end of a top one
            ends, tails = [], []
            try:
                for arrow in arrows:
                    tail, head = [_int_pair(v, NotAMatching, "vertex") for v in arrow]
                    ends.append((tail, head) if tail < head else (head, tail))
                    if (tail < head) == (tail[0] == TOP):
                        tails.append(tail)
            except (TypeError, ValueError):
                ends = None
            if ends is None or sorted(ends) != [e for e in self.parts if e[0][0] == e[1][0]]:
                raise NotAMatching("arrows must orient exactly the horizontal edges")
            n, labels = self.n, self._labels
            flips = tuple(sorted([labels[i - 1 if row == BOTTOM else n + i - 1] for row, i in tails]))
        _set_flips(self, flips)

    @classmethod
    def _trusted(cls, n, m, labels, flips=()):
        self = object.__new__(cls)
        Diagram.__init__(self, n, m, labels)
        _set_flips(self, flips)
        return self

    def canonicalize(self):
        """(sign, diagram with reference orientations); sign = (-1)^flips."""
        flips = self.flips
        if not flips:
            return 1, self
        sign = -1 if len(flips) % 2 else 1
        return sign, SignedBrauerDiagram._trusted(self.n, self.m, self._labels)

    def _ends(self):
        # a horizontal edge prints tail>head; the reference tail is the
        # left end of a bottom edge and the right end of a top one
        flips = self.flips
        ends = []
        for k, (a, b) in enumerate(self.edges):
            if a[0] != b[0]:
                ends.append((a, " ", b))
            elif (a[0] == TOP) != (k in flips):
                ends.append((b, ">", a))
            else:
                ends.append((a, ">", b))
        return ends

    @property
    def arrows(self):
        return tuple(sorted((a, b) for a, sep, b in self._ends() if sep == ">"))


_set_flips = SignedBrauerDiagram.flips.__set__


class WalledBrauerDiagram(BrauerDiagram):
    """Brauer diagram on 2-colored rows.

    Rows are pairs (count of color 1, count of color 2); within a row,
    all color-1 vertices come before all color-2 vertices. Vertical
    edges join equal colors, horizontal edges join different colors.
    """

    variant = "walled"
    __slots__ = ("bottom_colors", "top_colors")
    _fields = ("bottom_colors", "top_colors", "_labels")

    # the row sizes follow from the color counts
    n = property(lambda self: sum(self.bottom_colors))
    m = property(lambda self: sum(self.top_colors))

    def __init__(self, bottom, top, edges):
        bottom, top = _color_counts(bottom), _color_counts(top)
        edges, labels = _matching(sum(bottom), sum(top), edges)
        Diagram.__init__(self, bottom, top, labels)
        for a, b in edges:
            if (a[0] == b[0]) == (self.color(a) == self.color(b)):
                kind, colors = ("horizontal", "equal") if a[0] == b[0] else ("vertical", "different")
                raise ColorViolation(
                    f"{kind} edge {vertex_text(a)} {vertex_text(b)} joins {colors} colors"
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


class PartitionDiagram(Diagram):
    """Set partition of the bottom and top rows into nonempty blocks,
    which are its parts."""

    variant = "partition"
    __slots__ = ()
    blocks = Diagram.parts

    def __init__(self, n, m, blocks):
        n, m = check_nonnegative("row size", n, m)
        blocks = tuple(
            sorted(tuple(sorted({_int_pair(v, NotAPartition, "vertex") for v in b})) for b in blocks)
        )
        if any(not b for b in blocks):
            raise NotAPartition("empty block")
        labels = _labels_of(n, m, blocks, NotAPartition, "in two blocks")
        if None in labels:
            raise NotAPartition("blocks do not cover all vertices")
        super().__init__(n, m, tuple(labels))

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
    """Injection from a subset of the bottom row to a subset of the top.

    Its parts are the pairs {b_a, t_b} it maps and the singletons of the
    vertices it leaves out. `pairs` is a view listing each (a, b),
    sorted, and values sort as their pairs do.
    """

    variant = "fisharp"
    __slots__ = ()
    _views = {"_labels": "pairs"}

    def __init__(self, n, m, pairs):
        n, m = check_nonnegative("row size", n, m)
        pairs = sorted(_int_pair(p, NotInjective, "pair") for p in pairs)
        for a, b in pairs:
            if not (1 <= a <= n and 1 <= b <= m):
                raise NotInjective(f"pair b{a}->t{b} out of range")
        dom = [a for a, _ in pairs]
        img = [b for _, b in pairs]
        if len(set(dom)) != len(dom):
            raise NotInjective("repeated source vertex")
        if len(set(img)) != len(img):
            raise NotInjective("repeated target vertex")
        super().__init__(n, m, _injection_labels(n, m, pairs))

    @property
    def pairs(self):
        n = self.n
        return tuple(sorted(
            (label + 1, b) for b, label in enumerate(self._labels[n:], 1) if label < n
        ))

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


def _injection_labels(n, m, pairs):
    """The labels of the partial injection mapping b_a to t_b for each
    (a, b) in `pairs`: b_a is part a - 1 and t_b joins it; an unmapped
    t_b starts a part."""
    source, fresh = {b: a - 1 for a, b in pairs}, count(n)
    return (*range(n), *[source[b] if b in source else next(fresh) for b in range(1, m + 1)])


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
        edges = [tuple(_int_pair(v, NotAMatching, "vertex") for v in e) for e in data]
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
    # the labels number the parts by first appearance, so those of the
    # bottom row are 0..k-1 for its k parts: they are distinct exactly
    # when the last is n - 1, and a top vertex's part meets the bottom
    # exactly when its label is below k
    n, labels = d.n, d._labels
    if row == BOTTOM:
        return (not n or labels[n - 1] == n - 1) and set(labels[n:]).issuperset(range(n))
    top = labels[n:]
    if not top or not n:
        return not top
    return max(top) <= max(labels[:n]) and len(set(top)) == len(top)


def is_planar(d):
    """No crossing under the order b1 < ... < bn < tm < ... < t1."""
    # in that order each edge must close the innermost edge still open
    n, labels = d.n, d._labels
    stack = []
    for label in labels[:n] + labels[n:][::-1]:
        if stack and stack[-1] == label:
            stack.pop()
        else:
            stack.append(label)
    return not stack


def renumbered(labels):
    """Labels renumbered by first appearance: the restricted-growth
    string of the same set partition."""
    first = {}
    return tuple([first.setdefault(x, len(first)) for x in labels])


def transpose(d):
    """Exchange the two rows; an involution."""
    if isinstance(d, SignedBrauerDiagram):
        raise UnsupportedVariant("transpose of signed diagrams is not defined")
    n, labels = d.n, d._labels
    # the fields of a walled value start with the colorings, not the sizes
    return type(d)._trusted(d.top, d.bottom, renumbered(labels[n:] + labels[:n]))


def disjoint_union(d1, d2):
    """Place d2 to the right of d1; vertices of d2 are re-indexed."""
    if type(d1) is not type(d2):
        raise VariantMismatch(
            f"cannot union {type(d1).__name__} with {type(d2).__name__}"
        )
    # d2's labels are complemented to keep them apart from d1's until
    # the vertices, in their new order, are renumbered
    a, b = d1._labels, tuple([~x for x in d2._labels])
    n, n2 = d1.n, d2.n
    if isinstance(d1, WalledBrauerDiagram):
        # color-1 vertices of both diagrams precede all color-2 vertices
        (p1, p2), (q1, q2) = d1.bottom_colors, d2.bottom_colors
        (r1, r2), (s1, s2) = d1.top_colors, d2.top_colors
        bottom = a[:p1] + b[:q1] + a[p1:n] + b[q1:n2]
        top = a[n:n + r1] + b[n2:n2 + s1] + a[n + r1:] + b[n2 + s1:]
        colors = (p1 + q1, p2 + q2), (r1 + s1, r2 + s2)
        return WalledBrauerDiagram._trusted(*colors, renumbered(bottom + top))
    m = d1.m
    joined = a[:n] + b[:n2] + a[n:] + b[n2:]
    labels = renumbered(joined)
    if isinstance(d1, SignedBrauerDiagram) and (d1.flips or d2.flips):
        new = dict(zip(joined, labels))
        flips = sorted([new[x] for x in d1.flips] + [new[~x] for x in d2.flips])
        return SignedBrauerDiagram._trusted(n + n2, m + d2.m, labels, tuple(flips))
    return type(d1)._trusted(n + n2, m + d2.m, labels)


def _matchings(free, edges, out):
    """Append to `out` each perfect matching of the free points, added
    to `edges`, its edges canonical and sorted for sorted points. The
    first free point is matched with each later one in turn, taken out
    of the one list while the rest are matched and then put back, so no
    level copies the list."""
    if not free:
        out.append(tuple(edges))
        return
    first = free.pop(0)
    for idx in range(len(free)):
        edges.append((first, free.pop(idx)))
        _matchings(free, edges, out)
        free.insert(idx, edges.pop()[1])
    free.insert(0, first)


def _noncrossing(points, k, opened, edges, out):
    """Append to `out` each noncrossing perfect matching of the points,
    listed in circular order, as its sorted canonical edges. Read as a
    Dyck word (Knuth, TAOCP 4A, 7.2.1.6), each point from k on opens an
    edge or closes the innermost one in `opened`."""
    if k == len(points):
        out.append(tuple(sorted(edges)))
        return
    p = points[k]
    if len(opened) < len(points) - k - 1:  # the later points can close it
        opened.append(p)
        _noncrossing(points, k + 1, opened, edges, out)
        opened.pop()
    if opened:
        a = opened.pop()
        edges.append((a, p) if a < p else (p, a))
        _noncrossing(points, k + 1, opened, edges, out)
        edges.pop()
        opened.append(a)


def _set_partitions(points):
    """The set partitions of sorted points, each as its sorted blocks."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for sub in _set_partitions(rest):
        yield ((first,), *sub)
        for i, block in enumerate(sub):
            yield ((first, *block), *sub[:i], *sub[i + 1 :])


def enumerate_diagrams(variant, bottom, top):
    """All canonical diagrams of the hom space, in sorted order.

    The generators work on positions, position k being the k-th vertex
    of b1..bn, t1..tm. Ints sort as the vertices do, so the values sort
    as their parts of positions do, and a part lists where its label
    goes. Partial injections sort as their pairs do instead.
    """
    cls = variant_class(variant)
    walled = cls is WalledBrauerDiagram
    if walled:
        bottom, top = _color_counts(bottom), _color_counts(top)
        n, m = sum(bottom), sum(top)
    else:
        bottom, top = n, m = check_nonnegative("row size", bottom, top)
    if cls is PartialInjection:
        found = sorted(
            tuple(zip(dom, img))
            for k in range(min(n, m) + 1)
            for dom in combinations(range(1, n + 1), k)
            for img in permutations(range(1, m + 1), k)
        )
        return [cls._trusted(n, m, _injection_labels(n, m, pairs)) for pairs in found]
    size, found = n + m, []
    if issubclass(cls, PartitionDiagram):
        found = list(_set_partitions(range(size)))
    elif size % 2:  # no matching on an odd number of points
        pass
    elif cls is TemperleyLiebDiagram:
        # the order b1 < ... < bn < tm < ... < t1
        _noncrossing([*range(n), *range(size - 1, n - 1, -1)], 0, [], [], found)
    elif walled:
        # every edge joins a vertex of one class, the color-1 vertices of
        # the bottom row and the color-2 ones of the top, to one of the other
        b1, t1 = bottom[0], top[0]
        ends, others = [*range(b1), *range(n + t1, size)], range(b1, n + t1)
        if len(ends) == len(others):
            found = [tuple(sorted(map(_canon_edge, zip(ends, p)))) for p in permutations(others)]
    else:
        _matchings(list(range(size)), [], found)
    out = []
    for parts in sorted(found):
        labels = [0] * size
        for label, part in enumerate(parts):
            for k in part:
                labels[k] = label
        out.append(cls._trusted(bottom, top, tuple(labels)))
    return out


def identity_diagram(variant, size):
    """id on the object [size] (a color pair for the walled variant)."""
    cls = variant_class(variant)
    if cls is WalledBrauerDiagram:
        total = sum(_color_counts(size))
    else:
        [total] = check_nonnegative("row size", size)
    if cls is PartialInjection:
        return cls(size, size, [(i, i) for i in range(1, total + 1)])
    return cls(size, size, [((BOTTOM, i), (TOP, i)) for i in range(1, total + 1)])
