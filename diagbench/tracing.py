"""Span tracing of diagcat's layers from outside the program.

`Tracer.install()` replaces each traced public function (and method) by a
wrapper, in every loaded module that holds a reference to it, so a call
made through `diagcat.linear.compose` is traced exactly like one made
through `diagcat.compose.compose`. `uninstall()` puts the originals back.

Each wrapped call is a span (name, start, end, parent, query). Spans are
folded into per-name totals as they close: the number of calls, the self
time (duration minus the time of child spans) and the inclusive time of
outermost calls (calls with no enclosing span of the same name). The
first `span_cap` raw spans are kept in memory and written out at the end;
keeping every span of a run would cost hundreds of megabytes.
"""

import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute path) for every traced entry point
TRACED = (
    ("compose", "diagcat.compose", "compose"),
    ("diagrams.enumerate", "diagcat.diagrams", "enumerate_diagrams"),
    ("diagrams.transpose", "diagcat.diagrams", "transpose"),
    ("diagrams.disjoint_union", "diagcat.diagrams", "disjoint_union"),
    ("diagrams.construct", "diagcat.diagrams", "BrauerDiagram.__init__"),
    ("diagrams.construct", "diagcat.diagrams", "SignedBrauerDiagram.__init__"),
    ("diagrams.construct", "diagcat.diagrams", "WalledBrauerDiagram.__init__"),
    ("diagrams.construct", "diagcat.diagrams", "PartitionDiagram.__init__"),
    ("diagrams.construct", "diagcat.diagrams", "PartialInjection.__init__"),
    ("linear.morphism_compose", "diagcat.linear", "morphism_compose"),
    ("linear.morphism_transpose", "diagcat.linear", "morphism_transpose"),
    ("linear.axioms", "diagcat.linear", "check_triangular_axioms"),
    ("linear.axioms", "diagcat.linear", "verify_t3"),
    ("linear.axioms", "diagcat.linear", "factorize"),
    ("coeff.mul", "diagcat.coeff", "DeltaPoly.__mul__"),
    ("coeff.add", "diagcat.coeff", "DeltaPoly.__add__"),
    ("coeff.exact_div", "diagcat.coeff", "DeltaPoly.exact_div"),
    ("coeff.evaluate", "diagcat.coeff", "DeltaPoly.evaluate"),
    ("coeff.rational_roots", "diagcat.coeff", "rational_roots"),
    ("taut.verify", "diagcat.taut", "verify_taut_functoriality"),
    ("algebra.table", "diagcat.algebra", "AlgebraTable.__init__"),
    ("algebra.gram", "diagcat.algebra", "AlgebraTable.gram_matrix"),
    ("algebra.poly_det", "diagcat.algebra", "poly_det"),
    ("chars.lr_coefficient", "diagcat.chars", "lr_coefficient"),
    ("chars.sym_character", "diagcat.chars", "sym_character"),
    ("chars.principal", "diagcat.chars", "verify_principal_decomposition"),
    ("chars.principal", "diagcat.chars", "principal_permutation_multiplicity"),
    ("chars.induced_oracle", "diagcat.chars", "induced_multiplicity_oracle"),
    ("cli.run", "diagcat.cli", "run"),
)

# per-layer metrics: (name, unit, better); computed by Tracer.layer_metrics
LAYER_METRICS = (
    ("compose.calls", "count", "lower"),
    ("compose.us_per_call", "us", "lower"),
    ("compose.self_s", "s", "lower"),
    ("diagrams.enumerate.calls", "count", "lower"),
    ("diagrams.enumerate.self_s", "s", "lower"),
    ("diagrams.transpose.us_per_call", "us", "lower"),
    ("diagrams.disjoint_union.us_per_call", "us", "lower"),
    ("diagrams.construct.us_per_call", "us", "lower"),
    ("linear.morphism_compose.calls", "count", "lower"),
    ("linear.morphism_compose.us_per_call", "us", "lower"),
    ("linear.morphism_compose.self_s", "s", "lower"),
    ("linear.morphism_transpose.us_per_call", "us", "lower"),
    ("linear.axioms.self_s", "s", "lower"),
    ("coeff.mul.calls", "count", "lower"),
    ("coeff.mul.us_per_call", "us", "lower"),
    ("coeff.add.us_per_call", "us", "lower"),
    ("coeff.exact_div.calls", "count", "lower"),
    ("coeff.exact_div.self_s", "s", "lower"),
    ("coeff.rational_roots.self_s", "s", "lower"),
    ("coeff.rational_roots.candidates", "count", "lower"),
    ("coeff.rational_roots.hit_ratio", "ratio", "higher"),
    ("taut.verify.self_s", "s", "lower"),
    ("taut.pairs_checked", "count", "higher"),
    ("taut.us_per_pair", "us", "lower"),
    ("algebra.table.self_s", "s", "lower"),
    ("algebra.gram.self_s", "s", "lower"),
    ("algebra.poly_det.self_s", "s", "lower"),
    ("chars.lr_coefficient.calls", "count", "lower"),
    ("chars.lr_coefficient.self_s", "s", "lower"),
    ("chars.sym_character.calls", "count", "lower"),
    ("chars.principal.self_s", "s", "lower"),
    ("chars.induced_oracle.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self, extra_modules=(), span_cap=20000):
        self.extra_modules = tuple(extra_modules)
        self.span_cap = span_cap
        self.spans = []
        self.query = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.outer_calls = defaultdict(int)
        self.outer_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._active = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._patches = []

    # -- patching --------------------------------------------------------

    def install(self):
        holders = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "diagcat" or n.startswith("diagcat."))
        ] + list(self.extra_modules)
        for name, module_name, path in TRACED:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                # aliases such as __rmul__ = __mul__ share the function
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, value))
                        setattr(owner, key, wrapper)
                continue
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches = []

    def _wrap(self, name, fn):
        stack, active = self._stack, self._active
        calls, self_s = self.calls, self.self_s
        outer_calls, outer_s = self.outer_calls, self.outer_s
        spans, cap, counters = self.spans, self.span_cap, self.counters
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if not active[name]:
                    outer_calls[name] += 1
                    outer_s[name] += dur
                if stack:
                    stack[-1][0] += dur
                if len(spans) < cap:
                    spans.append((sid, parent, tracer.query, name, start, end))
            if name == "coeff.evaluate" and active["coeff.rational_roots"]:
                counters["coeff.rational_roots.candidates"] += 1
            elif name == "coeff.rational_roots":
                counters["coeff.rational_roots.roots"] += len(result)
            elif name == "taut.verify":
                counters["taut.pairs_checked"] += result["pairs_checked"]
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ---------------------------------------------------------

    def layer_metrics(self, rounds):
        """Per-round layer figures over `rounds` traced rounds."""

        def per_call(name):
            n = self.outer_calls[name]
            return self.outer_s[name] / n * 1e6 if n else 0.0

        out = {}
        for metric, _, _ in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = self.calls[layer] / rounds
            elif kind == "self_s":
                out[metric] = self.self_s[layer] / rounds
            elif kind == "us_per_call":
                out[metric] = per_call(layer)
        candidates = self.counters["coeff.rational_roots.candidates"]
        out["coeff.rational_roots.candidates"] = candidates / rounds
        out["coeff.rational_roots.hit_ratio"] = (
            self.counters["coeff.rational_roots.roots"] / candidates if candidates else 0.0
        )
        pairs = self.counters["taut.pairs_checked"]
        out["taut.pairs_checked"] = pairs / rounds
        out["taut.us_per_pair"] = self.outer_s["taut.verify"] / pairs * 1e6 if pairs else 0.0
        return out

    def dump(self):
        names = sorted(self.calls)
        return {
            "per_name": {
                n: {
                    "calls": self.calls[n],
                    "self_s": self.self_s[n],
                    "outer_calls": self.outer_calls[n],
                    "outer_s": self.outer_s[n],
                }
                for n in names
            },
            "counters": dict(self.counters),
            "span_fields": ["id", "parent", "query", "name", "start", "end"],
            "spans": self.spans,
            "spans_dropped": max(self._next_id - len(self.spans), 0),
        }
