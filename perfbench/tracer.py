"""Call tracing from outside the package, for the per-layer metrics.

The tracer wraps the public functions of every extalg module and the
public methods of its classes (plus the arithmetic of fractions.Fraction,
which is the rational field's scalar type) and restores every original
afterwards.  A module-level function is replaced in every module that
binds it, not only the one that defines it, because structure, verify,
text and cli import subspace and core functions by name.

Each wrapper pushes a child-time accumulator, calls the original, and on
return charges its duration minus its children's to its own key: self
time is span minus child spans.  Hot calls (field scalars, core elements,
subspace membership and the skew pairing) keep only counts and summed
times, so memory stays bounded; every other call also records a span
(job, id, parent, name, start, end) kept in memory and written out at
the end.

The package runs in one thread with no queues or locks, so no layer has
waiting time and the tracer measures none.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

LAYERS = ("fields", "core", "text", "subspace", "setfamilies", "structure", "verify", "cli")

FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
    "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)
FP_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__")

# class -> methods to wrap; the classes are looked up on the package
CLASS_METHODS = {
    ("fields", "FpElement"): FP_OPS,
    ("fields", "Rationals"): ("coerce", "from_ratio"),
    ("fields", "PrimeField"): ("coerce", "from_ratio"),
    ("core", "GrassmannElement"): (
        "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "__eq__", "scale",
        "support", "monomials", "coefficient", "degrees", "is_homogeneous", "grade_component",
        "even_part", "odd_part", "is_even", "is_odd", "min_degree", "min_part", "substitute_zero",
        "initial_monomial", "initial_term",
    ),
    ("core", "Monomial"): ("from_indices", "indices", "descending_indices"),
    ("subspace", "Subspace"): (
        "reduce", "contains", "contains_space", "sum", "intersect", "is_monomial", "is_graded",
        "pivot_masks", "__eq__",
    ),
    ("setfamilies", "SetFamily"): ("__init__", "from_sets", "to_sets"),
    ("setfamilies", "SearchResult"): ("__init__",),
    ("structure", "AlgebraHom"): ("__init__", "apply", "apply_space", "is_bijective"),
    ("structure", "StructureReport"): ("to_dict",),
}

# the product's inner sign helpers run once per term pair inside
# GrassmannElement.__mul__; their time stays part of core.mul
UNWRAPPED = {"core.sign_of_masks", "core.mul_masks"}
HOT_LAYERS = {"fields", "core"}
HOT_NAMES = {"subspace.Subspace.reduce", "subspace.Subspace.contains", "subspace.skew_form"}

# metric groups: key -> group of its calls
GROUPS = {
    "core.GrassmannElement.__mul__": "core.mul",
    "text.parse_element": "text.parse",
    "text.parse_expression": "text.parse",
    "text.read_subspace": "text.parse",
    "text.print_element": "text.print",
    "text.write_subspace": "text.print",
    "subspace.span": "subspace.span",
    "subspace.split_generator": "subspace.split_generator",
    "subspace.Subspace.intersect": "subspace.intersect",
    "subspace.perp": "subspace.perp",
    "subspace.product_span": "subspace.product_span",
    "subspace.Subspace.reduce": "subspace.reduce",
    "structure.analyze": "structure.analyze",
    "structure.is_maximal_commutative": "structure.is_maximal_commutative",
    "structure.hom_from_images": "structure.hom",
}
PREDICATES = ("is_subalgebra", "is_commutative", "is_square_zero", "is_e0_submodule", "is_left_ideal", "is_right_ideal")
for _name in PREDICATES:
    GROUPS["structure." + _name] = "structure.predicates"
for _name in CLASS_METHODS[("structure", "AlgebraHom")]:
    GROUPS["structure.AlgebraHom." + _name] = "structure.hom"

EXACT = ("fields.ops_qq", "fields.ops_gf", "core.mul.calls", "subspace.product_span.products", "setfamilies.nodes")

MARK = "_perfbench_original"


class Tracer:
    """Install with `install(ext)`, set `job` before each job, then `uninstall()`."""

    def __init__(self):
        self.stats = {}  # key -> [calls, self seconds, raised]
        self.spans = []  # (job, span id, parent id, name, start, end)
        self.extra = {"core.mul.nonzero": 0, "subspace.product_span.products": 0, "subspace.span.vectors": 0,
                      "subspace.span.rank": 0, "setfamilies.nodes": 0}
        self.anchor_s = {}
        self._child = [0.0]  # child-time accumulators, innermost last
        self._span = [0]  # open span ids, innermost last
        self._next = 1
        self.job = None  # id shared by the spans of the running job
        self._undo = []

    # -- wrappers -----------------------------------------------------

    def _wrap(self, fn, key, post=None):
        """Wrapper charging fn's self time to key; post(result, args) adds counts."""
        stat = self.stats.setdefault(key, [0, 0.0, 0])
        child = self._child
        perf = time.perf_counter
        if key.split(".", 1)[0] in HOT_LAYERS or key in HOT_NAMES:
            def wrapper(*args, **kwargs):
                child.append(0.0)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    stat[2] += 1
                    raise
                finally:
                    dt = perf() - t0
                    stat[0] += 1
                    stat[1] += dt - child.pop()
                    child[-1] += dt
                if post is not None:
                    post(result, args)
                return result
        else:
            spans, open_ids = self.spans, self._span

            def wrapper(*args, **kwargs):
                sid = self._next
                self._next = sid + 1
                parent = open_ids[-1]
                open_ids.append(sid)
                child.append(0.0)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    stat[2] += 1
                    raise
                finally:
                    t1 = perf()
                    dt = t1 - t0
                    stat[0] += 1
                    stat[1] += dt - child.pop()
                    child[-1] += dt
                    open_ids.pop()
                    spans.append((self.job, sid, parent, key, t0, t1))
                if post is not None:
                    post(result, args)
                return result
        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _post_mul(self, result, args):
        if getattr(result, "terms", None):
            self.extra["core.mul.nonzero"] += 1

    def _post_product_span(self, result, args):
        self.extra["subspace.product_span.products"] += len(args[0].basis) * len(args[1].basis)

    def _post_search_result(self, result, args):
        self.extra["setfamilies.nodes"] += args[0].nodes

    def _span_wrapper(self, fn):
        inner = self._wrap(fn, "subspace.span", self._post_span)

        def span(vectors, *args, **kwargs):
            # span accepts any iterable; count it once, hand on the list
            return inner(list(vectors), *args, **kwargs)

        setattr(span, MARK, fn)
        span.__doc__ = fn.__doc__
        return span

    def _post_span(self, result, args):
        self.extra["subspace.span.vectors"] += len(args[0])
        self.extra["subspace.span.rank"] += result.dim

    # -- install / uninstall -----------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self, ext):
        modules = {layer: getattr(ext, layer) for layer in LAYERS}
        everywhere = [ext] + list(modules.values())
        posts = {"core.GrassmannElement.__mul__": self._post_mul,
                 "subspace.product_span": self._post_product_span,
                 "setfamilies.SearchResult.__init__": self._post_search_result}
        # module-level public functions, rebound in every module that holds them
        wrapped = {}
        for layer, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name)
                key = "%s.%s" % (layer, name)
                if callable(fn) and not isinstance(fn, type) and key not in UNWRAPPED:
                    if key == "subspace.span":
                        wrapped[id(fn)] = self._span_wrapper(fn)
                    else:
                        wrapped[id(fn)] = self._wrap(fn, key, posts.get(key))
        for mod in everywhere:
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._set(mod, name, wrapped[id(value)])
        # methods, patched on the class so every caller sees them
        targets = [(("fields", "Fraction"), Fraction, FRACTION_OPS)]
        targets += [(lc, getattr(modules[lc[0]], lc[1]), names) for lc, names in CLASS_METHODS.items()]
        for (layer, cname), cls, names in targets:
            for name in names:
                raw = cls.__dict__[name]
                key = "%s.%s.%s" % (layer, cname, name)
                if isinstance(raw, classmethod):
                    self._set(cls, name, classmethod(self._wrap(raw.__func__, key)))
                else:
                    self._set(cls, name, self._wrap(raw, key, posts.get(key)))
        # verify anchors: the suite reads CHECKS at call time
        checks = modules["verify"].CHECKS
        self._checks = (checks, list(checks))
        checks[:] = [(anchor, self._anchor(anchor, fn)) for anchor, fn in checks]

    def _anchor(self, anchor, fn):
        inner = self._wrap(fn, "verify.anchor." + anchor)

        def check(ctx):
            t0 = time.perf_counter()
            try:
                return inner(ctx)
            finally:
                self.anchor_s[anchor] = self.anchor_s.get(anchor, 0.0) + time.perf_counter() - t0

        setattr(check, MARK, fn)
        return check

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        checks, original = self._checks
        checks[:] = original

    # -- results ------------------------------------------------------

    def metrics(self, anchors) -> dict:
        """Per-layer metrics of everything traced so far; anchors not run read 0."""
        out = {}
        by_layer = {layer: [0, 0.0, 0] for layer in LAYERS}
        by_group = {}
        for key, (calls, self_s, raised) in self.stats.items():
            layer = key.split(".", 1)[0]
            tot = by_layer[layer]
            tot[0] += calls
            tot[1] += self_s
            tot[2] += raised
            group = GROUPS.get(key)
            if group:
                g = by_group.setdefault(group, [0, 0.0])
                g[0] += calls
                g[1] += self_s
        group = lambda g: by_group.get(g, [0, 0.0])
        ops = lambda prefix, names: sum(self.stats.get(prefix + n, [0])[0] for n in names)
        out["fields.ops_qq"] = ops("fields.Fraction.", FRACTION_OPS)
        out["fields.ops_gf"] = ops("fields.FpElement.", FP_OPS)
        for layer in LAYERS:
            out[layer + ".calls"] = by_layer[layer][0]
            out[layer + ".self_s"] = by_layer[layer][1]
            out[layer + ".raised"] = by_layer[layer][2]
        for g in ("core.mul", "text.parse", "text.print", "subspace.span", "subspace.split_generator",
                  "subspace.intersect", "subspace.perp", "subspace.product_span", "subspace.reduce"):
            out[g + ".calls"] = group(g)[0]
            out[g + ".self_s"] = group(g)[1]
        for g in ("structure.analyze", "structure.is_maximal_commutative", "structure.predicates", "structure.hom"):
            out[g + ".self_s"] = group(g)[1]
        mul_calls = group("core.mul")[0]
        out["core.mul.nonzero_ratio"] = self.extra["core.mul.nonzero"] / mul_calls if mul_calls else 0.0
        vectors = self.extra["subspace.span.vectors"]
        out["subspace.span.rank_ratio"] = self.extra["subspace.span.rank"] / vectors if vectors else 0.0
        out["subspace.product_span.products"] = self.extra["subspace.product_span.products"]
        out["setfamilies.nodes"] = self.extra["setfamilies.nodes"]
        sf_self = by_layer["setfamilies"][1]
        out["setfamilies.nodes_per_s"] = out["setfamilies.nodes"] / sf_self if sf_self else 0.0
        for anchor in anchors:
            out["verify.anchor_s." + anchor] = self.anchor_s.get(anchor, 0.0)
        return out

    def write_spans(self, fh):
        """One JSON object per span; parent 0 is the job itself."""
        for job, sid, parent, name, t0, t1 in self.spans:
            fh.write(json.dumps({"job": job, "span": sid, "parent": parent, "name": name,
                                 "start": t0, "end": t1}) + "\n")


def leftover_wrappers(ext) -> list:
    """Names still bound to a tracer wrapper (empty after a clean uninstall)."""
    found = []
    owners = [ext] + [getattr(ext, layer) for layer in LAYERS]
    owners += [Fraction] + [getattr(getattr(ext, l), c) for l, c in CLASS_METHODS]
    for owner in owners:
        for name, value in vars(owner).items():
            fn = value.__func__ if isinstance(value, classmethod) else value
            if getattr(fn, MARK, None) is not None:
                found.append("%s.%s" % (getattr(owner, "__name__", owner), name))
    found += ["verify.CHECKS[%s]" % a for a, fn in ext.verify.CHECKS if getattr(fn, MARK, None) is not None]
    return found
