"""Per-layer spans for a traced pass, recorded from outside ``braidinv``.

The layers are the package's modules.  Each public function named in
``LAYERS`` is replaced by a wrapper under every name it is bound to inside
the package: the modules import each other's functions by name, so
``product_catalog.enumerate_Pi`` and ``cycle_invariants.min_rotation`` are
patched along with the defining module.  A wrapper records one span per
call (layer name, start, end, parent span, request index), plus the counts
its hook reads off the call's arguments and result.  Spans stay in memory
until the pass ends; ``Tracer.dump`` then writes them out as flat arrays,
and ``derive`` turns them into per-layer figures.  Self time is a span's
duration minus the time its child spans cover.  Listing counts (words,
items, labels, structures) are taken on the first call with given
arguments in a pass: the calls an unbounded cache computes.
"""

from __future__ import annotations

import base64
import itertools
import math
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "braidinv"
SPAN_FIELDS = (("name", "i"), ("parent", "i"), ("request", "i"), ("tag", "i"),
               ("start", "d"), ("end", "d"))

# lru_cache'd public functions whose hit ratio and size are reported.
CACHES = (
    ("core_combinatorics", "enumerate_partitions"),
    ("cycle_invariants", "enumerate_Pi"),
    ("cycle_invariants", "enumerate_selfdual"),
    ("product_catalog", "enumerate_marked"),
    ("product_catalog", "enumerate_generators"),
    ("extension_catalog", "enumerate_E"),
)


def _first_call(tracer, key, args):
    """Whether this is the first call with these arguments in the pass,
    i.e. one an unbounded cache computes rather than answers."""
    seen = tracer.seen.setdefault(key, set())
    if args in seen:
        return False
    seen.add(args)
    return True


def _pi_counts(tracer, idx, args, result):
    if _first_call(tracer, "enumerate_Pi", args):
        lam, d = args
        tracer.counts["cycle_invariants.enumerate_Pi.words"] += len(result)
        # the listing walks every weak composition of lam - d into d parts
        tracer.counts["cycle_invariants.enumerate_Pi.compositions"] += (
            math.comb(lam - 1, d - 1) if d else 0
        )


def _len_on_first_call(counter):
    def hook(tracer, idx, args, result):
        if _first_call(tracer, counter, args):
            tracer.counts[counter] += len(result)
    return hook


def _len(counter):
    def hook(tracer, idx, args, result):
        tracer.counts[counter] += len(result)
    return hook


def _cosets(tracer, idx, args, result):
    tracer.tags[idx] = args[1].parts
    tracer.counts["character_oracle.double_cosets.cosets"] += len(result)


def _isotropy(tracer, idx, args, result):
    _, lam, group = args
    tracer.tags[idx] = lam.parts
    # the isotropy sum walks the smaller of the group and the centralizer
    z_order = tracer.modules["character_oracle"].build_centralizer(lam).order
    tracer.counts["character_oracle.isotropy.elements_visited"] += min(
        group.order, z_order
    )


def _product_dimension_name(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "formula")
    return "product_catalog.product_dimension." + method


# (span name or name function, module, attribute, hook, patch every binding)
LAYERS = (
    ("core_combinatorics.min_rotation", "core_combinatorics", "min_rotation", None, True),
    ("core_combinatorics.all_partitions", "core_combinatorics", "all_partitions", None, True),
    ("cycle_invariants.enumerate_Pi", "cycle_invariants", "enumerate_Pi", _pi_counts, True),
    ("cycle_invariants.enumerate_selfdual", "cycle_invariants", "enumerate_selfdual", None, True),
    ("product_catalog.enumerate_marked", "product_catalog", "enumerate_marked",
     _len_on_first_call("product_catalog.enumerate_marked.items"), True),
    ("product_catalog.enumerate_generators", "product_catalog", "enumerate_generators",
     _len_on_first_call("product_catalog.enumerate_generators.labels"), True),
    (_product_dimension_name, "product_catalog", "product_dimension", None, True),
    ("extension_catalog.enumerate_E", "extension_catalog", "enumerate_E",
     _len_on_first_call("extension_catalog.enumerate_E.structures"), True),
    ("extension_catalog.ext_dimension", "extension_catalog", "ext_dimension", None, True),
    ("extension_catalog.ep_listing", "extension_catalog", "enumerate_EP",
     _len("extension_catalog.ep_listing.labels"), True),
    ("extension_catalog.ep_listing", "extension_catalog", "enumerate_KP",
     _len("extension_catalog.ep_listing.labels"), True),
    # the ep command lists through the cached helper; wrap only its binding
    # in cli, so enumerate_EP's own call to it does not count twice
    ("extension_catalog.ep_listing", "cli", "_ep_members",
     _len("extension_catalog.ep_listing.labels"), False),
    ("character_oracle.oracle_dimension", "character_oracle", "oracle_dimension", None, True),
    ("character_oracle.double_cosets", "character_oracle", "double_cosets", _cosets, True),
    ("character_oracle.isotropy", "character_oracle", "isotropy_inner_product", _isotropy, True),
    ("character_oracle.cyclotomic", "character_oracle", "CyclotomicSum.reduced", None, False),
    ("character_oracle.cyclotomic", "character_oracle", "CyclotomicSum.integer_value", None, False),
    ("cli.render", "cli", "render_table", None, False),
    ("cli.render", "cli", "render_json", None, False),
    ("cli.render", "cli", "render_csv_rows", None, False),
)

ORACLE_ONLY = tuple(spec for spec in LAYERS if spec[2] == "oracle_dimension")


class Tracer:
    """Span store plus the wrappers that fill it, for one pass."""

    def __init__(self):
        self.modules = {
            name[len(PACKAGE) + 1:]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith(PACKAGE + ".")
        }
        self.names = []
        self.rows = []  # (id, name, parent, request, start, end), in order of exit
        self.tags = {}  # span id -> partition, for the oracle's per-partition time
        self.counts = Counter()
        self.seen = {}
        self.request = -1
        self.stack = [-1]
        self.ids = itertools.count()

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name, hook):
        fixed = None if callable(name) else self._name_id(name)
        rows, stack, ids = self.rows, self.stack, self.ids

        def wrapper(*args, **kwargs):
            idx = next(ids)
            name_id = fixed if fixed is not None else self._name_id(name(args, kwargs))
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rows.append((idx, name_id, parent, self.request, start, end))
            if hook:
                hook(self, idx, args, result)
            return result

        wrapper.traced = fn
        return wrapper

    def install(self, layers):
        """Patch every layer function the package still has."""
        for name, module, attr, hook, everywhere in layers:
            mod = self.modules.get(module)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, fn_name, None)
            if fn is None:
                continue
            wrapper = self.wrap(fn, name, hook)
            if owner_name or not everywhere:
                setattr(owner, fn_name, wrapper)
                continue
            for other in list(self.modules.values()) + [sys.modules[PACKAGE]]:
                for binding, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, binding, wrapper)

    def cache_stats(self):
        out = {}
        for module, attr in CACHES:
            fn = getattr(self.modules.get(module), attr, None)
            fn = getattr(fn, "traced", fn)
            if fn is None or not hasattr(fn, "cache_info"):
                continue
            info = fn.cache_info()
            out["%s.%s" % (module, attr)] = [info.hits, info.misses, info.currsize]
        return out

    def dump(self):
        """The span table, in span id order, and the counts as JSON data."""
        self.rows.sort()
        tag_ids = {}
        columns = {field: array(code) for field, code in SPAN_FIELDS}
        for idx, name_id, parent, request, start, end in self.rows:
            tag = self.tags.get(idx)
            columns["name"].append(name_id)
            columns["parent"].append(parent)
            columns["request"].append(request)
            columns["tag"].append(-1 if tag is None else tag_ids.setdefault(tag, len(tag_ids)))
            columns["start"].append(start)
            columns["end"].append(end)
        return {
            "names": self.names,
            "spans": {
                field: base64.b64encode(col.tobytes()).decode("ascii")
                for field, col in columns.items()
            },
            "counts": dict(self.counts),
            "caches": self.cache_stats(),
        }


def load_spans(dump):
    spans = {}
    for field, code in SPAN_FIELDS:
        arr = array(code)
        arr.frombytes(base64.b64decode(dump["spans"][field]))
        spans[field] = arr
    return spans


def self_times(spans):
    """Per span: duration minus the time its direct children cover.

    Children run nested inside their parent on one thread, so their
    intervals do not overlap and their durations add up.
    """
    starts, ends, parents = spans["start"], spans["end"], spans["parent"]
    own = [e - s for s, e in zip(starts, ends)]
    out = list(own)
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= own[i]
    return out


def derive(dump):
    """Per-layer figures of one traced pass."""
    names = dump["names"]
    spans = load_spans(dump)
    name_of = [names[i] for i in spans["name"]]
    starts, ends, parents = spans["start"], spans["end"], spans["parent"]
    selfs = self_times(spans)
    m = defaultdict(float)
    calls = Counter()
    for name, s in zip(name_of, selfs):
        m[name + ".self_s"] += s
        calls[name] += 1
    for name, c in calls.items():
        m[name + ".calls"] = c
    m.update(dump["counts"])

    # share of formula product_dimension time spent inside enumerate_Pi;
    # neither function nests inside itself, so durations add up
    formula = "product_catalog.product_dimension.formula"
    under_formula = [False] * len(name_of)
    for i, name in enumerate(name_of):
        p = parents[i]
        under_formula[i] = name == formula or (p >= 0 and under_formula[p])
        if name == formula:
            m["product_catalog.formula.product_dimension_s"] += ends[i] - starts[i]
        elif name == "cycle_invariants.enumerate_Pi" and under_formula[i]:
            m["product_catalog.formula.enumerate_Pi_s"] += ends[i] - starts[i]

    # time per oracle partition: its coset search plus its isotropy sums
    per_partition = defaultdict(float)
    for i, name in enumerate(name_of):
        if name in ("character_oracle.double_cosets", "character_oracle.isotropy"):
            per_partition[(parents[i], spans["tag"][i])] += ends[i] - starts[i]
    m["character_oracle.partition_max_s"] = max(per_partition.values(), default=0.0)
    m["character_oracle.oracle_dimension_s"] = sum(
        e - s for name, s, e in zip(name_of, starts, ends)
        if name == "character_oracle.oracle_dimension"
    )
    m["trace.spans"] = len(name_of)
    for fn, (hits, misses, size) in dump["caches"].items():
        m[fn + ".cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m[fn + ".cache_entries"] = size
    return dict(m)
