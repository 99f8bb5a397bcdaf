"""Per-layer tracing of the ncspec library from outside its source.

`install()` wraps the public functions of each layer module named in
`SPANS` (and the class methods named in `METHODS`) with a timer that
records a span: name, start, end, parent span and job id.  Every
module-level alias of a wrapped function across `ncspec.*` is rebound
too (`commbridge` does `from .rings import hom_validate`, for example),
so calls through any import path are seen.  Spans stay in memory until
the traced process dumps them; `aggregate()` turns the spans and
counters of many processes into the per-layer metrics.

Counters marked "computed" in the benchmark's documentation are derived
here from public arguments or results; nothing inside `src/` changes.
"""

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

LAYER_MODULES = (
    "rings", "localization", "latspace", "sheafspec", "commbridge",
    "glueqcoh", "skewproj", "linalg", "serialize", "cli",
)

# (module, function) pairs timed as spans, named "<module>.<function>"
SPANS = (
    ("rings", "hom_validate"), ("rings", "hom_compose"), ("rings", "all_homs"),
    ("rings", "enumerate_elements"),
    ("localization", "localize"), ("localization", "connecting_map"),
    ("localization", "induced_map"), ("localization", "is_pushout"),
    ("latspace", "build_semilattice"), ("latspace", "soberify"),
    ("sheafspec", "ncspec"), ("sheafspec", "sections"),
    ("sheafspec", "ncspec_morphism"), ("sheafspec", "is_prim_report"),
    ("commbridge", "spec"), ("commbridge", "embed_phi"),
    ("commbridge", "spec_exponential_iso"), ("commbridge", "exp_idempotence_check"),
    ("glueqcoh", "glue"), ("glueqcoh", "qcoh_roundtrip"),
    ("skewproj", "build_proj"), ("skewproj", "gamma"), ("skewproj", "serre_unit"),
    ("skewproj", "qcoh_cocycle_check"), ("skewproj", "is_torsion"),
    ("linalg", "solve"), ("linalg", "kernel_basis"),
    ("serialize", "parse_ring"), ("serialize", "parse_morphism"),
    ("serialize", "parse_glue"), ("serialize", "parse_graded_module"),
    ("serialize", "parse_element"), ("serialize", "parse_rational"),
    ("cli", "main"),
)

# (module, class, method, span name) for methods wrapped on their class
METHODS = (
    ("sheafspec", "SheafOnBase", "check_presheaf_laws", "sheafspec.check_presheaf_laws"),
    ("linalg", "Echelon", "reduce", "linalg.Echelon.reduce"),
    ("linalg", "Echelon", "add", "linalg.Echelon.add"),
)

# ring arithmetic is only counted: a span per element operation would
# swamp the trace and the timings it is meant to explain
ARITH = ("add", "neg", "mul")

# per-layer metrics: name -> (unit, better); the order is the report order
METRICS = {}
for _name in ("rings.hom_validate", "rings.hom_compose", "rings.all_homs"):
    METRICS[_name + ".calls"] = ("count", "lower")
    METRICS[_name + ".self_s"] = ("s", "lower")
METRICS["rings.hom_validate.exhaustive_pairs"] = ("count", "lower")
METRICS["rings.enumerate_elements.calls"] = ("count", "lower")
METRICS["rings.enumerate_elements.elements"] = ("count", "lower")
METRICS["rings.arith.calls"] = ("count", "lower")
METRICS["localization.localize.calls"] = ("count", "lower")
METRICS["localization.localize.distinct"] = ("count", "lower")
METRICS["localization.localize.hit_ratio"] = ("ratio", "higher")
METRICS["localization.localize.self_s"] = ("s", "lower")
for _name in ("connecting_map", "induced_map", "is_pushout"):
    METRICS[f"localization.{_name}.calls"] = ("count", "lower")
    METRICS[f"localization.{_name}.self_s"] = ("s", "lower")
METRICS["latspace.build_semilattice.self_s"] = ("s", "lower")
METRICS["latspace.cells"] = ("count", "lower")
METRICS["latspace.soberify.self_s"] = ("s", "lower")
METRICS["latspace.sober_points"] = ("count", "lower")
METRICS["sheafspec.ncspec.calls"] = ("count", "lower")
METRICS["sheafspec.ncspec.self_s"] = ("s", "lower")
METRICS["sheafspec.check_presheaf_laws.self_s"] = ("s", "lower")
METRICS["sheafspec.sections.calls"] = ("count", "lower")
METRICS["sheafspec.sections.self_s"] = ("s", "lower")
METRICS["sheafspec.ncspec_morphism.self_s"] = ("s", "lower")
METRICS["sheafspec.is_prim_report.self_s"] = ("s", "lower")
for _name in ("spec", "embed_phi", "spec_exponential_iso", "exp_idempotence_check"):
    METRICS[f"commbridge.{_name}.self_s"] = ("s", "lower")
METRICS["glueqcoh.glue.self_s"] = ("s", "lower")
METRICS["glueqcoh.qcoh_roundtrip.self_s"] = ("s", "lower")
for _name in ("build_proj", "gamma", "serre_unit", "qcoh_cocycle_check"):
    METRICS[f"skewproj.{_name}.self_s"] = ("s", "lower")
METRICS["skewproj.is_torsion.calls"] = ("count", "lower")
METRICS["linalg.Echelon.reduce.calls"] = ("count", "lower")
METRICS["linalg.Echelon.add.calls"] = ("count", "lower")
METRICS["linalg.echelon.self_s"] = ("s", "lower")
METRICS["linalg.entries_touched"] = ("count", "lower")
for _name in ("solve", "kernel_basis"):
    METRICS[f"linalg.{_name}.calls"] = ("count", "lower")
    METRICS[f"linalg.{_name}.self_s"] = ("s", "lower")
METRICS["serialize.parse.self_s"] = ("s", "lower")
METRICS["cli.main.self_s"] = ("s", "lower")
METRICS["process.startup_s"] = ("s", "lower")
METRICS["trace.overhead_frac"] = ("ratio", "lower")

# self-time metrics that pool several spans
_POOLED_SELF = {
    "linalg.echelon.self_s": "linalg.Echelon.",
    "serialize.parse.self_s": "serialize.parse_",
}


class Recorder:
    """Spans and counters of one process; `job` tags what runs now."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, job]
        self.stack = []
        self.counts = Counter()
        self.job = None
        self._localize_seen = set()

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if before is not None:
                before(self, args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = t0, t1
            if after is not None:
                after(self, result)
            return result

        return timed

    def count_calls(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def reset(self):
        """Drop what was recorded so far (a session's warm-up) but keep the
        localize keys seen, so later cache hits are still told apart."""
        self.spans.clear()
        self.counts.clear()

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


# -- computed counters ------------------------------------------------------

def _exhaustive_pairs(rec, args):
    """|source|^2 for a finite hom that `hom_validate` will check pair by pair."""
    from ncspec import rings as rg
    h = args[0]
    if h.validated or isinstance(h.rule, (rg.IdentityRule, rg.ToZeroRule)):
        return
    if rg.is_finite(h.source):
        rec.counts["rings.hom_validate.exhaustive_pairs"] += rg.cardinality(h.source) ** 2


def _elements(rec, result):
    rec.counts["rings.enumerate_elements.elements"] += len(result)


def _localize_key(rec, args):
    r, E = args[0], args[1]
    key = (r, tuple(sorted(set(E), key=repr)))
    if key not in rec._localize_seen:
        rec._localize_seen.add(key)
        rec.counts["localization.localize.distinct"] += 1


def _cells(rec, result):
    # the lazy Q[x] lattice has no finite cell count
    n = getattr(result, "n", None)
    if isinstance(n, int):
        rec.counts["latspace.cells"] += n


def _sober_points(rec, result):
    rec.counts["latspace.sober_points"] += result.n


def _entries(rec, args):
    rec.counts["linalg.entries_touched"] += args[0].width


_BEFORE = {
    "rings.hom_validate": _exhaustive_pairs,
    "localization.localize": _localize_key,
    "linalg.Echelon.reduce": _entries,
}
_AFTER = {
    "rings.enumerate_elements": _elements,
    "latspace.build_semilattice": _cells,
    "latspace.soberify": _sober_points,
}


def _rebind(original, replacement):
    """Point every `ncspec.*` module attribute that is `original` at `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "ncspec" or modname.startswith("ncspec.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(rec):
    """Wrap every traced layer entry point; returns `rec` for chaining."""
    mods = {m: importlib.import_module(f"ncspec.{m}") for m in LAYER_MODULES}
    for modname, fname in SPANS:
        fn = getattr(mods[modname], fname)
        name = f"{modname}.{fname}"
        _rebind(fn, rec.wrap(name, fn, _BEFORE.get(name), _AFTER.get(name)))
    for modname, cls_name, meth, name in METHODS:
        cls = getattr(mods[modname], cls_name)
        setattr(cls, meth, rec.wrap(name, getattr(cls, meth),
                                    _BEFORE.get(name), _AFTER.get(name)))
    for fname in ARITH:
        fn = getattr(mods["rings"], fname)
        _rebind(fn, rec.count_calls("rings.arith.calls", fn))
    return rec


# -- aggregation -----------------------------------------------------------

_COUNTED = {
    "rings.arith.calls", "rings.hom_validate.exhaustive_pairs",
    "rings.enumerate_elements.elements", "localization.localize.distinct",
    "latspace.cells", "latspace.sober_points", "linalg.entries_touched",
}

def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _job in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def aggregate(dumps, startup_s, overhead_frac):
    """Per-layer metrics from the dumps of every traced process of a run."""
    calls = Counter()
    selfs = Counter()
    counts = Counter()
    for dump in dumps:
        spans = dump["spans"]
        for span, st in zip(spans, self_times(spans)):
            calls[span[0]] += 1
            selfs[span[0]] += st
        counts.update(dump["counts"])
    out = {}
    for metric in METRICS:
        if metric in _POOLED_SELF:
            prefix = _POOLED_SELF[metric]
            out[metric] = sum(v for k, v in selfs.items() if k.startswith(prefix))
        elif metric in _COUNTED:
            out[metric] = counts[metric]
        elif metric == "localization.localize.hit_ratio":
            distinct, calls_ = counts["localization.localize.distinct"], calls["localization.localize"]
            out[metric] = 1.0 - distinct / calls_ if calls_ else 0.0
        elif metric.endswith(".calls"):
            out[metric] = calls[metric[: -len(".calls")]]
        elif metric.endswith(".self_s"):
            out[metric] = selfs[metric[: -len(".self_s")]]
    out["process.startup_s"] = startup_s
    out["trace.overhead_frac"] = overhead_frac
    return out
