"""Call tracing for the traced benchmark pass, installed from outside the package.

`install()` wraps every public function of every semiexact module and the
constructors of `Morphism`, `Congruence` and `Diagram`, and rebinds each
wrapped name in every module that imported it (so `harness.compose` is
traced as well as `morphisms.compose`). Hot calls only update aggregated
counters and timers; spans (name, start, end, parent, task id) are kept for
every task and for layer entries, the calls whose caller is benchmark code
or another module; layer entries past MAX_SPANS are only counted, so memory
stays bounded. Self time is a call's duration minus the time of the traced
calls nested inside it. Only calls made while a task runs are counted, so set-up
and the benchmark's own checks stay out of the figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("core", "enumeration", "morphisms", "quotients", "exactness",
          "diagrams", "harness", "workspace", "cli")

# (module, class, method) whose calls count object constructions
CONSTRUCTORS = (("morphisms", "Morphism", "__post_init__"),
                ("quotients", "Congruence", "__post_init__"),
                ("diagrams", "Diagram", "__init__"))

# calls nested under an open call of these groups are counted per group
GROUPS = {"harness.gen_": "harness.gen",
          "enumeration.enumerate_semimodules": "enumeration.enumerate_semimodules"}

MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.stats = {}            # name -> [calls, total seconds, self seconds]
        self.stack = []            # open frames: [name, start, child seconds, span id, layer]
        self.spans = []            # [name, start, end, parent span id, task id]
        self.spans_dropped = 0
        self.task_id = None
        self.task_span = None
        self.counters = Counter()
        self.open_groups = Counter()
        self.nested = Counter()    # (group, name) -> calls
        self.universes = {}        # (semiring, bound) -> module count
        self.enabled = False       # true while a task runs
        self.hom_cache = None      # the enumerate_hom lru_cache, for hits and misses
        self.hom_hits = self.hom_misses = 0

    def _group_of(self, name):
        for prefix, group in GROUPS.items():
            if name.startswith(prefix):
                return group
        return None

    def _new_span(self, name, start, parent):
        if len(self.spans) >= MAX_SPANS:
            self.spans_dropped += 1
            return None
        self.spans.append([name, start, None, parent, self.task_id])
        return len(self.spans) - 1

    def wrap(self, name, fn, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        group = self._group_of(name)
        layer = name.split(".", 1)[0]
        open_groups = self.open_groups
        nested = self.nested

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            for g, n in open_groups.items():
                if n:
                    nested[g, name] += 1
            start = perf_counter()
            if stack and stack[-1][4] == layer:
                span, opened = stack[-1][3], False  # the caller's span covers this call
            else:
                span = self._new_span(name, start, stack[-1][3] if stack else self.task_span)
                opened = True
            frame = [name, start, 0.0, span, layer]
            stack.append(frame)
            if group:
                open_groups[group] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if group:
                    open_groups[group] -= 1
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                if opened and span is not None:
                    self.spans[span][2] = end
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def begin_task(self, task_id):
        self.task_id = task_id
        self.spans.append(["task", perf_counter(), None, None, task_id])  # never dropped
        self.task_span = len(self.spans) - 1
        info = self.hom_cache.cache_info()
        self.hom_hits -= info.hits
        self.hom_misses -= info.misses
        self.enabled = True

    def end_task(self):
        self.enabled = False
        info = self.hom_cache.cache_info()
        self.hom_hits += info.hits
        self.hom_misses += info.misses
        self.spans[self.task_span][2] = perf_counter()
        self.task_id = None
        self.task_span = None


def _modules():
    return {layer: importlib.import_module(f"semiexact.{layer}") for layer in LAYERS}


def _result_hooks(tracer, mods):
    """Per-name callbacks that turn results into counters."""
    counters = tracer.counters

    def diagrams_made(args, result):
        counters["harness.diagrams"] += len(result)

    def universe(args, result):
        spec = result.spec
        tracer.universes[spec.semiring, spec.max_module_size] = len(result.modules)

    def serialized(args, result):
        counters["workspace.bytes"] += len(result.encode("utf-8"))

    hooks = {f"harness.{n}": diagrams_made for n in dir(mods["harness"])
             if n.startswith("gen_")}
    hooks["enumeration.enumerate_semimodules"] = universe
    hooks["workspace.serialize"] = serialized
    return hooks


def _traced_main(tracer, main):
    """cli.main, traced under `cli.main.<subcommand>`."""
    by_command = {}

    @functools.wraps(main)
    def entry(argv=None, *rest):
        command = argv[0] if argv else "none"
        if command not in by_command:
            by_command[command] = tracer.wrap(f"cli.main.{command}", main)
        return by_command[command](argv, *rest)

    return entry


def _traced_searchers(tracer, enumeration):
    """Count the instances every catalog search inspects, found or not."""
    for prop, (description, searcher, replay) in list(enumeration.PROPERTIES.items()):
        def counted(spec, _searcher=searcher):
            found, count = _searcher(spec)
            tracer.counters["enumeration.search_counterexample.searched"] += count
            return found, count
        enumeration.PROPERTIES[prop] = (description, counted, replay)


def install() -> Tracer:
    """Wrap the package in place; call once, in a fresh interpreter."""
    tracer = Tracer()
    mods = _modules()
    package = importlib.import_module("semiexact")
    hooks = _result_hooks(tracer, mods)
    tracer.hom_cache = mods["morphisms"].enumerate_hom

    replaced = {}  # id(original) -> wrapper
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            target = getattr(obj, "__wrapped__", obj)  # lru_cache keeps its cache
            if getattr(target, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if layer == "cli" and attr == "main":
                replaced[id(obj)] = _traced_main(tracer, obj)
            else:
                replaced[id(obj)] = tracer.wrap(name, obj, hooks.get(name))

    for mod in list(mods.values()) + [package]:
        for attr, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)

    for layer, cls_name, method in CONSTRUCTORS:
        cls = getattr(mods[layer], cls_name)
        setattr(cls, method, tracer.wrap(f"{layer}.{cls_name}", getattr(cls, method)))

    _traced_searchers(tracer, mods["enumeration"])
    return tracer


GENERATORS = ("gen_lemma_short", "gen_lemma_diagram", "gen_short_five_half",
              "gen_short_five", "gen_five_parts", "gen_five", "gen_nine_first",
              "gen_nine_third", "gen_nine", "gen_snake")
VERIFIERS = {"verify_lemma_short": "short", "verify_lemma_diagram": "diagram",
             "verify_short_five_half": "short-five-half", "verify_short_five": "short-five",
             "verify_five_parts": "five-parts", "verify_five": "five",
             "verify_nine_first": "nine-first", "verify_nine_third": "nine-third",
             "verify_nine": "nine"}
# traced names reported with their self time (`.s`) and with a call count
# (`.calls`, or `.built` for constructors)
TIMED = ["morphisms.Morphism", "morphisms.compose", "core.validate_semimodule",
         "enumeration.enumerate_semimodules", "enumeration.canonical_form",
         "quotients.bourne_congruence", "quotients.quotient", "exactness.analyze",
         "exactness.is_short_exact", "exactness.ker_coker_sequence",
         "exactness.subobject_character", "morphisms.classify", "morphisms.cokernel",
         "morphisms.canonical_iso", "morphisms.enumerate_hom",
         "enumeration.search_counterexample", "enumeration.is_monomorphism",
         "enumeration.is_epimorphism", "diagrams.Diagram", "diagrams.snake",
         "workspace.parse_files", "workspace.serialize", "cli.main.corpus",
         "cli.main.search"] + [f"harness.{g}" for g in GENERATORS]
COUNTED = {"morphisms.Morphism": "built", "morphisms.compose": "calls",
           "core.validate_semimodule": "calls", "enumeration.canonical_form": "calls",
           "quotients.bourne_congruence": "calls", "quotients.quotient": "calls",
           "quotients.Congruence": "built", "exactness.analyze": "calls",
           "exactness.is_short_exact": "calls", "morphisms.classify": "calls",
           "enumeration.oracle_iso_exists": "calls", "diagrams.Diagram": "built"}
COUNTS = ("harness.diagrams", "enumeration.modules", "morphisms.enumerate_hom.hits",
          "morphisms.enumerate_hom.misses", "enumeration.search_counterexample.searched",
          "workspace.bytes", "trace.spans")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, kind in COUNTED.items():
        units[f"{name}.{kind}"] = "count"
    for name in TIMED:
        units[f"{name}.s"] = "s"
    for family in VERIFIERS.values():
        units[f"diagrams.verify.{family}.s"] = "s"
    units["diagrams.verify.s"] = "s"
    for layer in LAYERS:
        units[f"layer.{layer}.s"] = "s"
    for name in COUNTS:
        units[name] = "count" if name != "workspace.bytes" else "bytes"
    units["harness.compose_per_diagram"] = "ratio"
    units["enumeration.kept_per_validated"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return dict(sorted(units.items()))


def per_layer(tracer):
    """Metric name -> value for one traced pass (trace.wall_s and
    trace.overhead_s are filled in by the runner)."""
    stats = tracer.stats
    values = {}
    for name, kind in COUNTED.items():
        values[f"{name}.{kind}"] = stats.get(name, [0])[0]
    for name in TIMED:
        values[f"{name}.s"] = stats.get(name, [0, 0.0, 0.0])[2]
    verify_total = 0.0
    for fn, family in VERIFIERS.items():
        s = stats.get(f"diagrams.{fn}", [0, 0.0, 0.0])[2]
        values[f"diagrams.verify.{family}.s"] = s
        verify_total += s
    values["diagrams.verify.s"] = verify_total
    for layer in LAYERS:
        values[f"layer.{layer}.s"] = sum(v[2] for n, v in stats.items()
                                         if n.startswith(layer + "."))
    values["morphisms.enumerate_hom.hits"] = tracer.hom_hits
    values["morphisms.enumerate_hom.misses"] = tracer.hom_misses
    values["harness.diagrams"] = tracer.counters["harness.diagrams"]
    values["enumeration.modules"] = sum(tracer.universes.values())
    values["enumeration.search_counterexample.searched"] = \
        tracer.counters["enumeration.search_counterexample.searched"]
    values["workspace.bytes"] = tracer.counters["workspace.bytes"]
    values["trace.spans"] = len(tracer.spans) + tracer.spans_dropped
    gen_compose = tracer.nested["harness.gen", "morphisms.compose"]
    values["harness.compose_per_diagram"] = (
        gen_compose / values["harness.diagrams"] if values["harness.diagrams"] else 0.0)
    validated = tracer.nested["enumeration.enumerate_semimodules", "core.validate_semimodule"]
    values["enumeration.kept_per_validated"] = (
        values["enumeration.modules"] / validated if validated else 0.0)
    return values
