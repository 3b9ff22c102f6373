"""Outside-in layer tracing: wrap the package's public functions, from the
benchmark's own files, to count calls and measure self time per layer.

A span's self time is its duration minus the time spent in the spans it
caused.  Spans are aggregated in memory per name (calls, self seconds); no
per-call record is kept.  ``LayerTracer.installed()`` patches and always
restores the package.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# (metric name, module, class or None, attribute).  Several attributes may
# feed one metric: ``__rmul__`` is the same function object as ``__mul__``,
# so each attribute gets its own wrapper or reflected calls would escape.
SPANS = [
    ("braid.parse_braid", "bwmlink.braid", None, "parse_braid"),
    ("braid.closure_diagram", "bwmlink.braid", None, "closure_diagram"),
    ("diagram.canonical_key", "bwmlink.diagram", "PlanarDiagram", "canonical_key"),
    ("diagram.traverse", "bwmlink.diagram", "PlanarDiagram", "traverse"),
    ("diagram.resolve", "bwmlink.diagram", "PlanarDiagram", "resolve"),
    ("diagram.remove_curls", "bwmlink.diagram", "PlanarDiagram", "remove_curls"),
    ("diagram.remove_poke", "bwmlink.diagram", "PlanarDiagram", "remove_poke"),
    ("diagram.connected_parts", "bwmlink.diagram", "PlanarDiagram", "connected_parts"),
    ("skein.regular_isotopy_poly", "bwmlink.skein", "SkeinEngine", "regular_isotopy_poly"),
    ("laurent.poly2_mul", "bwmlink.laurent", "LaurentPoly2", "__mul__"),
    ("laurent.poly2_mul", "bwmlink.laurent", "LaurentPoly2", "__rmul__"),
    ("laurent.poly2_add", "bwmlink.laurent", "LaurentPoly2", "__add__"),
    ("laurent.poly2_add", "bwmlink.laurent", "LaurentPoly2", "__radd__"),
    ("laurent.exact_div", "bwmlink.laurent", "LaurentPoly2", "exact_div"),
    ("laurent.localized_init", "bwmlink.laurent", "LocalizedPoly", "__init__"),
    ("laurent.rational_init", "bwmlink.laurent", "RationalFn2", "__init__"),
    ("laurent.specialize", "bwmlink.laurent", None, "specialize"),
    ("closed_forms.torus2_invariant", "bwmlink.closed_forms", None, "torus2_invariant"),
    ("bratteli.trace_weight", "bwmlink.bratteli", None, "trace_weight"),
    ("bratteli.sum_rule_check", "bwmlink.bratteli", None, "sum_rule_check"),
    ("bratteli.specialized_weights_equal", "bwmlink.bratteli", None,
     "specialized_weights_equal"),
    ("bratteli.truncated_bratteli", "bwmlink.bratteli", None, "truncated_bratteli"),
    ("bratteli.generic_bratteli", "bwmlink.bratteli", None, "generic_bratteli"),
    ("cli.main", "bwmlink.cli", None, "main"),
]

SPAN_NAMES = list(dict.fromkeys(name for name, *_ in SPANS))


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bwmlink" or name.startswith("bwmlink."))]


class LayerTracer:
    """Per-layer call counts and self time, plus skein cache growth.

    ``cache_entries`` sums, over every ``SkeinEngine.kauffman_polynomial``
    call, how much the engine's public ``cache_size`` grew.
    """

    def __init__(self):
        self._stack: list[float] = []
        self.stats: dict[str, list] = {name: [0, 0.0] for name in SPAN_NAMES}
        self.cache_entries = 0
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        self.cache_entries = 0

    def _span(self, fn, name: str):
        stack = self._stack
        stat = self.stats[name]
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        span.__wrapped__ = fn
        return span

    def _cache_growth(self, fn):
        def counted(engine, *args, **kwargs):
            before = getattr(engine, "cache_size", 0)
            try:
                return fn(engine, *args, **kwargs)
            finally:
                self.cache_entries += getattr(engine, "cache_size", 0) - before

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every span target that exists; a target a later version of
        the package drops simply reports zero calls."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        # import every target first: a module imported while patched would
        # keep the wrappers it imported after restore
        for _, module_name, _, _ in SPANS:
            importlib.import_module(module_name)
        modules = _package_modules()
        for name, module_name, class_name, attr in SPANS:
            module = sys.modules[module_name]
            if class_name is None:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._span(original, name)
                # re-imported names: patch every module that holds the function
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            else:
                cls = getattr(module, class_name)
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._span(cls.__dict__[attr], name))
        engine = sys.modules["bwmlink.skein"].SkeinEngine
        if "kauffman_polynomial" in engine.__dict__:
            self._patch(engine, "kauffman_polynomial",
                        self._cache_growth(engine.__dict__["kauffman_polynomial"]))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

