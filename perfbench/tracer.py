"""Per-layer tracing by wrapping houghton_kit's public functions.

The wrappers live only here.  Each target is replaced under every name it is
looked up by: a function imported by name into another module (``blocks``
imports ``orbit_windows``, ``wreath`` imports ``quotient as
build_quotient``) is patched there too, so internal calls go through the
wrapper.  ``uninstall`` puts every original back.

Coarse calls record spans (name, start, end, parent span) in memory; hot
methods only accumulate a count and time, because ``apply`` alone runs
millions of times per block search.  Self time is inclusive time minus the
time of traced calls made inside it, so a caller's self time also holds the
wrapper cost of its traced children.  ``RaySystem.window`` is wrapped as well,
to count the points of the windows that ``orbit_windows`` and
``congruence_classes`` build.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

MARK = "_perfbench_original"

# (metric prefix, module, attribute or Class.attribute, hot)
TARGETS = [
    ("rays.check", "rays", "RaySystem.check", True),
    ("elements.apply", "elements", "HoughtonElement.apply", True),
    ("elements.compose", "elements", "HoughtonElement.compose", True),
    ("elements.inverse", "elements", "HoughtonElement.inverse", True),
    ("elements.construct", "elements", "HoughtonElement.__init__", True),
    ("elements.from_json_dict", "elements", "HoughtonElement.from_json_dict", False),
    ("elements.cycle_structure", "elements", "cycle_structure", False),
    ("finperm.order", "finperm", "FinitePermGroup.order", False),
    ("finperm.membership", "finperm", "FinitePermGroup.membership", False),
    ("intlattice.hnf_rows", "intlattice", "hnf_rows", True),
    ("intlattice.in_row_span", "intlattice", "in_row_span", True),
    ("subgroups.translation_lattice", "subgroups", "translation_lattice", False),
    ("subgroups.is_level", "subgroups", "is_level", False),
    ("subgroups.is_congruence_lifting", "subgroups", "is_congruence_lifting", False),
    ("subgroups.orbit_windows", "subgroups", "orbit_windows", False),
    ("blocks.find_block_systems", "blocks", "find_block_systems", False),
    ("blocks.congruence_classes", "blocks", "congruence_classes", False),
    ("blocks.verify_block_system", "blocks", "verify_block_system", False),
    ("blocks.quotient", "blocks", "quotient", False),
    ("blocks.partial_action", "blocks", "QuotientStructure.partial_action", True),
    ("wreath.build_block_context", "wreath", "build_block_context", False),
    ("wreath.kk_embed", "wreath", "kk_embed", True),
    ("wreath.multiply", "wreath", "MultiWreathElement.multiply", True),
    ("wreath.verify_kk", "wreath", "verify_kk", False),
    ("wreath.phi_s_descent", "wreath", "phi_s_descent", False),
    ("wreath.w_groups", "wreath", "w_groups", False),
    ("subdirect.decompose", "subdirect", "decompose", False),
    ("subdirect.kernel_intersection_probe", "subdirect", "kernel_intersection_probe", False),
    ("bns.f_certificate", "bns", "f_certificate", False),
    ("bns.subgroup_type", "bns", "subgroup_type", False),
    ("classify.classify", "classify", "classify", False),
    ("cli.cli_main", "cli", "cli_main", False),
]

# targets reported by count alone: their time is spread too thin to isolate
COUNT_ONLY = {"rays.check"}

SEARCH = "blocks.find_block_systems"
MAX_SPANS = 200_000
# coarse call -> counter of the points of the windows it builds itself
WINDOW_POINTS = {
    "subgroups.orbit_windows": "orbit_points",
    "blocks.congruence_classes": "congruence_points",
}


class Tracer:
    """Counters, self times and spans for one traced run."""

    def __init__(self):
        self.active = False
        self.stats = {label: [0, 0.0] for label, *_ in TARGETS}  # calls, self
        self.extra = {
            "orbit_points": 0,
            "congruence_points": 0,
            "systems": 0,
            "closures_in_search": 0,
            "valid": 0,
            "descents_ok": 0,
        }
        self.spans = []
        self.dropped_spans = 0
        self._next_span = 0
        self._frames = []  # per open traced call: time spent in traced children
        self._open_spans = []  # (span id, name) of open coarse calls
        self._patches = []  # (owner, attribute, original)
        self._t0 = perf_counter()

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "houghton_kit" or name.startswith("houghton_kit.")
        }
        try:
            for label, module, attr, hot in TARGETS:
                owner = modules[f"houghton_kit.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    self._patch_method(getattr(owner, cls_name), meth, label, hot)
                else:
                    original = getattr(owner, attr)
                    wrapper = self._wrap(label, original, hot)
                    for mod in modules.values():
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._patches.append((mod, name, original))
                                setattr(mod, name, wrapper)
            self._patch_window(modules["houghton_kit.rays"].RaySystem)
        except BaseException:
            self.uninstall()
            raise

    def _patch_method(self, cls, meth, label, hot):
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(label, raw.__func__, hot))
        else:
            wrapper = self._wrap(label, raw, hot)
        self._patches.append((cls, meth, raw))
        setattr(cls, meth, wrapper)

    def _patch_window(self, cls):
        """Count the points of every window built inside a WINDOW_POINTS call."""
        raw = cls.__dict__["window"]
        open_spans, extra = self._open_spans, self.extra

        def window(system, depth):
            built = raw(system, depth)
            if self.active and open_spans:
                key = WINDOW_POINTS.get(open_spans[-1][1])
                if key is not None:
                    extra[key] += len(built)
            return built

        setattr(window, MARK, raw)
        self._patches.append((cls, "window", raw))
        setattr(cls, "window", window)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, label, fn, hot):
        stats = self.stats[label]
        frames = self._frames
        observe = _OBSERVERS.get(label)

        if hot:

            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                frames.append(0.0)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = perf_counter() - start
                    stats[0] += 1
                    stats[1] += took - frames.pop()
                    if frames:
                        frames[-1] += took

        else:

            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                span_id = self._next_span
                self._next_span += 1
                parent = self._open_spans[-1][0] if self._open_spans else None
                self._open_spans.append((span_id, label))
                frames.append(0.0)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    took = end - start
                    stats[0] += 1
                    stats[1] += took - frames.pop()
                    if frames:
                        frames[-1] += took
                    self._open_spans.pop()
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append(
                            (span_id, parent, label, start - self._t0, end - self._t0)
                        )
                    else:
                        self.dropped_spans += 1
                if observe is not None:
                    observe(self, args, kwargs, result)
                return result

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def in_search(self) -> bool:
        return any(name == SEARCH for _, name in self._open_spans)

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for label, *_ in TARGETS:
            calls, self_s = self.stats[label]
            out[f"{label}.calls"] = (calls, "count")
            if label not in COUNT_ONLY:
                out[f"{label}.self_s"] = (self_s, "s")
        x = self.extra
        searches = self.stats[SEARCH][0]
        verifies = self.stats["blocks.verify_block_system"][0]
        descents = self.stats["wreath.phi_s_descent"][0]
        out["subgroups.orbit_windows.points"] = (x["orbit_points"], "count")
        out["blocks.find_block_systems.systems"] = (x["systems"], "count")
        out["blocks.congruence_classes.points"] = (x["congruence_points"], "count")
        out["blocks.closure_yield"] = (
            _ratio(x["systems"], x["closures_in_search"]) if searches else 0.0,
            "ratio",
        )
        out["blocks.verify_block_system.valid_ratio"] = (_ratio(x["valid"], verifies), "ratio")
        out["wreath.phi_s_descent.ok_ratio"] = (_ratio(x["descents_ok"], descents), "ratio")
        return out

    def inclusive_times(self) -> dict:
        """Wall time per span name, not counting spans nested in the same name."""
        spans = {span_id: (parent, name) for span_id, parent, name, _, _ in self.spans}
        out = {}
        for span_id, parent, name, start, end in self.spans:
            while parent is not None and parent in spans and spans[parent][1] != name:
                parent = spans[parent][0]
            if parent is None or parent not in spans:
                out[name] = out.get(name, 0.0) + end - start
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                    )
                )
                fh.write("\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _observe_congruence(tracer, args, kwargs, result):
    if tracer.in_search():
        tracer.extra["closures_in_search"] += 1


def _observe_search(tracer, args, kwargs, result):
    tracer.extra["systems"] += len(result.systems)


def _observe_verify(tracer, args, kwargs, result):
    tracer.extra["valid"] += bool(result.valid)


def _observe_descent(tracer, args, kwargs, result):
    tracer.extra["descents_ok"] += bool(result.ok)


_OBSERVERS = {
    "blocks.congruence_classes": _observe_congruence,
    "blocks.find_block_systems": _observe_search,
    "blocks.verify_block_system": _observe_verify,
    "wreath.phi_s_descent": _observe_descent,
}


def leftover_wrappers() -> list:
    """Names in houghton_kit that still hold a wrapper (empty after uninstall)."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name != "houghton_kit" and not name.startswith("houghton_kit."):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                for meth, raw in vars(value).items():
                    inner = raw.__func__ if isinstance(raw, classmethod) else raw
                    if hasattr(inner, MARK):
                        found.append(f"{name}.{attr}.{meth}")
    return found
