"""Spans around calls into spongeknots' public functions, recorded from outside.

``Tracer.install()`` rebinds each function in ``LAYERS`` to a wrapper, both in
the module that defines it and in every loaded ``spongeknots`` module that
imported it by name, so calls between modules are seen too. Each call records
a span ``[layer, start, end, parent]`` in memory; ``uninstall()`` restores
the originals. Nothing inside the package is changed.

Self time of a span is its duration minus that of its direct children; calls
are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import sys
from fractions import Fraction
from math import ceil, floor
from time import perf_counter

# module -> {function: layer}; the layer's metric is "<layer>_s"
LAYERS = {
    "spongeknots.ternary": {
        **dict.fromkeys(
            ("membership", "satisfying_expansions", "in_cantor", "in_carpet_face", "in_sponge", "in_carpet2"),
            "ternary.membership",
        ),
        **dict.fromkeys(
            ("membership_stage", "stage_profile", "ternary_digits", "in_cantor_stage",
             "in_carpet_face_stage", "in_sponge_stage", "in_carpet2_stage"),
            "ternary.stage_profile",
        ),
        "expansions": "ternary.expansions",
        "segment_in_stage": "ternary.segment_in_stage",
    },
    "spongeknots.invariants": {
        "is_simple": "invariants.is_simple",
        "project": "invariants.project",
        "project_generic": "invariants.project",
        "determinant": "invariants.determinant",
    },
    "spongeknots.wildknot": {
        "approximant": "wildknot.approximant",
        "wild_set_plan": "wildknot.wild_set_plan",
    },
    "spongeknots.squareflake": {"squareflake": "squareflake.squareflake"},
    "spongeknots.serialize": {
        **dict.fromkeys(
            ("dump_json", "polyline_json", "squareflake_json", "approximant_json", "assignment_json",
             "polyline_obj"),
            "serialize.dump",
        ),
        "load_artifact": "serialize.load",
    },
    "spongeknots.cli": {"main": "cli.self"},
}

TIME_METRICS = sorted({layer + "_s" for funcs in LAYERS.values() for layer in funcs.values()})


def _direction_index(direction) -> int:
    from spongeknots.invariants import generic_directions

    for i, d in enumerate(generic_directions()):
        if d == tuple(direction):
            return i
    raise ValueError(f"direction {direction} is not in generic_directions()")


def _running_cells(seg, k: int) -> int:
    """Cells of the 3**k grid met along the running axis (computed from the input)."""
    scale = 3**k
    return ceil(Fraction(seg.hi) * scale) - floor(Fraction(seg.lo) * scale)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- counters taken at the same boundaries as the spans ------------------

    def _count(self, name: str, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def _after(self, fname: str, args, result):
        if fname == "segment_in_stage":
            self._count("ternary.segments", 1)
            self._count("ternary.running_cells", _running_cells(args[0], args[1]))
        elif fname == "is_simple":
            self._count("invariants.vertices", len(args[0]))
        elif fname == "project_generic":
            diagram, direction = result
            self._count("invariants.directions_tried", _direction_index(direction) + 1)
            self._count("invariants.crossings", diagram.crossing_count)
        elif fname == "approximant":
            self._count("wildknot.summands", result.spliced_count())
        elif fname in ("dump_json", "polyline_obj"):
            self._count("serialize.bytes", len(result.encode()))
        elif fname == "load_artifact":
            self._count("serialize.bytes", len(args[0].encode()))

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fname: str, layer: str, fn):
        spans, stack, after = self.spans, self._stack, self._after

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [layer, perf_counter(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            after(fname, args, result)
            return result

        return wrapper

    def install(self):
        loaded = [m for name, m in sys.modules.items() if name.split(".")[0] == "spongeknots"]
        for modname, funcs in LAYERS.items():
            mod = importlib.import_module(modname)
            for fname, layer in funcs.items():
                original = getattr(mod, fname)
                wrapper = self._wrap(fname, layer, original)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    # -- aggregation ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per layer metric."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for i, (name, start, end, _) in enumerate(spans):
            out[name + "_s"] += end - start - child[i]
        return out

    def to_json(self) -> dict:
        return {
            "fields": ["layer", "start", "end", "parent"],
            "spans": self.spans,
            "counts": self.counts,
        }
