"""Span tracing of nsforge's public functions, applied from outside.

``Tracer.install`` replaces each traced function at every place the
nsforge package binds it: every module attribute that is the original
function object, found by identity, so calls through ``from .x import f``
bindings and through module attributes are both seen.  ``restore`` puts the
originals back.  Spans stay in memory as tuples
(name, start, end, parent, op id, outcome) until ``summary`` aggregates them;
the outcome is an error code, "None" for a None result, or the number of
classes a search returned.

The exact-arithmetic helper classes (``_poly.IntPoly``, ``_gaussian.QQi``)
are not wrapped: their operators run millions of times, so their cost is
left in the self time of the functions that call them.
"""

import sys
import time

# layer -> module -> traced public functions
TRACED = {
    "L0": {
        "_intlinalg": ["det_bareiss", "rank_int", "column_hnf", "kernel_basis",
                       "solve_integer", "solve_fraction", "det_fraction"],
        "exterior": ["pfaffian"],
    },
    "L1": {
        "exterior": ["intersection_profile", "check_class", "check_class_mod_L", "q_r"],
        "normend": ["norm_from_class", "analyze", "complementary_class",
                    "polynomial_certificate"],
        "symplectic": ["act", "saturate", "frobenius_basis"],
    },
    "L2": {
        "riemann": ["wedge_vanishes", "residual_matrix", "symbolic_relations",
                    "tangent_and_lattice"],
        "humbert": ["eta_from_singular", "singular_from_eta", "humbert_relation",
                    "elliptic_class"],
    },
    "L3": {
        "construct": ["glue", "standard_witness", "is_realizable"],
    },
    "L4": {
        "scan": ["enumerate_classes", "orbit_equivalent"],
        "riemann": ["scan_ppav"],
    },
    "L5": {
        "cli": ["run"],
        "jsonio": ["dumps", "two_form_to_json", "two_form_from_json",
                   "period_matrix_to_json", "period_matrix_from_json",
                   "complex_matrix_to_json", "norm_to_json", "lattice_to_json",
                   "report_to_json", "relation_set_to_json", "singular_to_json",
                   "singular_from_json"],
    },
}

def span_name(module, fname):
    """``module.function``; metric names start with a letter, so ``_intlinalg`` reads ``intlinalg``."""
    return f"{module.lstrip('_')}.{fname}"


SEARCH_SPANS = {"scan.enumerate_classes", "scan.orbit_equivalent", "riemann.scan_ppav"}
RETURNED_NONE = "None"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._stack = []
        self._patched = []

    def install(self):
        error_type = sys.modules["nsforge.errors"].NsforgeError
        package = [m for name, m in sys.modules.items()
                   if m is not None and (name == "nsforge" or name.startswith("nsforge."))]
        for layer in TRACED.values():
            for module, names in layer.items():
                owner = sys.modules.get("nsforge." + module)
                if owner is None:  # not imported by this workload
                    continue
                for fname in names:
                    original = getattr(owner, fname)
                    wrapper = self._wrap(span_name(module, fname), original, error_type)
                    for mod in package:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                self._patched.append((mod, attr, original))

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, name, original, error_type):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            outcome = ""
            start = clock()
            try:
                result = original(*args, **kwargs)
                if result is None:
                    outcome = RETURNED_NONE
                elif name in SEARCH_SPANS and isinstance(result, list):
                    outcome = len(result)
                return result
            except error_type as exc:
                outcome = exc.code
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, outcome)

        traced.__wrapped__ = original
        return traced

    def summary(self):
        """Per-function calls, self_ms and raised counts, plus search counters."""
        child_time = [0.0] * len(self.spans)
        in_search = [False] * len(self.spans)
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_search[i] = in_search[parent] or self.spans[parent][0] in SEARCH_SPANS
        stats = {span_name(module, fname): {"calls": 0, "self_ms": 0.0, "raised": 0}
                 for layer in TRACED.values() for module, names in layer.items()
                 for fname in names}
        search = {"candidates": 0, "hits": 0, "rejects": {}}
        for i, (name, start, end, parent, _, outcome) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["self_ms"] += 1000.0 * (end - start - child_time[i])
            if isinstance(outcome, int):
                search["hits"] += outcome
            elif outcome and outcome != RETURNED_NONE:
                entry["raised"] += 1
            if in_search[i]:
                if name == "exterior.check_class":
                    search["candidates"] += 1
                    if outcome == RETURNED_NONE:
                        search["rejects"]["ProfileFail"] = search["rejects"].get("ProfileFail", 0) + 1
                elif name == "normend.norm_from_class" and outcome:
                    search["rejects"][outcome] = search["rejects"].get(outcome, 0) + 1
        return stats, search
