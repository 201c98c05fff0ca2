"""Outside-in call tracer for chromagap's public functions.

The tracer wraps each listed function by rebinding it in every `chromagap`
module namespace that holds the same function object, so calls made through
`from .relstruct import ...` copies are captured as well.  Nothing inside the
package changes; `restore` puts every original binding back.

Each call of an ordinary function records a span (name, start, end, parent).
Leaf functions (they call no other traced function, and some run hundreds of
thousands of times) record no span: their calls and seconds are summed per
function and charged to the enclosing span, so self times stay exact.
Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = {
    "relstruct": (
        "find_homomorphism",
        "enumerate_homomorphisms",
        "check_homomorphism",
        "chromatic_number",
        "symmetrize",
        "relabel",
    ),
    "csp": ("classify_label_cover", "to_structures", "sat_value", "isat_value"),
    "f2linalg": ("enumerate_subspaces",),
    "qop": ("verify_assignment", "verify_pvm", "compose_sandwich"),
    "pultr": (
        "transfer_lambda",
        "transfer_gamma",
        "template_predicates",
        "lambda_quotient",
        "left_apply",
        "central_apply",
        "adjunction_oracle",
    ),
    "colouring": (
        "eta_context",
        "eta_apply",
        "xi_colouring",
        "line_digraph",
        "eta_quantum_transfer",
        "linedigraph_quantum_transfer",
    ),
    "dkkms": ("build_rho1", "build_rho2", "rho_quantum_transfer"),
    "dmr": ("dmr_pipeline",),
    "serialize": (
        "structure_to_dict",
        "structure_from_dict",
        "instance_to_dict",
        "instance_from_dict",
        "assignment_to_dict",
        "assignment_from_dict",
        "template_to_dict",
        "template_from_dict",
    ),
}

LEAVES = frozenset(
    {
        "relstruct.check_homomorphism",
        "relstruct.symmetrize",
        "relstruct.relabel",
        "csp.to_structures",
        "f2linalg.enumerate_subspaces",
        "qop.verify_pvm",
        "pultr.template_predicates",
        "colouring.line_digraph",
        "serialize.structure_to_dict",
        "serialize.structure_from_dict",
        "serialize.instance_to_dict",
        "serialize.instance_from_dict",
        "serialize.assignment_to_dict",
        "serialize.assignment_from_dict",
    }
)

COUNTERS = (
    "qop.products_checked",
    "qop.commutators_checked",
    "qop.distinct_projectors",
    "relstruct.homs_found",
)

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for qual in TRACED:
        names += [f"{qual}.calls", f"{qual}.s"]
        if qual not in LEAVES:
            names.append(f"{qual}.self_s")
    return names + list(COUNTERS)


class TracerError(Exception):
    pass


class Tracer:
    """Install with `install()`, run the work, then `restore()` and read
    `summary()`.  Single-threaded use only: spans nest by call order."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, seconds spent in leaf calls]
        self.spans: list = []
        self._stack: list = []
        self._leaf_depth = 0
        self.leaf_totals = {qual: [0, 0.0] for qual in LEAVES}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.violations: list = []
        self._assignments: dict = {}
        self._bindings: list = []

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, qual, fn, post):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._leaf_depth:
                self.violations.append(f"{qual} called inside a leaf")
            rec = [qual, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                post(result, args)
            return result

        traced.__bench_traced__ = True
        return traced

    def _leaf_wrapper(self, qual, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        total = self.leaf_totals[qual]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._leaf_depth:
                self.violations.append(f"{qual} called inside a leaf")
            self._leaf_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._leaf_depth -= 1
                total[0] += 1
                total[1] += dt
                if stack:
                    spans[stack[-1]][4] += dt

        traced.__bench_traced__ = True
        return traced

    # -- counters read from public return values -------------------------

    def _after_verify(self, report, args) -> None:
        self.counters["qop.products_checked"] += report.products_checked
        self.counters["qop.commutators_checked"] += report.commutators_checked
        assignment = args[2]
        self._assignments[id(assignment)] = assignment

    def _after_find(self, result, args) -> None:
        self.counters["relstruct.homs_found"] += result is not None

    def _after_enumerate(self, result, args) -> None:
        self.counters["relstruct.homs_found"] += len(result)

    # -- install / restore -----------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise TracerError("tracer already installed")
        posts = {
            "qop.verify_assignment": self._after_verify,
            "relstruct.find_homomorphism": self._after_find,
            "relstruct.enumerate_homomorphisms": self._after_enumerate,
        }
        wrappers = {}
        for qual in TRACED:
            mod, fn_name = qual.split(".")
            original = getattr(sys.modules[f"chromagap.{mod}"], fn_name)
            if qual in LEAVES:
                wrappers[id(original)] = (original, self._leaf_wrapper(qual, original))
            else:
                wrappers[id(original)] = (
                    original,
                    self._span_wrapper(qual, original, posts.get(qual)),
                )
        for module in _chromagap_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._bindings.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings = []
        for module in _chromagap_modules():
            for attr, value in vars(module).items():
                if getattr(value, "__bench_traced__", False):
                    raise TracerError(f"{module.__name__}.{attr} still wrapped")

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """calls, inclusive seconds and self seconds per function, plus the
        counters.  Inclusive time counts only the outermost of nested calls
        to the same function."""
        calls = {qual: 0 for qual in TRACED}
        incl = {qual: 0.0 for qual in TRACED}
        self_s = {qual: 0.0 for qual in TRACED}
        child_s = [0.0] * len(self.spans)
        for i, (qual, start, end, parent, leaf_s) in enumerate(self.spans):
            if parent >= 0:
                child_s[parent] += end - start
            child_s[i] += leaf_s
        for i, (qual, start, end, parent, _) in enumerate(self.spans):
            calls[qual] += 1
            self_s[qual] += (end - start) - child_s[i]
            outermost = True
            while parent >= 0:
                if self.spans[parent][0] == qual:
                    outermost = False
                    break
                parent = self.spans[parent][3]
            if outermost:
                incl[qual] += end - start
        for qual, (n, seconds) in self.leaf_totals.items():
            calls[qual] = n
            incl[qual] = seconds
        distinct = set()
        for assignment in self._assignments.values():
            for family in assignment.pvms.values():
                distinct.update(family.values())
        counters = dict(self.counters, **{"qop.distinct_projectors": len(distinct)})
        out = {}
        for qual in TRACED:
            out[f"{qual}.calls"] = calls[qual]
            out[f"{qual}.s"] = incl[qual]
            if qual not in LEAVES:
                out[f"{qual}.self_s"] = self_s[qual]
        out.update(counters)
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, leaf_s."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            for qual, (n, seconds) in sorted(self.leaf_totals.items()):
                fh.write(json.dumps({"leaf": qual, "calls": n, "s": seconds}) + "\n")


def _chromagap_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "chromagap" or name.startswith("chromagap."))
    ]
