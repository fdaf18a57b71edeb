"""Spans around the layer boundaries of bfmix, installed from outside.

The tracer replaces each traced function by a wrapper in every ``bfmix``
module namespace that holds it (``elliptic``, ``model`` and ``heun`` bind
``odeint.integrate`` at import, so patching ``odeint`` alone would miss their
calls) and on the ``PuiseuxSeries`` class.  ``uninstall`` puts the originals
back, so one process can time the same point untraced and traced.

A span records its name, start, end, parent span and point id; spans stay in
memory (compact arrays) until the run writes them out.  A span's self time
is its duration minus the durations of its direct children: the program is
single-threaded, so children never overlap.

Functions that run once per quadrature node or per ODE step inside their
own module (``melnikov.poisson_bracket_H0H1``, ``model.eom``,
``model.hamiltonian``, ...) carry no span: their time stays with the
enclosing span of the same layer, or with ``odeint.rhs`` when they run inside
an ODE right-hand side.  ``melnikov.contour.points`` counts those quadrature
nodes instead.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

#: layer -> [(attribute, span name)]; an attribute "Class.method" is a method
TRACED = {
    "cli": [("main", "cli.main")],
    "verdict": [(f, f"verdict.{f}") for f in (
        "classify", "analyze_case1", "analyze_case1_direct", "analyze_case2",
        "analyze_case3")],
    "lame": [(f, f"lame.{f}") for f in (
        "lame_index", "lame_offset", "p_coefficients",
        "p_coefficients_from_invariants", "lame_data", "theorem5_check")],
    "heun": [(f, f"heun.{f}") for f in (
        "reduce_case1", "reduce_from_params", "transform_consistency",
        "euler_exponent_check")],
    "variational": [(f, f"variational.{f}") for f in (
        "qbar0_series", "build_ve1", "frobenius", "variation_of_constants",
        "forcing_k2", "forcing_k3", "scan_choices")]
        + [("higher_ve_residues", "variational.pipeline")],
    "elliptic": [("invariants_from_energy", "elliptic.invariants_from_energy"),
                 ("wp_laurent", "elliptic.wp_laurent"),
                 ("wp_numeric_with_derivative", "elliptic.wp_numeric")],
    "series": [(f"PuiseuxSeries.{m}", f"series.{n}") for m, n in (
        ("__mul__", "mul"), ("invert", "invert"), ("sqrt", "sqrt"),
        ("pow", "pow"), ("__add__", "add"), ("__sub__", "sub"),
        ("__neg__", "neg"), ("scale", "scale"), ("shift", "shift"),
        ("truncate", "truncate"), ("differentiate", "differentiate"),
        ("antiderivative", "antiderivative"), ("residue", "residue"),
        ("evaluate", "evaluate"), ("to_float", "to_float"),
        ("agrees_with", "agrees_with"))],
    "melnikov": [("setup", "melnikov.setup"),
                 ("melnikov_numeric", "melnikov.contour"),
                 ("fitted_amplitude", "melnikov.fit"),
                 ("find_simple_zeros", "melnikov.zeros"),
                 ("predicted_amplitude", "melnikov.predicted_amplitude"),
                 ("melnikov_closed_form", "melnikov.melnikov_closed_form")],
    "model": [(f, f"model.{f}") for f in (
        "make_params", "make_params_c0sq", "normalize", "solution_case1",
        "solution_case2", "separatrix_energy", "separatrix_case3",
        "integrate_orbit", "case1_residual", "case2_residual",
        "separatrix_residual")],
    "odeint": [("integrate", "odeint.integrate")],
}

#: per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "series.mul.calls": ("count", "lower"),
    "series.mul.term_pairs": ("count", "lower"),
    "series.mul.self_s": ("s", "lower"),
    "series.invert.calls": ("count", "lower"),
    "series.invert.self_s": ("s", "lower"),
    "series.sqrt.calls": ("count", "lower"),
    "series.sqrt.self_s": ("s", "lower"),
    "series.max_terms": ("count", "lower"),
    "series.self_s": ("s", "lower"),
    "variational.pipeline.calls": ("count", "lower"),
    "variational.pipeline.per_point": ("count/point", "lower"),
    "variational.build_ve1.calls": ("count", "lower"),
    "variational.build_ve1.per_point": ("count/point", "lower"),
    "variational.build_ve1.self_s": ("s", "lower"),
    "variational.frobenius.calls": ("count", "lower"),
    "variational.frobenius.self_s": ("s", "lower"),
    "variational.forcing.self_s": ("s", "lower"),
    "variational.voc.self_s": ("s", "lower"),
    "variational.self_s": ("s", "lower"),
    "elliptic.wp_laurent.calls": ("count", "lower"),
    "elliptic.wp_laurent.self_s": ("s", "lower"),
    "elliptic.wp_numeric.calls": ("count", "lower"),
    "elliptic.wp_numeric.self_s": ("s", "lower"),
    "melnikov.contour.calls": ("count", "lower"),
    "melnikov.contour.points": ("count", "lower"),
    "melnikov.contour.self_s": ("s", "lower"),
    "melnikov.fit.self_s": ("s", "lower"),
    "melnikov.zeros.self_s": ("s", "lower"),
    "melnikov.zeros.found": ("count", "lower"),
    "odeint.integrate.calls": ("count", "lower"),
    "odeint.rhs_evals": ("count", "lower"),
    "odeint.self_s": ("s", "lower"),
    "odeint.rhs.self_s": ("s", "lower"),
    "model.self_s": ("s", "lower"),
    "heun.self_s": ("s", "lower"),
    "verdict.self_s": ("s", "lower"),
    "verdict.scan_share": ("frac", "lower"),
    "lame.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
}

#: counts that must repeat exactly at one seed
EXACT_COUNTS = ("series.mul.term_pairs", "variational.build_ve1.per_point",
                "melnikov.contour.points", "melnikov.zeros.found",
                "odeint.rhs_evals")

_C2 = ["case2-witness", "case2-survivors"]
_ALL = _C2 + ["case3-splitting", "ode-crosscheck"]
_NONE = "none expected on the other workloads"

#: what each per-layer metric should move: (end-to-end metrics, workloads,
#: prediction elsewhere)
PREDICTIONS = {
    "series.*": (["points_per_s", "point_p50_ms"], _C2,
                 "none on case3-splitting and ode-crosscheck"),
    "variational.pipeline.per_point, variational.build_ve1.per_point, "
    "variational.frobenius.calls": (["points_per_s"], ["case2-survivors"],
                                    "little on case2-witness"),
    "variational.forcing.self_s, variational.voc.self_s":
        (["points_per_s"], _C2, _NONE),
    "variational shared context": (["peak_rss_mb"], _C2, "may rise"),
    "elliptic.wp_laurent.*": (["points_per_s"], _C2, _NONE),
    "elliptic.wp_numeric.*": (["points_per_s"], ["ode-crosscheck"], _NONE),
    "melnikov.*": (["points_per_s", "point_p50_ms"], ["case3-splitting"],
                   "none on the case2 workloads"),
    # the zeros lie at k*pi/theta, so their number is fixed by the points
    "melnikov.zeros.found": ([], ["case3-splitting"],
                             "unchanged everywhere; its direction is nominal"),
    "odeint.*, model.self_s, heun.self_s": (["points_per_s", "cpu_ms_per_point"],
                                            ["ode-crosscheck"],
                                            "a series change must not move them"),
    "verdict.*, lame.self_s, cli.self_s": ([], _ALL,
                                           "small everywhere; a change to them "
                                           "leaves all four workloads unchanged"),
}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, bfmix):
        self._bfmix = bfmix
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.point = array("i")
        self._stack: list = []
        self.point_id = -1
        self.counts: Counter = Counter()
        self._patches: list = []
        self._wrappers = self._build_wrappers()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording one span per call; ``before`` may rewrite the
        arguments, ``after`` sees the result."""
        nid = self._id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, points, stack = self.parent, self.point, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            points.append(self.point_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return traced

    # -- counters -------------------------------------------------------------

    def _count_mul(self, args, kwargs):
        a, b = args[0], args[1]
        if isinstance(b, type(a)):
            na = sum(1 for _ in a.terms())
            nb = sum(1 for _ in b.terms())
            self.counts["series.mul.term_pairs"] += na * nb
            self.counts["series.max_terms"] = max(
                self.counts["series.max_terms"], na, nb)
        return args

    def _count_contour(self, args, kwargs):
        s = args[0]
        check = kwargs.get("check_radius_independence",
                           args[2] if len(args) > 2 else True)
        # the radius check integrates again on 2x the nodes at half radius
        self.counts["melnikov.contour.points"] += s.contour_points * (3 if check else 1)
        return args

    def _count_zeros(self, zeros):
        self.counts["melnikov.zeros.found"] += len(zeros)

    def _rhs_span(self, args, kwargs):
        return (self.wrap("odeint.rhs", args[0]),) + tuple(args[1:])

    # -- installation ---------------------------------------------------------

    def _build_wrappers(self):
        hooks = {"series.mul": (self._count_mul, None),
                 "melnikov.contour": (self._count_contour, None),
                 "melnikov.zeros": (None, self._count_zeros),
                 "odeint.integrate": (self._rhs_span, None)}
        out = []
        for layer, entries in TRACED.items():
            module = getattr(self._bfmix, layer)
            for attr, name in entries:
                owner = module
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(module, cls)
                original = owner.__dict__.get(attr)
                if original is None:
                    continue        # gone from this version: its metrics read 0
                before, after = hooks.get(name, (None, None))
                out.append((original, self.wrap(name, original, before, after)))
        return out

    def install(self):
        """Replace every binding of a traced function in the bfmix modules
        and classes."""
        originals = {id(orig): wrapper for orig, wrapper in self._wrappers}
        owners = [m for n, m in sys.modules.items()
                  if n == "bfmix" or n.startswith("bfmix.")]
        owners.append(self._bfmix.series.PuiseuxSeries)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per span name, and the set of point ids
        that entered each span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        points: defaultdict = defaultdict(set)
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
            points[name].add(self.point[i])
        return calls, self_s, points

    def metrics(self) -> dict:
        """Every per-layer metric except ``trace_overhead_frac``."""
        calls, self_s, points = self.self_times()

        def layer_self(layer):
            return sum(v for k, v in self_s.items() if k.split(".")[0] == layer)

        case2 = len(points["verdict.analyze_case2"])
        per_point = (lambda c: c / case2) if case2 else (lambda c: 0.0)
        c = self.counts
        m = {
            "series.mul.calls": calls["series.mul"],
            "series.mul.term_pairs": c["series.mul.term_pairs"],
            "series.mul.self_s": self_s["series.mul"],
            "series.invert.calls": calls["series.invert"],
            "series.invert.self_s": self_s["series.invert"],
            "series.sqrt.calls": calls["series.sqrt"],
            "series.sqrt.self_s": self_s["series.sqrt"],
            "series.max_terms": c["series.max_terms"],
            "series.self_s": layer_self("series"),
            "variational.pipeline.calls": calls["variational.pipeline"],
            "variational.pipeline.per_point":
                per_point(calls["variational.pipeline"]),
            "variational.build_ve1.calls": calls["variational.build_ve1"],
            "variational.build_ve1.per_point":
                per_point(calls["variational.build_ve1"]),
            "variational.build_ve1.self_s": self_s["variational.build_ve1"],
            "variational.frobenius.calls": calls["variational.frobenius"],
            "variational.frobenius.self_s": self_s["variational.frobenius"],
            "variational.forcing.self_s": (self_s["variational.forcing_k2"]
                                           + self_s["variational.forcing_k3"]),
            "variational.voc.self_s": self_s["variational.variation_of_constants"],
            "variational.self_s": layer_self("variational"),
            "elliptic.wp_laurent.calls": calls["elliptic.wp_laurent"],
            "elliptic.wp_laurent.self_s": self_s["elliptic.wp_laurent"],
            "elliptic.wp_numeric.calls": calls["elliptic.wp_numeric"],
            "elliptic.wp_numeric.self_s": self_s["elliptic.wp_numeric"],
            "melnikov.contour.calls": calls["melnikov.contour"],
            "melnikov.contour.points": c["melnikov.contour.points"],
            "melnikov.contour.self_s": self_s["melnikov.contour"],
            "melnikov.fit.self_s": self_s["melnikov.fit"],
            "melnikov.zeros.self_s": self_s["melnikov.zeros"],
            "melnikov.zeros.found": c["melnikov.zeros.found"],
            "odeint.integrate.calls": calls["odeint.integrate"],
            "odeint.rhs_evals": calls["odeint.rhs"],
            "odeint.self_s": self_s["odeint.integrate"],
            "odeint.rhs.self_s": self_s["odeint.rhs"],
            "model.self_s": layer_self("model"),
            "heun.self_s": layer_self("heun"),
            "verdict.self_s": layer_self("verdict"),
            "verdict.scan_share": (len(points["variational.scan_choices"]) / case2
                                   if case2 else 0.0),
            "lame.self_s": layer_self("lame"),
            "cli.self_s": layer_self("cli"),
        }
        return m

    def write_spans(self, path):
        """One CSV row per span: point, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("span,point,name,start_s,end_s,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.point[i]},{self.names[self.name[i]]},"
                         f"{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n")
