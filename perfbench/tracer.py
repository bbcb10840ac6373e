"""In-memory span tracing for the traced benchmark run.

The tracer wraps public gptsteer functions at the module attribute each
caller actually looks up.  Several names are imported by value
(`facets_of_cone` and `vertices_of_polytope` in `systems`,
`vertices_of_polytope` in `tensors`, `simplex_phase` in `lp`, the `enum_*`
kernels in `geometry`), so they are wrapped in every module that calls
them.  Spans nest: a span's self time is its duration minus the durations of
its traced children, and a function that re-enters itself (`polytopic_hull`
calling `polytopic`, `robustness` calling `lhs_check` calling `lp.feasibility`
calling `lp.solve`) is counted once per outermost call for calls and
inclusive time.  Nothing is written out until the run ends.
"""

import functools
import math
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name).  A span name bound in several modules is
# one function reached through several bindings.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("steering", "lhs_check", "steering.lhs_check"),
    ("steering", "robustness", "steering.robustness"),
    ("steering", "optimal_witness", "steering.optimal_witness"),
    ("tensors", "steering_norm", "tensors.steering_norm"),
    ("tensors", "projective_norm_dichotomic",
     "tensors.projective_norm_dichotomic"),
    ("tensors", "injective_norm_dichotomic",
     "tensors.injective_norm_dichotomic"),
    ("tensors", "sigma_interval_vertices", "tensors.sigma_interval_vertices"),
    ("choquet", "choquet_below", "choquet.choquet_below"),
    ("choquet", "dichotomic_below_exact", "choquet.dichotomic_below_exact"),
    ("choquet", "c_mu", "choquet.c_mu"),
    ("choquet", "c_mu_monte_carlo", "choquet.c_mu_monte_carlo"),
    ("bipartite", "unsteerable_dichotomic", "bipartite.unsteerable_dichotomic"),
    ("bipartite", "conditional_assemblage", "bipartite.conditional_assemblage"),
    ("systems", "polytopic", "systems.build"),
    ("systems", "polytopic_hull", "systems.build"),
    ("systems", "cone_member", "systems.cone_member"),
    ("geometry", "vertices_of_polytope", "geometry.vertices"),
    ("systems", "vertices_of_polytope", "geometry.vertices"),
    ("tensors", "vertices_of_polytope", "geometry.vertices"),
    ("geometry", "facets_of_cone", "geometry.facets"),
    ("systems", "facets_of_cone", "geometry.facets"),
    ("lp", "solve", "lp.solve"),
    ("lp", "feasibility", "lp.feasibility"),
    ("lp", "simplex_phase", "kernels.simplex_phase"),
    ("geometry", "enum_polytope_vertices", "kernels.enum_polytope_vertices"),
    ("geometry", "enum_cone_facets", "kernels.enum_cone_facets"),
)

QUESTION = "question"

# LP size classes by constraint rows (equality plus inequality).
LP_CLASSES = ("small", "medium", "large")   # < 16, 16-63, >= 64 rows


def _lp_class(problem):
    rows = problem.eq_rows.shape[0] + problem.ub_rows.shape[0]
    return "small" if rows < 16 else "medium" if rows < 64 else "large"


class _Frame:
    __slots__ = ("name", "start", "children", "outermost")

    def __init__(self, name, start, outermost):
        self.name = name
        self.start = start
        self.children = 0.0
        self.outermost = outermost


class Tracer:
    """Span recorder; `installed()` patches the library for its duration."""

    def __init__(self):
        self._stack = []
        self._active = Counter()
        self.calls = Counter()        # outermost calls per span name
        self.inclusive = Counter()    # seconds, outermost calls only
        self.self_time = Counter()    # seconds, every call
        self.lp_under = Counter()     # lp.solve calls made inside each span
        self.counts = Counter()       # other per-call tallies
        self.class_time = Counter()   # lp.solve seconds by size class
        self.questions = 0
        self.question_time = 0.0
        self.accounted = 0.0

    # -- spans ---------------------------------------------------------

    def _enter(self, name):
        frame = _Frame(name, time.perf_counter(), self._active[name] == 0)
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _exit(self, frame):
        duration = time.perf_counter() - frame.start
        self._stack.pop()
        self._active[frame.name] -= 1
        self.self_time[frame.name] += duration - frame.children
        if frame.outermost:
            self.calls[frame.name] += 1
            self.inclusive[frame.name] += duration
        if self._stack:
            self._stack[-1].children += duration
        return duration

    @contextmanager
    def question(self):
        """Root span of one benchmark question."""
        frame = self._enter(QUESTION)
        try:
            yield
        finally:
            duration = self._exit(frame)
            self.questions += 1
            self.question_time += duration
            self.accounted += frame.children

    def _wrap(self, fn, name):
        if name == "lp.solve":
            before, after = self._lp_before, self._lp_after
        elif name == "kernels.enum_polytope_vertices":
            before, after = self._vertex_subsets, None
        elif name == "kernels.enum_cone_facets":
            before, after = self._facet_subsets, None
        else:
            before = after = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                duration = self._exit(frame)
                if after is not None:
                    after(args, kwargs, None, duration)
                raise
            duration = self._exit(frame)
            if after is not None:
                after(args, kwargs, out, duration)
            return out

        return wrapper

    # -- per-call tallies ----------------------------------------------

    def _lp_before(self, args, kwargs):
        for name, depth in self._active.items():
            if depth:
                self.lp_under[name] += 1

    def _lp_after(self, args, kwargs, out, duration):
        problem = args[0] if args else kwargs["problem"]
        cls = _lp_class(problem)
        self.counts[f"lp.{cls}"] += 1
        self.class_time[cls] += duration
        if kwargs.get("mode", args[1] if len(args) > 1 else "float") == "exact":
            self.counts["lp.exact"] += 1
        if out is None:
            self.counts["lp.failures"] += 1
        elif out.status == "infeasible":
            self.counts["lp.infeasible"] += 1

    def _vertex_subsets(self, args, kwargs):
        m, d = args[0].shape
        self.counts["enum.vertex_subsets"] += math.comb(m, d)

    def _facet_subsets(self, args, kwargs):
        n, d = args[0].shape
        self.counts["enum.facet_subsets"] += math.comb(n, d - 1)

    @contextmanager
    def installed(self):
        """Wrap every target binding; restore the originals on exit."""
        import importlib

        wrappers = {}
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(f"gptsteer.{module_name}")
                original = getattr(module, attr)
                key = (id(original), name)
                if key not in wrappers:
                    wrappers[key] = self._wrap(original, name)
                saved.append((module, attr, original))
                setattr(module, attr, wrappers[key])
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- figures -------------------------------------------------------

    def metrics(self):
        """Per-layer figures, normalized per traced question."""
        q = max(self.questions, 1)

        def ms(name):
            return 1e3 * self.inclusive[name] / q

        def self_ms(name):
            return 1e3 * self.self_time[name] / q

        def per_q(name):
            return self.calls[name] / q

        robust_calls = self.calls["steering.robustness"]
        choquet_lps = sum(self.lp_under[f"choquet.{fn}"] for fn in (
            "choquet_below", "dichotomic_below_exact", "c_mu",
            "c_mu_monte_carlo"))
        lp_calls = self.calls["lp.solve"]
        out = {
            "steering.lhs_check.calls": per_q("steering.lhs_check"),
            "steering.lhs_check.ms": ms("steering.lhs_check"),
            "steering.robustness.calls": per_q("steering.robustness"),
            "steering.robustness.ms": ms("steering.robustness"),
            "steering.robustness.lp_calls":
                self.lp_under["steering.robustness"] / max(robust_calls, 1),
            "steering.optimal_witness.ms": ms("steering.optimal_witness"),
            "tensors.steering_norm.ms": ms("tensors.steering_norm"),
            "tensors.projective_norm_dichotomic.ms":
                ms("tensors.projective_norm_dichotomic"),
            "tensors.injective_norm_dichotomic.ms":
                ms("tensors.injective_norm_dichotomic"),
            "tensors.sigma_interval_vertices.calls":
                per_q("tensors.sigma_interval_vertices"),
            "tensors.sigma_interval_vertices.ms":
                ms("tensors.sigma_interval_vertices"),
            "choquet.choquet_below.ms": ms("choquet.choquet_below"),
            "choquet.dichotomic_below_exact.ms":
                ms("choquet.dichotomic_below_exact"),
            "choquet.c_mu.ms": ms("choquet.c_mu"),
            "choquet.c_mu_monte_carlo.ms": ms("choquet.c_mu_monte_carlo"),
            "choquet.lp_calls_per_question": choquet_lps / q,
            "bipartite.unsteerable_dichotomic.calls":
                per_q("bipartite.unsteerable_dichotomic"),
            "bipartite.unsteerable_dichotomic.ms":
                ms("bipartite.unsteerable_dichotomic"),
            "bipartite.conditional_assemblage.ms":
                ms("bipartite.conditional_assemblage"),
            "systems.build.calls": per_q("systems.build"),
            "systems.build.self_ms": self_ms("systems.build"),
            "systems.build.lp_calls": self.lp_under["systems.build"] / q,
            "systems.cone_member.calls": per_q("systems.cone_member"),
            "systems.cone_member.ms": ms("systems.cone_member"),
            "geometry.vertices.calls": per_q("geometry.vertices"),
            "geometry.vertices.ms": ms("geometry.vertices"),
            "geometry.facets.calls": per_q("geometry.facets"),
            "geometry.facets.ms": ms("geometry.facets"),
            "lp.solve.calls": lp_calls / q,
            "lp.solve.ms": ms("lp.solve"),
            "lp.solve.self_ms": self_ms("lp.solve") + self_ms("lp.feasibility"),
            "lp.solve.infeasible_share":
                self.counts["lp.infeasible"] / max(lp_calls, 1),
            "lp.solve.exact.calls": self.counts["lp.exact"] / q,
            "lp.failures": self.counts["lp.failures"] / q,
            "kernels.simplex_phase.calls": per_q("kernels.simplex_phase"),
            "kernels.simplex_phase.ms": ms("kernels.simplex_phase"),
            "kernels.enum_polytope_vertices.ms":
                ms("kernels.enum_polytope_vertices"),
            "kernels.enum_cone_facets.ms": ms("kernels.enum_cone_facets"),
            "kernels.enum_polytope_vertices.subsets":
                self.counts["enum.vertex_subsets"] / q,
            "kernels.enum_cone_facets.subsets":
                self.counts["enum.facet_subsets"] / q,
            "trace.question_ms": 1e3 * self.question_time / q,
            "trace.accounted_share":
                self.accounted / self.question_time
                if self.question_time > 0 else 0.0,
        }
        for cls in LP_CLASSES:
            out[f"lp.solve.{cls}.calls"] = self.counts[f"lp.{cls}"] / q
            out[f"lp.solve.{cls}.ms"] = 1e3 * self.class_time[cls] / q
        return out
