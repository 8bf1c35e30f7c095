"""Per-layer metrics derived from one traced pass.

The layers are the asmlat modules.  Each metric names the spans it reads;
when none of them exist any more (a function was removed or renamed),
the metric is reported as absent, with value 0 in the result line.
"""

from __future__ import annotations

LAYERS = ("core", "io", "stats", "poset", "enumeration", "polynomials", "verify", "cli")

COVERS = ("poset.covers_up", "poset.covers_down")
ADD_TERM = ("polynomials.HalfIntPolynomial.add_term", "polynomials.BivariatePolynomial.add_term")
ITER_NEXT = "enumeration.iter_asms.next"
EXPORT = ("enumeration.HasseGraph.to_dot", "enumeration.HasseGraph.to_json_dict")
BUILD = "enumeration.build_hasse"

# Hooks run after a span closes and add to the tracer's counters.
def make_hooks(tracer) -> dict:
    def covers(args, result):
        tracer.count("poset.covers.edges", len(result))
        tracer.count("poset.covers.positions", (args[0].n - 1) ** 2)

    def terms(args, result):
        tracer.count("polynomials.terms_out", len(result.items()))

    def signed_terms(args, result):
        tracer.count("polynomials.terms_out", len(result[1].items()))

    return {
        "poset.covers_up": covers,
        "poset.covers_down": covers,
        "enumeration.genfun_stat": terms,
        "enumeration.bivariate_genfun": terms,
        "enumeration.signed_identity_check": signed_terms,
    }


class _View:
    def __init__(self, agg, counters):
        self.per_name = agg["per_name"]
        self.edges = agg["edges"]
        self.counters = counters

    def calls(self, *names):
        return sum(self.per_name[n][0] for n in names if n in self.per_name)

    def incl(self, *names):
        return sum(self.per_name[n][1] for n in names if n in self.per_name)

    def self_s(self, *names):
        return sum(self.per_name[n][2] for n in names if n in self.per_name)

    def layer_self(self, layer):
        return sum(row[2] for name, row in self.per_name.items() if name.split(".", 1)[0] == layer)

    def under(self, parent, *children):
        return sum(self.edges.get((parent, c), 0.0) for c in children)

    def counter(self, key):
        return self.counters.get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


# (name, unit, spans it needs, value from a _View).  Spans count as present
# when the tracer wrapped the function, whether or not it ran.
METRICS = [
    ("poset.covers.self_s", "s", COVERS, lambda v: v.self_s(*COVERS)),
    ("poset.covers.calls", "count", COVERS, lambda v: v.calls(*COVERS)),
    ("poset.cover_hit_ratio", "ratio", COVERS,
     lambda v: _ratio(v.counter("poset.covers.edges"), v.counter("poset.covers.positions"))),
    ("core.validate.calls", "count", ("core.validate",), lambda v: v.calls("core.validate")),
    ("core.corner_sum.calls", "count", ("core.corner_sum",), lambda v: v.calls("core.corner_sum")),
    ("poset.join_meet.self_s", "s", ("poset.join", "poset.meet"), lambda v: v.self_s("poset.join", "poset.meet")),
    ("poset.compare.self_s", "s", ("poset.compare",), lambda v: v.self_s("poset.compare")),
    ("core.from_corner_sum.calls", "count", ("core.from_corner_sum",), lambda v: v.calls("core.from_corner_sum")),
    ("enumeration.matrices", "count", ("enumeration.iter_asms",), lambda v: v.counter(ITER_NEXT + ".yields")),
    ("enumeration.matrices_per_s", "1/s", ("enumeration.iter_asms",),
     lambda v: _ratio(v.counter(ITER_NEXT + ".yields"), v.self_s(ITER_NEXT))),
    ("stats.stat_record.calls", "count", ("stats.stat_record",), lambda v: v.calls("stats.stat_record")),
    ("polynomials.add_term.calls", "count", ADD_TERM, lambda v: v.calls(*ADD_TERM)),
    ("polynomials.terms_out", "count", ("enumeration.genfun_stat",), lambda v: v.counter("polynomials.terms_out")),
    ("enumeration.export_s", "s", EXPORT, lambda v: v.incl(*EXPORT)),
    ("build_hasse.total_s", "s", (BUILD,), lambda v: v.incl(BUILD)),
    ("build_hasse.covers_s", "s", (BUILD,), lambda v: v.under(BUILD, *COVERS)),
    ("build_hasse.stat_record_s", "s", (BUILD,), lambda v: v.under(BUILD, "stats.stat_record")),
    ("build_hasse.enumerate_s", "s", (BUILD,), lambda v: v.under(BUILD, "enumeration.enumerate_asms")),
    ("build_hasse.self_s", "s", (BUILD,), lambda v: v.self_s(BUILD)),
]
METRICS += [
    (f"{layer}.self_s", "s", (), lambda v, layer=layer: v.layer_self(layer)) for layer in LAYERS
]

BASELINE_ROWS = (
    "baseline.iter_asms_s", "baseline.stat_record_all_s", "baseline.covers_up_all_s",
    "baseline.genfun_I_s", "baseline.join_s", "baseline.compare_s",
    "baseline.build_hasse_s", "baseline.verify_s",
)
TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.coverage", "ratio"), ("trace.spans", "count"))


def metric_names(suites) -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(name, unit) for name, unit, _, _ in METRICS]
    for suite in suites:
        out += [(f"verify.{suite}.s", "s"), (f"verify.{suite}.checked", "count")]
    out += [(name, "s") for name in BASELINE_ROWS]
    return out + list(TRACE_METRICS)


def derive(agg, counters, wrapped, suites, baseline, traced_wall, untraced_wall):
    """Returns ({name: (value, unit)}, [absent names])."""
    view = _View(agg, counters)
    values, absent = {}, []
    for name, unit, needs, fn in METRICS:
        if needs and not any(n in wrapped for n in needs):
            absent.append(name)
            values[name] = (0, unit)
        else:
            values[name] = (fn(view), unit)
    for suite in suites:
        span = f"verify.suite.{suite}"
        if span not in wrapped:
            absent += [f"verify.{suite}.s", f"verify.{suite}.checked"]
        values[f"verify.{suite}.s"] = (view.incl(span), "s")
        values[f"verify.{suite}.checked"] = (view.counter(f"verify.{suite}.checked"), "count")
    for name in BASELINE_ROWS:
        if baseline.get(name) is None:
            absent.append(name)
        values[name] = (baseline.get(name) or 0, "s")
    covered = sum(row[2] for row in agg["per_name"].values())
    values["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    values["trace.coverage"] = (_ratio(covered, traced_wall), "ratio")
    values["trace.spans"] = (agg["spans"], "count")
    return values, absent
