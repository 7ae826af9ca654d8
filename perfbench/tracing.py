"""Outside-in tracing of the symindex layers for the traced run.

Public functions of the package are replaced by timing wrappers under
every name they are looked up by (the defining module and each module
that imported them), so calls between modules are caught too.  Each
wrapped call leaves a span [name, start, end, parent, frame_evals,
frame_s, extra] in memory; frame evaluations are too many to keep one
span each, so they are counted and timed on the span they ran inside.
Nothing inside the package is changed.
"""

import collections
import dataclasses
import functools
import json
import sys
import time

perf_counter = time.perf_counter

#: (module, function, span name) for every wrapped layer boundary
SPANS = (
    ("maslov", "find_crossings", "maslov.scan"),
    ("maslov", "crossing_form", "maslov.form"),
    ("autonomous", "validate", "autonomous.validate"),
    ("autonomous", "calibrate_sign", "autonomous.calibrate"),
    ("autonomous", "triple_routes_from", "autonomous.triple"),
    ("autonomous", "correction_sign", "autonomous.correction"),
    ("kashiwara", "kashiwara_index", "kashiwara.index"),
    ("kashiwara", "kashiwara_reduced", "kashiwara.reduced"),
    ("krein", "krein_signature", "krein.signature"),
    ("krein", "krein_spectrum", "krein.spectrum"),
    ("krein", "classify_normal_form", "krein.classify"),
    ("krein", "krein_positive_angles", "krein.angles"),
    ("krein", "is_semisimple", "krein.semisimple"),
    ("symplectic", "subspace_intersection", "symplectic.intersection"),
    ("checks", "_collect", "checks.collect"),
)
#: numerics entry points that each run one SVD; counted, not spanned
SVD_FUNCTIONS = ("singular_values", "orthonormal_columns", "kernel_basis")
#: path factories whose frame_fn is wrapped to count frame evaluations
PATH_FACTORIES = ("orbit_path", "graph_path", "unitary_geodesic")
#: span fields, in order
FIELDS = ("name", "start", "end", "parent", "frame_evals", "frame_s", "extra")
_EXTRA = {
    "maslov.scan": lambda scan: len(scan.crossings),
    "checks.collect": lambda got_rejected: got_rejected[1],
}


class Tracer:
    """Span store; span 0 is the root that covers the whole traced run."""

    def __init__(self):
        self.spans = [["run", perf_counter(), 0.0, -1, 0, 0.0, 0]]
        self.stack = [0]
        self.svd_calls = 0

    def span(self, name, fn):
        spans, stack, extra = self.spans, self.stack, _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], 0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[6] = extra(out)
            return out
        return traced

    def counted_svd(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.svd_calls += 1
            return fn(*args, **kwargs)
        return counted

    def timed_frames(self, fn):
        spans, stack = self.spans, self.stack

        def frame(t):
            t0 = perf_counter()
            out = fn(t)
            rec = spans[stack[-1]]
            rec[4] += 1
            rec[5] += perf_counter() - t0
            return out
        return frame

    def path_factory(self, fn):
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            path = fn(*args, **kwargs)
            return dataclasses.replace(path, frame_fn=self.timed_frames(path.frame_fn))
        return factory

    def close(self):
        self.spans[0][2] = perf_counter()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh, separators=(",", ":"))


def _replace_everywhere(modules, original, replacement):
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(tracer: Tracer, si):
    """Wrap the layer boundaries of the loaded package ``si``."""
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == si.__name__ or k.startswith(si.__name__ + "."))]
    mod = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    boundaries = list(SPANS) + [
        ("checks", k, "checks." + k[len("check_"):])
        for k in vars(mod["checks"]) if k.startswith("check_")]
    for module, func, name in boundaries:
        original = getattr(mod[module], func)
        _replace_everywhere(modules, original, tracer.span(name, original))
    for func in SVD_FUNCTIONS:
        original = getattr(mod["numerics"], func)
        _replace_everywhere(modules, original, tracer.counted_svd(original))
    for func in PATH_FACTORIES:
        original = getattr(mod["maslov"], func)
        _replace_everywhere(modules, original, tracer.path_factory(original))
    system = mod["autonomous"].HamiltonianSystem
    system.psi = tracer.span("autonomous.psi", system.psi)


def layer_metrics(tracer: Tracer):
    """Per-layer totals from the spans; self time is a span's duration
    less its child spans and the frame evaluations it ran itself."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for rec in spans[1:]:
        child_s[rec[3]] += rec[2] - rec[1]
    agg = collections.defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, total, self, extra
    entries = collections.Counter()  # calls entering a layer from outside it
    frame_evals = frame_s = 0
    for i, (name, start, end, parent, evals, fs, extra) in enumerate(spans):
        frame_evals += evals
        frame_s += fs
        if i == 0:
            continue
        a = agg[name]
        a[0] += 1
        a[1] += end - start
        a[2] += end - start - child_s[i] - fs
        a[3] += extra
        layer = name.split(".")[0]
        if spans[parent][0].split(".")[0] != layer:
            entries[layer] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    scans, forms = agg["maslov.scan"], agg["maslov.form"]
    out = {
        "maslov.scan_s": (scans[1], "s"),
        "maslov.scans": (scans[0], "count"),
        "maslov.frame_s": (frame_s, "s"),
        "maslov.frame_evals": (frame_evals, "count"),
        "maslov.frame_evals_per_scan": (ratio(frame_evals, scans[0]), "count"),
        "maslov.detect_s": (scans[2], "s"),
        "maslov.forms": (forms[0], "count"),
        "maslov.form_s": (forms[1], "s"),
        "maslov.crossings": (scans[3], "count"),
        "maslov.crossings_per_form": (ratio(scans[3], forms[0]), "ratio"),
        "maslov.evals_per_crossing": (ratio(frame_evals, scans[3]), "count"),
        "autonomous.calibrate_s": (agg["autonomous.calibrate"][1], "s"),
        "autonomous.calibrate_calls": (agg["autonomous.calibrate"][0], "count"),
        "autonomous.psi_calls": (agg["autonomous.psi"][0], "count"),
        "autonomous.psi_s": (agg["autonomous.psi"][1], "s"),
        "autonomous.triple_s": (agg["autonomous.triple"][1], "s"),
        "autonomous.correction_s": (agg["autonomous.correction"][1], "s"),
        "autonomous.validate_self_s": (agg["autonomous.validate"][2], "s"),
        "kashiwara.index_s": (agg["kashiwara.index"][1], "s"),
        "kashiwara.index_calls": (agg["kashiwara.index"][0], "count"),
        "kashiwara.reduced_s": (agg["kashiwara.reduced"][1], "s"),
        "krein.spectrum_s": (agg["krein.spectrum"][1], "s"),
        "krein.classify_s": (agg["krein.classify"][1], "s"),
        "krein.calls": (entries["krein"], "count"),
        "symplectic.intersection_s": (agg["symplectic.intersection"][1], "s"),
        "symplectic.intersection_calls": (agg["symplectic.intersection"][0], "count"),
        "numerics.svd_calls": (tracer.svd_calls, "count"),
    }
    for name in CHECK_METRICS:
        out["checks.%s_s" % name] = (agg["checks." + name][1], "s")
    out["checks.rejected_draws"] = (agg["checks.collect"][3], "count")
    return out


#: the 13 property checks, by function name without the check_ prefix
CHECK_METRICS = (
    "rotation_closed_forms", "triple_axioms", "transversal_triple",
    "correction_symmetry", "reduction_equality", "reduced_form_signature",
    "quadruple_path_independence", "calibration", "main_identity",
    "loop_identity", "spectral_identities", "zero_property", "krein_pairing",
)
