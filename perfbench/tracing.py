"""Span tracing of facestack's layers, applied from outside the package.

The tracer replaces each traced public function with a wrapper that records
a span (name, start, end, parent span, variant, counts). Modules that did
`from .svm import svm_fit` hold their own reference, so a wrapper is put in
every facestack namespace that holds the original; `decision_function` is
patched on the `SvmModel` class. Spans stay in memory until the run ends.
"""

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int = -1      # index of the enclosing span, -1 for a root
    variant: str = ""
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []   # indices of the spans now open, innermost last

    @contextmanager
    def span(self, name, variant=""):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        sp = Span(name, self.clock(), parent, variant)
        self.spans.append(sp)
        self._open.append(idx)
        try:
            yield sp
        finally:
            self._open.pop()
            sp.end = self.clock()

    def wrap(self, name, fn, variant=None, count=None):
        """fn wrapped in a span; variant(args, kwargs) and count(args, result) are optional."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, variant(args, kwargs) if variant else "") as sp:
                result = fn(*args, **kwargs)
                if count:
                    sp.counts = count(args, result)
                return result
        return traced


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append(sp)
    out = []
    for i, sp in enumerate(spans):
        covered, reach = 0.0, sp.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp.end - sp.start - covered)
    return out


# ---------------------------------------------------------------- patching

def _facestack_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "facestack" or name.startswith("facestack."))]


def patch_everywhere(original, replacement):
    """Point every facestack module attribute bound to original at replacement.

    Returns the undo list of (module, attribute, original).
    """
    undo = []
    for mod in _facestack_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def unpatch(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _arg(pos, key):
    return lambda args, kwargs: str(kwargs[key] if key in kwargs else args[pos])


def _rows(X):
    X = getattr(X, "data", X)  # FeatureMatrix or array
    return 1 if getattr(X, "ndim", 2) == 1 else len(X)


def _fit_counts(args, model):
    return {"train_rows": _rows(args[0]), "n_support": len(model.dual_coefs)}


def _score_counts(args, _):
    model, X = args[0], args[1]
    return {"kernel_evals": _rows(X) * len(model.dual_coefs)}


# (module, function, variant, count); span names are "<module>.<function>"
TRACED = (
    ("geometry", "prepare_pattern", _arg(3, "pattern_id"), None),
    ("pgm", "load_gray", None, None),
    ("pgm", "read_pgm", None, None),
    ("pgm", "write_pgm", None, None),
    ("descriptors", "extract_descriptor", _arg(1, "descriptor_id"), None),
    ("features", "save_features", None, None),
    ("features", "load_features", None, None),
    ("dataset", "load_manifest", None, None),
    ("dataset", "make_folds", None, None),
    ("svm", "svm_fit", None, _fit_counts),
    ("svm", "grid_search", None, None),
    ("svm", "decision_function", None, _score_counts),
    ("stacking", "oof_scores", None, None),
    ("stacking", "stack_fit", None, None),
    ("stacking", "stack_scores", None, None),
    ("evaluation", "run_kfold", None, None),
    ("evaluation", "evaluate", None, None),
)


def install(tracer):
    """Wrap every TRACED function; returns the undo list for unpatch()."""
    import facestack.svm

    undo = []
    for module, fn_name, variant, count in TRACED:
        name = f"{module}.{fn_name}"
        if fn_name == "decision_function":
            cls = facestack.svm.SvmModel
            original = cls.decision_function
            cls.decision_function = tracer.wrap(name, original, variant, count)
            undo.append((cls, "decision_function", original))
            continue
        original = getattr(sys.modules[f"facestack.{module}"], fn_name)
        undo += patch_everywhere(original, tracer.wrap(name, original, variant, count))
    return undo


def count_fits(counts):
    """Count svm_fit calls and training rows without spans; returns the undo list.

    Used on untraced passes to record the workload's shape: one extra Python
    call per fit, against fits that take milliseconds.
    """
    from facestack.svm import svm_fit

    @functools.wraps(svm_fit)
    def counted(X, *args, **kwargs):
        counts["svm_fits"] += 1
        counts["train_rows"] += _rows(X)
        return svm_fit(X, *args, **kwargs)
    return patch_everywhere(svm_fit, counted)


# ---------------------------------------------------------------- metrics

PATTERNS = ("F", "HS64")
DESCRIPTORS = ("hog", "lbpu2", "losib")
COMMANDS = ("prepare", "extract", "eval")
MODULES = ("cli", "geometry", "pgm", "descriptors", "features", "dataset",
           "svm", "stacking", "evaluation")


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced pass: {name: (value, unit)}.

    Functions a workload never calls read 0. self_frac is a module's summed
    self time over the pass's traced wall time.
    """
    st = self_times(spans)
    calls, self_s, counts = defaultdict(int), defaultdict(float), defaultdict(int)
    for sp, s in zip(spans, st):
        for key in (sp.name, f"{sp.name}.{sp.variant}" if sp.variant else None):
            if key:
                calls[key] += 1
                self_s[key] += s
                for c, v in sp.counts.items():
                    counts[f"{key}.{c}"] += v

    def per(key):
        return 1000.0 * self_s[key] / calls[key] if calls[key] else 0.0

    def mean_count(key, c):
        return counts[f"{key}.{c}"] / calls[key] if calls[key] else 0.0

    m = {}
    for p in PATTERNS:
        m[f"geometry.prepare_pattern.{p}.ms_per_img"] = (per(f"geometry.prepare_pattern.{p}"), "ms")
    for d in DESCRIPTORS:
        m[f"descriptors.extract_descriptor.{d}.ms_per_img"] = (
            per(f"descriptors.extract_descriptor.{d}"), "ms")
    for fn in ("read_pgm", "write_pgm"):
        m[f"pgm.{fn}.ms_per_img"] = (per(f"pgm.{fn}"), "ms")
    fit = "svm.svm_fit"
    m[f"{fit}.calls"] = (calls[fit], "count")
    m[f"{fit}.self_s"] = (self_s[fit], "s")
    m[f"{fit}.ms_per_call"] = (per(fit), "ms")
    m[f"{fit}.train_rows"] = (mean_count(fit, "train_rows"), "rows")
    m[f"{fit}.n_support_mean"] = (mean_count(fit, "n_support"), "count")
    m["svm.grid_search.calls"] = (calls["svm.grid_search"], "count")
    m["svm.grid_search.self_s"] = (self_s["svm.grid_search"], "s")
    df = "svm.decision_function"
    m[f"{df}.calls"] = (calls[df], "count")
    m[f"{df}.self_s"] = (self_s[df], "s")
    m[f"{df}.kernel_evals"] = (counts[f"{df}.kernel_evals"], "count")
    for fn in ("oof_scores", "stack_fit", "stack_scores"):
        m[f"stacking.{fn}.self_s"] = (self_s[f"stacking.{fn}"], "s")
    for fn in ("run_kfold", "evaluate"):
        m[f"evaluation.{fn}.self_s"] = (self_s[f"evaluation.{fn}"], "s")
    for key in ("features.save_features", "features.load_features",
                "dataset.load_manifest", "dataset.make_folds"):
        m[f"{key}.s"] = (self_s[key], "s")
    for c in COMMANDS:
        m[f"cli.{c}.self_s"] = (self_s[f"cli.{c}"], "s")
    for mod in MODULES:
        total = sum(s for sp, s in zip(spans, st) if sp.name.split(".")[0] == mod)
        m[f"{mod}.self_frac"] = (total / wall_s if wall_s > 0 else 0.0, "frac")
    return m


def metric_names():
    """Names layer_metrics reports, plus the overhead ratio run.py adds."""
    return list(layer_metrics([], 1.0)) + ["trace.overhead_frac"]


def spans_doc(spans):
    """JSON-ready span list for writing out at the end of a run."""
    return [{"name": sp.name, "variant": sp.variant, "start": sp.start, "end": sp.end,
             "parent": sp.parent, "counts": sp.counts} for sp in spans]
