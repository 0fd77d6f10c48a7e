"""In-memory tracing of ncindep's layers, installed from outside the package.

:func:`install` replaces selected public functions, methods and
constructors of the ``ncindep`` modules with wrappers that record either a
span (name, start, end, parent) or a count.  Module-level names are
replaced in every ``ncindep`` module that imported them, so calls between
modules go through the wrappers too.  Nothing under ``src/`` is edited.

Spans are kept in memory; :meth:`Tracer.write` dumps them as CSV when the
run ends and :meth:`Tracer.self_times` folds them into per-name self time
(a span's duration minus the durations of its direct children).
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, metric).  An attribute "Class.method" wraps a method
# or a dataclass __post_init__ (the constructor's validating body).  Spans
# are named after the metric that reports their self time.
SPANS = (
    ("algebra", "apply_homomorphism", "algebra.apply_hom_ms"),
    ("moments", "MomentFunctional.__post_init__", "moments.build_ms"),
    ("moments", "pullback", "moments.pullback_ms"),
    ("products", "JointFunctional.evaluate", "products.evaluate_ms"),
    ("products", "sum_moment", "products.sum_moment_ms"),
    ("products", "eval_graded_tensor", "products.graded_ms"),
    ("products", "free_centering_oracle", "products.oracle_ms"),
    ("reductions", "embed_word", "reductions.embed_ms"),
    ("reductions", "tensor_value", "reductions.tensor_value_ms"),
    ("axioms", "gen_random_state", "axioms.gen_state_ms"),
    ("axioms", "gen_random_homomorphism", "axioms.gen_hom_ms"),
    ("axioms", "run_axiom_suite", "axioms.suite_self_ms"),
    ("cli", "main", "cli.self_ms"),
)

COUNTS = (
    ("rational", "as_rational", "rational.coercions"),
    ("algebra", "Monomial.__post_init__", "algebra.monomials_built"),
    ("algebra", "Word.__post_init__", "algebra.words_built"),
    ("algebra", "normalize_word", "algebra.normalize_calls"),
    ("moments", "MomentFunctional.__post_init__", "moments.states_built"),
    ("moments", "MomentFunctional.value_of_letters", "moments.lookups"),
    ("products", "JointFunctional.evaluate", "products.words_evaluated"),
)
# counts of work reported by the call rather than of calls
DERIVED_COUNTS = ("moments.entries_built", "reductions.words_checked")


class Tracer:
    """Span and count store.  ``counts`` may be swapped for another dict to
    keep counts of one phase (such as output checking) apart."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.stack: list = [-1]
        self.counts: dict = {}

    def open(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1]])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def add(self, name, amount=1):
        counts = self.counts
        counts[name] = counts.get(name, 0) + amount

    def self_times(self):
        """Total self time in seconds per span name."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: dict = {}
        for (name, start, end, _), inner in zip(self.spans, children):
            totals[name] = totals.get(name, 0.0) + (end - start - inner)
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,name,start,end,parent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write("%d,%s,%.9f,%.9f,%d\n" % (index, name, start, end, parent))


def _span(tracer, name, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapped


def _count(tracer, name, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        counts = tracer.counts
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapped


def _state_built(tracer, fn):
    """MomentFunctional.__post_init__: count the state and its table size."""

    @functools.wraps(fn)
    def wrapped(self):
        fn(self)
        tracer.add("moments.entries_built", len(self.table))

    return wrapped


def _sweep_checked(tracer, fn):
    """reduction_sweep: add the number of words it reports as checked."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.add("reductions.words_checked", result[0])
        return result

    return wrapped


def _replace(package, module_name, attribute, make):
    """Wrap ``module.attribute`` and rebind every reference to it."""
    module = sys.modules["%s.%s" % (package, module_name)]
    if "." in attribute:
        class_name, method = attribute.split(".")
        owner = getattr(module, class_name)
        original = owner.__dict__[method]
        wrapped = make(original)
        for key, value in list(owner.__dict__.items()):
            if value is original:  # e.g. JointFunctional.__call__ = evaluate
                setattr(owner, key, wrapped)
        return
    original = getattr(module, attribute)
    wrapped = make(original)
    for name, loaded in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


def install(tracer, package="ncindep"):
    """Wrap the layers listed in SPANS and COUNTS, plus the two derived
    counts.  Wrappers nest: a span around a count around the original."""
    for module_name, attribute, metric in COUNTS:
        _replace(package, module_name, attribute,
                 lambda fn, metric=metric: _count(tracer, metric, fn))
    _replace(package, "moments", "MomentFunctional.__post_init__",
             lambda fn: _state_built(tracer, fn))
    _replace(package, "reductions", "reduction_sweep",
             lambda fn: _sweep_checked(tracer, fn))
    for module_name, attribute, name in SPANS:
        _replace(package, module_name, attribute,
                 lambda fn, name=name: _span(tracer, name, fn))
