"""Layer attribution from the benchmark's own code; ``src/`` is not edited.

Spans.  Each public layer function below is replaced, for the duration
of a traced pass, by a wrapper that records ``[label, start, end,
parent]``.  The wrapper is installed under every name that refers to
the function in any ``schauderspec`` submodule, which is where the
calling module looks it up (``schauderspec.cli.deflate``,
``schauderspec.schauder.shift_eigen_exclude``,
``schauderspec.spectral.check_single_orbit`` for the call inside
``shift_eigen_exclude``, ...).  Spans nest, so a layer's self time is
its span duration minus its child spans; the benchmark's ``root`` span
around each ``cli.main`` call keeps what no layer covers, and the self
times of all labels add up to the root durations exactly.

Counts.  The hot methods (``ScalarRule.value`` on every rule class,
``Permutation.forward`` / ``inverse``, ``OperatorExpr.entry`` on every
operator class) are only wrapped in a separate counting pass, because
a wrapper on each of millions of calls would distort the timings.

Isolated costs.  ``rule_eval_ns`` and ``perm_step_ns`` time the
workload's walked weight rule and permutation alone over the indices a
walk to the workload's deepest witness visits.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (span label, defining module, function).  Labels shared by several
# functions add up; ``<label>_s`` is the label's self time.
LAYER_FUNCTIONS = (
    ("cli.self", "cli", "run"),
    ("serde.parse", "serde", "parse_spec_document"),
    ("serde.encode", "serde", "certificate_to_json"),
    ("serde.encode", "serde", "report_to_json"),
    ("schauder.deflate_self", "schauder", "deflate"),
    ("schauder.spectrum", "schauder", "schauder_spectrum"),
    ("schauder.spectrum", "schauder", "is_schauder"),
    ("schauder.spectrum", "schauder", "is_compact_structural"),
    ("schauder.audit", "schauder", "audit_deflation"),
    ("spectral.exclude", "spectral", "shift_eigen_exclude"),
    ("spectral.adjoint", "spectral", "adjoint_exclusion"),
    ("spectral.single_orbit", "spectral", "check_single_orbit"),
    ("spectral.dense_eigs", "spectral", "dense_eigs"),
    ("spectral.kernel_trivial", "spectral", "kernel_trivial"),
    ("op_algebra.recognize", "op_algebra", "recognize_shift_form"),
    ("op_algebra.truncate", "op_algebra", "truncate"),
    ("op_algebra.truncate", "op_algebra", "truncate_complex"),
    ("index_maps.decompose", "index_maps", "decompose_into_spreads"),
)
LAYER_LABELS = tuple(dict.fromkeys(label for label, _, _ in LAYER_FUNCTIONS))
CALL_LABELS = ("serde.encode", "spectral.exclude", "spectral.adjoint",
               "spectral.single_orbit", "op_algebra.recognize")
ROOT = "root"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if name.startswith("schauderspec.") and m is not None]


@contextmanager
def _replaced(targets):
    """Replace functions by wrappers wherever a submodule binds them.

    ``targets`` maps ``id(original)`` to ``(original, wrapper)``.
    """
    undo = []
    try:
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None and wrapper[0] is value:
                    setattr(module, name, wrapper[1])
                    undo.append((module, name, value))
        yield
    finally:
        for module, name, value in reversed(undo):
            setattr(module, name, value)


class Tracer:
    """In-memory spans ``[label, start, end, parent index]``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []

    def wrap(self, label, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [label, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        targets = {}
        for label, modname, fname in LAYER_FUNCTIONS:
            fn = getattr(importlib.import_module(f"schauderspec.{modname}"),
                         fname, None)
            if fn is None:
                self.missing.append(f"schauderspec.{modname}.{fname}")
                continue
            targets[id(fn)] = (fn, self.wrap(label, fn))
        with _replaced(targets):
            yield

    def summary(self) -> dict:
        """Self time and calls per label, and the root (traced) wall."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        wall = 0.0
        for i, (label, start, end, parent) in enumerate(self.spans):
            self_s[label] += (end - start) - child[i]
            calls[label] += 1
            if parent < 0:
                wall += end - start
        return {"self_s": dict(self_s), "calls": dict(calls), "wall": wall}


def _all_subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        for sub in c.__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


@contextmanager
def counting(counts: Counter):
    """Count hot-method calls under ``counts`` keys while active."""
    from schauderspec.index_maps import Permutation
    from schauderspec.op_algebra import OperatorExpr
    from schauderspec.sequences import ScalarRule

    hot = [(cls, "value", "sequences.rule_evals")
           for cls in [ScalarRule] + _all_subclasses(ScalarRule)]
    hot += [(Permutation, "forward", "index_maps.perm_steps"),
            (Permutation, "inverse", "index_maps.perm_steps")]
    hot += [(cls, "entry", "op_algebra.entry_calls")
            for cls in [OperatorExpr] + _all_subclasses(OperatorExpr)]
    undo = []

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    try:
        for cls, attr, key in hot:
            fn = cls.__dict__.get(attr)
            if fn is not None:
                setattr(cls, attr, counted(fn, key))
                undo.append((cls, attr, fn))
        yield
    finally:
        for cls, attr, fn in reversed(undo):
            setattr(cls, attr, fn)


def _ns_per_call(call, args, min_seconds=0.02, repeats=5) -> float:
    """Median over ``repeats`` of the per-call cost of ``call`` over ``args``."""
    loops = 1
    while True:
        t = time.perf_counter()
        for _ in range(loops):
            for a in args:
                call(a)
        dt = time.perf_counter() - t
        if dt >= min_seconds:
            break
        loops *= 2
    samples = [dt]
    for _ in range(repeats - 1):
        t = time.perf_counter()
        for _ in range(loops):
            for a in args:
                call(a)
        samples.append(time.perf_counter() - t)
    return statistics.median(samples) / (loops * len(args)) * 1e9


def isolated_costs(shift, steps: int) -> dict:
    """Per-call ns of the shift's weight rule and permutation steps.

    The indices are those a direct-side walk of ``steps`` steps from
    index 1 visits in both orbit directions.
    """
    forward, backward = [1], [1]
    for _ in range(steps):
        forward.append(shift.perm.forward(forward[-1]))
        backward.append(shift.perm.inverse(backward[-1]))
    perm_ns = (_ns_per_call(shift.perm.forward, forward[:-1])
               + _ns_per_call(shift.perm.inverse, backward[:-1])) / 2
    rule_ns = _ns_per_call(shift.weights.value, forward[:-1] + backward[1:])
    return {"sequences.rule_eval_ns": rule_ns, "index_maps.perm_step_ns": perm_ns}
