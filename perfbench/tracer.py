"""In-memory span recorder for the layers of zerocohom.

The tracer wraps, from outside the library, every public module-level
function of the layer modules plus a few public methods, so that each
call records a span ``[id, name, parent, start, end]``.  Nothing under
``src/`` is edited: wrapping replaces the function objects in every
loaded ``zerocohom`` module namespace, which also catches names that one
layer imported from another (``from .abgroups import kernel_mod``).

Counters derived from arguments and return values are accumulated at
the same boundaries (see ``_COUNTER_HOOKS``).  Spans are kept in memory
and written once, when the run ends.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYER_MODULES = (
    "semigroups",
    "presentations",
    "modules",
    "cohomology",
    "abgroups",
    "natsys",
    "schur",
    "brauer",
    "partial",
    "cli",
)

# public methods that are layer boundaries in their own right
TRACED_METHODS = {
    ("abgroups", "QuotientPresentation", "__init__"): "abgroups.QuotientPresentation.build",
    ("abgroups", "QuotientPresentation", "coords"): "abgroups.QuotientPresentation.coords",
    ("schur", "SemilatticeOfGroups", "check_links_compose"): "schur.check_links_compose",
}

# smith_normal_form self time is split by the nearest of these ancestors
SNF_CALLERS = ("abgroups.solve_exact", "abgroups.kernel_mod")


def _matrix_bits(matrices):
    return max((abs(x).bit_length() for M in matrices for row in M.a for x in row), default=0)


def _snf(tr, args, result):
    M = args[0]
    tr.add("abgroups.smith_normal_form.cells", M.m * M.n)
    key = (M.m, M.n, hash(tuple(tuple(r) for r in M.a)))
    if key in tr.factored:
        tr.add("abgroups.smith_normal_form.repeats", 1)
    tr.factored.add(key)
    tr.maximum("abgroups.max_coeff_bits", _matrix_bits(result))


def _kernel_mod(tr, args, result):
    M, factors = args[0], args[1]
    tr.add("abgroups.kernel_mod.cols", M.n)
    tr.add("abgroups.kernel_mod.pad_cols", sum(1 for d in factors if d))


def _nerve(tr, args, result):
    tr.add("cohomology.nerve.tuples", len(result))


def _coboundary_hom(tr, args, result):
    M = result.matrix
    tr.add("cohomology.coboundary_hom.cells", M.m * M.n)
    tr.add("cohomology.coboundary_hom.nnz", sum(1 for row in M.a for x in row if x))


def _modifications(tr, args, result):
    tr.add("brauer.enumerate_modifications.count", len(result))


def _semilattice(tr, args, result):
    tr.add("schur.links", len(result.links))


_COUNTER_HOOKS = {
    "abgroups.smith_normal_form": _snf,
    "abgroups.kernel_mod": _kernel_mod,
    "cohomology.nerve": _nerve,
    "cohomology.coboundary_hom": _coboundary_hom,
    "brauer.enumerate_modifications": _modifications,
    "schur.schur_multiplier": _semilattice,
    "brauer.brauer_monoid": _semilattice,
}


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []  # [id, name, parent, start, end]
        self.stack = []
        self.counters = defaultdict(int)
        self.factored = set()  # matrices already factored in this phase

    def add(self, name, value):
        self.counters[name] += value

    def maximum(self, name, value):
        if value > self.counters[name]:
            self.counters[name] = value

    def begin(self, name):
        rec = [len(self.spans), name, self.stack[-1] if self.stack else None, time.perf_counter(), None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def end(self, rec):
        rec[4] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def new_phase(self):
        """Start a fresh set of counters (spans keep accumulating)."""
        done = dict(self.counters)
        self.counters = defaultdict(int)
        self.factored = set()
        return done

    def _wrap(self, name, fn):
        hook = _COUNTER_HOOKS.get(name)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            rec = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(rec)
            if hook is not None:
                hook(self, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self, also=()):
        """Wrap the layer functions in every loaded zerocohom module.

        ``also`` lists further modules whose imported names are replaced.
        """
        wrapped = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"zerocohom.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for (short, cls_name, meth), name in TRACED_METHODS.items():
            cls = getattr(importlib.import_module(f"zerocohom.{short}"), cls_name)
            setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
        mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "zerocohom"]
        for mod in mods + list(also):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        return self

    def merge(self, spans, parent):
        """Adopt spans recorded by a child process under span ``parent``.

        Child times are shifted so that the child's first span starts
        where ``parent`` started.
        """
        if not spans:
            return
        base = len(self.spans)
        shift = self.spans[parent][3] - spans[0][3]
        for sid, name, par, start, end in spans:
            self.spans.append(
                [base + sid, name, parent if par is None else base + par, start + shift, end + shift]
            )

    def dump(self, path, extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def self_times(spans, roots):
    """Per-name self seconds and call counts of the spans under ``roots``.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process never overlap, so the children's
    union is their sum.  Also returns the self seconds of
    smith_normal_form split by the nearest ancestor in SNF_CALLERS.
    """
    keep = set()
    for sid, name, parent, start, end in spans:
        if sid in roots or parent in keep:
            keep.add(sid)
    child_time = defaultdict(float)
    for sid, name, parent, start, end in spans:
        if sid in keep and parent in keep:
            child_time[parent] += end - start
    selfs = defaultdict(float)
    calls = defaultdict(int)
    via = defaultdict(float)
    for sid, name, parent, start, end in spans:
        if sid not in keep:
            continue
        own = end - start - child_time[sid]
        selfs[name] += own
        calls[name] += 1
        if name == "abgroups.smith_normal_form":
            via[_nearest(spans, parent, SNF_CALLERS)] += own
    return selfs, calls, via


def _nearest(spans, sid, names):
    while sid is not None:
        if spans[sid][1] in names:
            return spans[sid][1]
        sid = spans[sid][2]
    return None
