"""Span tracer bound to the package's public functions.

The package's modules import each other's functions by name
(``from .binom import binom_sf``), so a call inside ``anytime.intervals``
looks ``binom_sf`` up in ``anytime.intervals``' globals, not in
``anytime.binom``.  :meth:`Tracer.install` therefore replaces every
reference to a traced function in every loaded ``anytime`` module, and
patches traced methods on their class (instances look methods up there).
:meth:`Tracer.uninstall` puts the originals back.

Each call records one span: name, start, end, parent span and the number
of array elements it processed (for the functions that take arrays).
Spans stay in memory until :meth:`Tracer.layer_totals` folds them into
per-name call counts, element counts and self time.  A span opened on a
worker thread with nothing open on that thread takes the innermost span
open on the installing thread as its parent, so a thread pool's work is
charged as a child of the call that started the pool.  Self time is a
span's duration minus the union of its children's intervals, so children
running in parallel are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _broadcast_size(*params: tuple[int, str]) -> Callable:
    """Element count of the broadcast of the named positional parameters."""

    def count(args, kwargs) -> int:
        return int(np.broadcast(*(_arg(args, kwargs, i, n) for i, n in params)).size)

    return count


def _int_arg(index: int, name: str) -> Callable:
    def count(args, kwargs) -> int:
        return int(_arg(args, kwargs, index, name))

    return count


@dataclass(frozen=True)
class Target:
    """One traced function: ``anytime.<module>.<attr>`` (``attr`` may be ``Class.method``)."""

    module: str
    attr: str
    elems: Optional[Callable] = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attr}"


_XNP = ((0, "x"), (1, "n"), (2, "p"))

TARGETS = (
    Target("binom", "binom_sf", _broadcast_size(*_XNP)),
    Target("binom", "binom_cdf", _broadcast_size(*_XNP)),
    Target("intervals", "rcp_upper_lo", _broadcast_size((0, "x"))),
    Target("intervals", "upper_tail_mix"),
    Target("intervals", "lower_tail_mix"),
    Target("intervals", "cp_upper"),
    Target("intervals", "enumeration_coverage"),
    Target("sequences", "betting_endpoints", _broadcast_size((0, "heads"), (1, "trials"))),
    Target("sequences", "kt_log_wealth", _broadcast_size((0, "heads"), (1, "trials"), (2, "p"))),
    Target("sequences", "dp_thresholds", _int_arg(0, "n_max")),
    Target("sequences", "BettingCS.update"),
    Target("sequences", "UnionCS.update"),
    Target("decision", "run_trial"),
    Target("decision", "decide_with_cs"),
    Target("decision", "sprt_ideal"),
    Target("decision", "staged_adaptive"),
    Target("certify", "certify_multiclass"),
    Target("certify", "ClassOracle.sample", _int_arg(1, "k")),
    Target("sampling", "substream"),
    Target("sampling", "substream_id"),
    Target("sampling", "BernoulliSource.take", _int_arg(1, "k")),
    Target("mc", "mc_coverage"),
    Target("mc", "betting_trace"),
    Target("mc", "union_trace"),
    Target("cli", "run_decide"),
    Target("cli", "run_certify"),
    Target("cli", "run_coverage"),
    Target("cli", "run_width"),
    Target("cli", "run_thresholds"),
)


def package_modules() -> list:
    """Every loaded module of the ``anytime`` package, the package itself included."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "anytime" or name.startswith("anytime."))
    ]


class Tracer:
    """Records spans around :data:`TARGETS` while installed."""

    def __init__(self):
        self.targets = TARGETS
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main: list[int] = []
        self._name = array("q")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._elems = array("q")
        self._restore: list[tuple[object, str, object]] = []
        self.wrappers: dict[str, Callable] = {}
        self.originals: dict[str, Callable] = {}

    # -- binding -----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._main
        modules = package_modules()
        for label_id, target in enumerate(self.targets):
            owner = importlib.import_module(f"anytime.{target.module}")
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(label_id, original, target.elems)
                self._restore.append((cls, meth, original))
                setattr(cls, meth, wrapper)
            else:
                original = getattr(owner, target.attr)
                wrapper = self._wrap(label_id, original, target.elems)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            self.originals[target.label] = original
            self.wrappers[target.label] = wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, label_id: int, fn: Callable, elems: Optional[Callable]) -> Callable:
        lock, local, main, clock = self._lock, self._local, self._main, time.perf_counter_ns
        names, parents, starts, ends, counts = (
            self._name,
            self._parent,
            self._start,
            self._end,
            self._elems,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            try:
                parent = stack[-1] if stack else main[-1]
            except IndexError:
                parent = -1
            n = elems(args, kwargs) if elems is not None else 0
            with lock:
                idx = len(starts)
                names.append(label_id)
                parents.append(parent)
                counts.append(n)
                starts.append(0)
                ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- results -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._start)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per target label: ``calls``, ``elems`` and ``self_s`` summed over all spans."""
        n_labels = len(self.targets)
        name = np.frombuffer(self._name, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        start = np.frombuffer(self._start, dtype=np.int64)
        end = np.frombuffer(self._end, dtype=np.int64)
        elems = np.frombuffer(self._elems, dtype=np.int64)
        covered = np.zeros(name.size, dtype=np.float64)
        order = np.lexsort((start, parent))
        current, reach = -1, 0
        for p, s, e in zip(parent[order].tolist(), start[order].tolist(), end[order].tolist()):
            if p < 0:
                continue
            if p != current:
                current, reach = p, s
            lo = s if s > reach else reach
            if e > lo:
                covered[p] += e - lo
                reach = e
        self_ns = (end - start) - covered
        calls = np.bincount(name, minlength=n_labels)
        elem_sum = np.bincount(name, weights=elems, minlength=n_labels)
        self_sum = np.bincount(name, weights=self_ns, minlength=n_labels)
        return {
            target.label: {
                "calls": float(calls[i]),
                "elems": float(elem_sum[i]),
                "self_s": float(self_sum[i]) / 1e9,
            }
            for i, target in enumerate(self.targets)
        }
