"""Spans around the public functions of envmm's modules, from outside them.

`Tracer.install` wraps every public module-level function, every public
constructor and every public class- or staticmethod defined in the
traced modules, and rebinds each wrapped function at every place a
module of the package holds it (a from-import binds a second name to
the same object). Calls into `numpy.linalg`'s eigensolvers are counted,
not timed: the modules call them inline, so their time stays in the
caller's self time.

A span records its name, its parent, and perf_counter start and end.
Self time is a span's duration minus its direct children's durations.
Work the tracer itself does inside a traced call (fingerprinting inputs
to count distinct ones) runs in a `trace.bookkeeping` child span, so it
never inflates another span's self time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PACKAGE = "envmm"
MODULES = (
    "cli",
    "measure_ensemble",
    "covariance",
    "envelope",
    "cost_minimizer",
    "representation",
    "stationary",
)
BOOKKEEPING = "trace.bookkeeping"
EIG = "numpy.linalg.eig"
EIG_FUNCTIONS = ("eig", "eigh", "eigvalsh")
_FINGERPRINT_SAMPLES = 4096


def fingerprint(*arrays) -> bytes:
    """Digest of shapes plus an evenly strided sample of each array's entries."""
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        a = np.asarray(arr)
        flat = a.reshape(-1)
        step = max(1, flat.size // _FINGERPRINT_SAMPLES)
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(np.ascontiguousarray(flat[::step]).tobytes())
    return h.digest()


def _ensemble_key(args, kwargs) -> bytes:
    ens = args[0] if args else next(iter(kwargs.values()))
    return fingerprint(ens.space.weights, ens.values)


# inputs whose distinct count is a per-layer metric, by span name
DISTINCT_KEYS = {"measure_ensemble.second_moment": _ensemble_key}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts for the calls made between `reset`s."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.names: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.eig_calls = 0
        self.eig_ops = 0
        self.keys: defaultdict = defaultdict(list)

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, 0.0))
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        key_of = DISTINCT_KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key_of is not None:
                with self.span(BOOKKEEPING):
                    self.keys[name].append(key_of(args, kwargs))
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _wrap_eig(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            with self.span(BOOKKEEPING):
                arr = np.asarray(a)
                n = arr.shape[-1]
                self.eig_calls += 1
                self.eig_ops += int(np.prod(arr.shape[:-2], dtype=np.int64)) * n**3
                self.keys[EIG].append(fingerprint(arr))
            return fn(a, *args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement, homes) -> None:
        """Point every package-level name bound to `original` at `replacement`."""
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod in list(homes) + modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def _install_class(self, prefix: str, cls) -> None:
        if "__init__" in cls.__dict__:
            self._set(cls, "__init__", self._wrap(prefix, cls.__dict__["__init__"]))
            self.names.add(prefix)
        for attr, raw in list(cls.__dict__.items()):
            if attr.startswith("_") or not isinstance(raw, (classmethod, staticmethod)):
                continue
            name = f"{prefix}.{attr}"
            self._set(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            self.names.add(name)

    def install(self) -> None:
        """Wrap the public callables of MODULES and numpy's eigensolvers."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for short in MODULES:
            mod = sys.modules.get(f"{PACKAGE}.{short}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(name, obj)
                elif inspect.isfunction(obj):
                    self._rebind(obj, self._wrap(name, obj), [])
                    self.names.add(name)
        for attr in EIG_FUNCTIONS:
            original = getattr(np.linalg, attr)
            self._rebind(original, self._wrap_eig(original), [np.linalg])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every recorded span, indexed like `spans`."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls and self_s; distinct_ratio where inputs are keyed.

        A traced callable that was never called reads zero calls and zero
        time, and a distinct_ratio of 1 (no input was repeated).
        """
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for span, own in zip(self.spans, self.self_times()):
            entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
        out[EIG] = {"calls": self.eig_calls, "ops_computed": self.eig_ops}
        for name in set(DISTINCT_KEYS) & out.keys() | {EIG}:
            keys = self.keys[name]
            out[name]["distinct_ratio"] = len(set(keys)) / len(keys) if keys else 1.0
        return out
