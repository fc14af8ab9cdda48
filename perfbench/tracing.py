"""Outside-in tracer: wraps the public functions of each bnmia module from
the benchmark's own code, without changing anything under src/.

Each wrapper records one span per call and folds it into per-function
aggregates: calls and self time (span time minus the time of the wrapped
calls made inside it).  Aggregates rather than a span list keep the tracer's
memory flat: the law build alone makes about a million `encode` calls on the
bundled-strong workload.

A function is usually bound under several names: `harness` imports
`output_marginal_law`, `sample` and `encode` by name, `model` calls its own
`output_marginal_law`, and `learning` imports `model.sample` at call time.
`Tracer.install` therefore replaces every binding of each wrapped function in
every loaded bnmia module, not just the defining one; otherwise a callee's
time is charged to whichever caller happened to be wrapped.
"""
from __future__ import annotations

import functools
import inspect
import resource
import sys
import time

PACKAGE = "bnmia"
MODULES = ("model", "inference", "attacks", "learning", "formats", "populations", "harness")

# Methods traced besides module-level functions: (module, class) -> names.
METHODS = {
    ("inference", "PosteriorEngine"): ("__init__", "result"),
    ("learning", "ProxyDataset"): ("from_network_samples",),
}


# Functions whose minor page faults are counted around each call.
FAULT_COUNTED = frozenset({"inference.sum_log_table"})


class Stat:
    __slots__ = ("calls", "self_time", "count", "minflt")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0
        self.count = 0
        self.minflt = 0


def _distinct_support(seen: dict):
    """Summed len(law) over the distinct laws returned (cache hits add 0)."""
    def measure(law) -> int:
        if id(law) in seen:
            return 0
        seen[id(law)] = law  # keep it alive so its id is not reused
        return len(law)
    return measure


class Tracer:
    """Installs wrappers on a loaded bnmia package and collects aggregates."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._laws: dict[int, object] = {}
        # Extra exact counts taken from a call's result: name -> result -> int.
        self._counters = {
            "model.output_marginal_law": _distinct_support(self._laws),
            "inference.sum_log_table": len,
        }

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter
        counter = self._counters.get(name)
        faults = name in FAULT_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if faults:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.self_time += elapsed - stack.pop()
                stat.calls += 1
                if stack:
                    stack[-1] += elapsed
                if faults:
                    stat.minflt += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            if counter is not None:
                stat.count += counter(result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = PACKAGE
        modules = {name: sys.modules[f"{pkg}.{name}"] for name in MODULES}
        wrapped: dict[int, tuple[object, object]] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        loaded = [m for n, m in list(sys.modules.items()) if n == pkg or n.startswith(pkg + ".")]
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for (short, cls_name), names in METHODS.items():
            cls = getattr(modules[short], cls_name)
            for attr in names:
                key = f"{short}.{cls_name}.{'init' if attr == '__init__' else attr}"
                raw = inspect.getattr_static(cls, attr)
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(key, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrap(key, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._laws.clear()

    def snapshot(self) -> dict[str, dict]:
        """Aggregates of every function called at least once."""
        return {
            name: {"calls": s.calls, "self_s": s.self_time, "count": s.count, "minflt": s.minflt}
            for name, s in sorted(self.stats.items())
            if s.calls
        }
