"""Outside-in layer tracing for the demimart benchmark.

The tracer wraps public entry points of the library at run time, as their
callers see them: every module attribute that is bound to a traced function
is replaced by a timing wrapper, and restored afterwards.  No source file of
the library is edited.  Spans (name, start, end, parent, op id, counts) are
kept in memory; self time is a span's duration minus the part its child
spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# One span: [name, start, end, parent index, op id, counts or None].
NAME, START, END, PARENT, OP, COUNTS = range(6)


def _values(args, kwargs, out):
    return {"values": int(out.size)}


def _bytes_computed(args, kwargs, out):
    # float64 partial sums written by the build; computed, not measured
    return {"bytes_computed": int(out.size) * 8}


def _elements(args, kwargs, out):
    prefixes = args[1] if len(args) > 1 else kwargs["prefixes"]
    return {"elements": int(getattr(prefixes, "size", 0))}


def _probes(args, kwargs, out):
    return {"probes": int(out.probes)}


def _checks(args, kwargs, out):
    return {"checks": len(out[1])}


# (span name, module, attribute, counter); "Class.method" patches the class.
TARGETS = (
    ("core.derive_stream", "demimart.core", "derive_stream", None),
    ("core.reduce", "demimart.core", "RunningStats.update", None),
    ("generators.draw", "demimart.generators", "sample_increments", _values),
    ("generators.partial_sum", "demimart.generators", "sample_paths", _bytes_computed),
    ("monotone.evaluate_batch", "demimart.monotone", "evaluate_batch", _elements),
    ("monotone.certify", "demimart.monotone", "certify_indicator_monotonicity", _probes),
    ("stopping.tau_batch", "demimart.stopping", "StoppingRule.tau_batch", None),
    ("oracle.fold", "demimart.oracle", "fold_expectations", None),
    ("registry.driver", "demimart.registry", "verify_detailed", _checks),
    ("asymptotics", "demimart.asymptotics", "complete_convergence_diagnose", None),
)


class Tracer:
    """Collects spans while installed; ``install`` returns the names it missed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError("unbalanced trace spans")

    def wrap(self, name: str, fn, counter=None):
        """Timing wrapper; a call nested directly in a span of the same name
        (recursion such as a capped rule's inner rule) is not a new span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if stack and self.spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx][COUNTS] = counter(args, kwargs, out)
            return out

        return traced

    def _wrap_blocks(self, fn):
        """Generator wrapper: each ``next`` on the block iterator is a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open("oracle.enumerate")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.spans[idx][COUNTS] = {"blocks": 1, "outcomes": int(len(item[1]))}
                yield item

        return traced

    # -- patching -----------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every demimart module attribute bound to ``original`` at
        ``replacement`` (each importer holds its own binding)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "demimart" or mod_name.startswith("demimart.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> list[str]:
        missing = []
        for name, mod_name, attr, counter in TARGETS:
            mod = sys.modules.get(mod_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, method or attr, None) if owner is not None else None
            if original is None:
                missing.append(name)
                continue
            wrapped = self.wrap(name, original, counter)
            if owner_name:
                self._restore.append((owner, method, original))
                setattr(owner, method, wrapped)
            else:
                self._rebind(original, wrapped)
        oracle = sys.modules.get("demimart.oracle")
        blocks = getattr(oracle, "iter_blocks", None)
        if blocks is None:
            missing.append("oracle.enumerate")
        else:
            self._rebind(blocks, self._wrap_blocks(blocks))
        registry = sys.modules.get("demimart.registry")
        checkset = getattr(registry, "CheckSet", None)
        if checkset is None:
            missing.append("registry.statistic")
        else:
            def traced_checkset(metas, evaluate):
                return checkset(metas, self.wrap("registry.statistic", evaluate))

            self._rebind(checkset, traced_checkset)
        return missing

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s (duration minus child spans) and counts."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for i, span in enumerate(spans):
        entry = totals[span[NAME]]
        entry["calls"] += 1
        entry["self_s"] += (span[END] - span[START]) - child[i]
        for key, value in (span[COUNTS] or {}).items():
            entry[key] = entry.get(key, 0) + value
    return dict(totals)
