"""Call tracing from outside the program.

``Tracer.installed()`` replaces every public function of every toepcalc
module by a wrapper, in each module namespace that binds it (``periodic_part``
is bound in ``skeleton`` and in ``conjugacy``, for example), and puts every
original binding back on exit, also when the traced code raises.

Each call becomes a span ``[name, enter, start, end, exit, parent]``:
``enter``/``exit`` bound the whole wrapper, ``start``/``end`` the wrapped
call.  Spans stay in memory until the pass ends; ``summary()`` reduces them
and ``write()`` saves them.  A span's self time is ``end - start`` minus
``exit - enter`` of its children, and its harness (wrapper) time is the rest
of ``exit - enter``, so over one pass

    pass wall = sum of self times + harness time + time outside any span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import time
import types
from collections import Counter
from pathlib import Path

import toepcalc

NAME, ENTER, START, END, EXIT, PARENT = range(6)


def toepcalc_modules() -> list[types.ModuleType]:
    names = sorted(m.name for m in pkgutil.iter_modules(toepcalc.__path__))
    return [toepcalc] + [importlib.import_module(f"toepcalc.{n}") for n in names]


def public_functions(module: types.ModuleType) -> dict[str, types.FunctionType]:
    return {
        name: obj
        for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType) and not name.startswith("_") and obj.__module__ == module.__name__
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name ids index this list
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._seen: dict[str, set] = {"gamma_map": set(), "periodic_part": set()}
        self._saved: list[tuple[dict, str, object]] = []

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            self._restore()

    def _install(self) -> None:
        modules = toepcalc_modules()
        for module in modules[1:]:
            layer = module.__name__.rpartition(".")[2]
            for name, fn in public_functions(module).items():
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for namespace in modules:
                    for bound, obj in list(vars(namespace).items()):
                        if obj is fn:
                            self._saved.append((vars(namespace), bound, fn))
                            setattr(namespace, bound, wrapper)

    def _restore(self) -> None:
        while self._saved:
            namespace, bound, fn = self._saved.pop()
            namespace[bound] = fn

    def _wrap(self, name: str, fn: types.FunctionType):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        after = self._after_hooks().get(name)
        reset = name == "cli.run_command"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, clock(), 0.0, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if reset:
                self._new_operation()
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            span[EXIT] = clock()
            return result

        return wrapper

    def _new_operation(self) -> None:
        # towers are told apart by id(); ids are only unique while objects
        # live, which every tower of one CLI operation does
        for seen in self._seen.values():
            seen.clear()

    def _after_hooks(self) -> dict:
        c = self.counters

        def repeat(kind: str, key) -> None:
            seen = self._seen[kind]
            if key in seen:
                c[f"{kind}.repeats"] += 1
            else:
                seen.add(key)

        def gamma_map(args, result) -> None:
            a, b, p, k = args
            c[f"gamma_map.{type(result).__name__.lower()}"] += 1
            repeat("gamma_map", (id(a), id(b), p, k))

        def periodic_part(args, result) -> None:
            tower, p = args
            repeat("periodic_part", (id(tower), p))

        def parse_tower_text(args, result) -> None:
            c["cells_parsed"] += sum(p for p, _ in result.levels)

        def exact_conjugacy_search(args, result) -> None:
            c["witnesses_found"] += result is not None

        return {
            "conjugacy.gamma_map": gamma_map,
            "skeleton.periodic_part": periodic_part,
            "towerfile.parse_tower_text": parse_tower_text,
            "oracle.exact_conjugacy_search": exact_conjugacy_search,
        }

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self._new_operation()

    def _child_times(self) -> list[float]:
        """Per span, the summed ``exit - enter`` of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[EXIT] - span[ENTER]
        return child

    def summary(self, wall: float) -> dict[str, float]:
        """Per-function calls, inclusive and self time, per-layer self time,
        harness time and the time outside any span, for the spans recorded
        since the last reset over a pass that took ``wall`` seconds."""
        child = self._child_times()
        top = sum(span[EXIT] - span[ENTER] for span in self.spans if span[PARENT] < 0)
        out: Counter = Counter()
        harness = total_self = 0.0
        for span, inner in zip(self.spans, child):
            name = self.names[span[NAME]]
            took = span[END] - span[START]
            own = took - inner
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += took
            out[f"{name}.self_s"] += own
            out[f"{name.partition('.')[0]}.self_s"] += own
            total_self += own
            harness += (span[EXIT] - span[ENTER]) - took
        out["trace.harness_s"] = harness
        out["trace.outside_s"] = wall - top
        out["trace.self_total_s"] = total_self
        for key in ("gamma_map.consistent", "gamma_map.contradicted", "gamma_map.undetermined"):
            out[f"conjugacy.{key}"] = self.counters[key]
        for name, kind in (("conjugacy.gamma_map", "gamma_map"), ("skeleton.periodic_part", "periodic_part")):
            calls = out[f"{name}.calls"]
            out[f"{name}.repeat_ratio"] = self.counters[f"{kind}.repeats"] / calls if calls else 0.0
        out["towerfile.cells_parsed"] = self.counters["cells_parsed"]
        out["oracle.witnesses_found"] = self.counters["witnesses_found"]
        return dict(out)

    def write(self, path: Path) -> None:
        """Write the recorded spans as tab-separated lines: span id, parent id,
        id of the top-level span (one per operation), name, and start, end and
        self time in seconds from the first span's start."""
        if not self.spans:
            return
        child = self._child_times()
        root = list(range(len(self.spans)))
        for i, span in enumerate(self.spans):
            if span[PARENT] >= 0:
                root[i] = root[span[PARENT]]  # parents precede their children
        origin = self.spans[0][START]
        lines = ["span\tparent\troot\tname\tstart_s\tend_s\tself_s"]
        for i, span in enumerate(self.spans):
            lines.append(
                f"{i}\t{span[PARENT]}\t{root[i]}\t{self.names[span[NAME]]}\t{span[START] - origin:.9f}"
                f"\t{span[END] - origin:.9f}\t{span[END] - span[START] - child[i]:.9f}"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
