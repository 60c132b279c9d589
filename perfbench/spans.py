"""Span recorder that times each ``framecond`` layer from outside the library.

Installing a :class:`Recorder` replaces every public function of every
``framecond`` module (the functions named in the module's ``__all__``) by a
timing wrapper, at every place the function object is bound.  That matters
because the modules import each other's names with ``from``: the function
``experiments.phase_diagram`` calls is ``framecond.experiments.solve_coherence``,
not ``framecond.precondition.solve_coherence``, so patching the defining
module alone would miss it.  Internal calls through module globals (such as
``conic._solve_pinned`` calling ``solve`` again) also go through the wrapper,
so recursive solves show up as nested spans.

Spans are kept in memory and written out by the caller when the run ends.
Their times are CPU seconds of the process, the clock the benchmark's
end-to-end times use.  A span's self time is its duration minus the durations of its
direct children; calls are strictly nested in this single-threaded program,
so children never overlap and the sum of self times over all spans equals the
time covered by top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time

LAYERS = ("numerics", "frames", "conic", "precondition", "recovery", "experiments", "cli")

IO_FUNCS = ("cli.read_matrix", "cli.write_matrix", "cli.write_report")


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "info", "child_s")

    def __init__(self, name, start, parent, item):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.item = item
        self.info = None
        self.child_s = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _conic_info(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    dropped = result.dropped_rows
    return {
        "rows": int(problem.n_rows),
        "iterations": int(result.iterations),
        "status": result.status,
        "dropped": 0 if dropped is None else int(len(dropped)),
    }


def _precondition_info(args, kwargs, result):
    return {"jitter": float(result.jitter), "status": result.solution.status}


def _bytes_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# what each wrapper records about a call besides its timing
INFO_HOOKS = {
    "conic.solve": _conic_info,
    "precondition.solve_coherence": _precondition_info,
    "precondition.diagonal_lp": _precondition_info,
    "cli.write_matrix": _bytes_written,
    "cli.write_report": _bytes_written,
}


class Recorder:
    """In-memory span list plus the install/uninstall of the wrappers.

    Use as a context manager: wrappers are in place only inside the block,
    so untraced rounds run the unmodified library.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.item = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, func):
        hook = INFO_HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.process_time

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, clock(), parent, self.item)
            spans.append(span)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.info = {"raised": type(exc).__name__}
                raise
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        layer_modules = {layer: importlib.import_module(f"framecond.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items() if n == "framecond" or n.startswith("framecond.")]
        wrappers = {}
        for layer, mod in layer_modules.items():
            for attr in mod.__all__:
                func = getattr(mod, attr)
                if inspect.isfunction(func) and func.__module__ == mod.__name__:
                    wrappers[id(func)] = (func, self._wrap(f"{layer}.{attr}", func))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    def write(self, fh, **tags) -> None:
        """One JSON line per span, parents given by span index, plus ``tags``."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        for s in self.spans:
            fh.write(json.dumps({
                **tags,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": None if s.parent is None else index[id(s.parent)],
                "item": s.item,
                "self_s": s.self_s,
                "info": s.info,
            }) + "\n")


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts and times from the spans of one traced round."""
    self_s = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        self_s[s.layer] += s.self_s

    def named(*names):
        return [s for s in spans if s.name in names]

    # a solve nested in another (the pinned-bounds path) is part of its
    # parent's call, so counts come from the outermost solves only
    solves = [s for s in named("conic.solve") if s.parent is None or s.parent.name != "conic.solve"]
    iterations = sum(s.info.get("iterations", 0) for s in solves)
    certs = named("precondition.certificate_feasibility")
    retries = sum(max(0, sum(1 for s in solves if s.parent is c) - 1) for c in certs)
    bp = named("recovery.basis_pursuit")
    bp_durs = sorted(s.dur for s in bp)
    return {
        "conic.calls": len(solves),
        "conic.rows": sum(s.info.get("rows", 0) for s in solves),
        "conic.self_s": self_s["conic"],
        "conic.iterations": iterations,
        "conic.s_per_iter": self_s["conic"] / iterations if iterations else 0.0,
        "conic.optimal_ratio": (
            sum(s.info.get("status") == "Optimal" for s in solves) / len(solves) if solves else 0.0
        ),
        "conic.dropped_rows": sum(s.info.get("dropped", 0) for s in solves),
        "precondition.build_s": sum(s.dur for s in named("precondition.build_c1", "precondition.build_c2")
                                    if s.parent is None or s.parent.name != "precondition.build_c2"),
        "precondition.finish_s": sum(s.self_s for s in named("precondition.solve_coherence",
                                                               "precondition.diagonal_lp")),
        "precondition.certificate_self_s": sum(s.self_s for s in certs),
        "precondition.certificate_retries": retries,
        "precondition.jitter_count": sum(
            s.info.get("jitter", 0.0) > 0 for s in named("precondition.solve_coherence", "precondition.diagonal_lp")
        ),
        "recovery.bp_calls": len(bp),
        "recovery.bp_self_s": sum(s.self_s for s in bp),
        "recovery.bp_p50_s": _quantile(bp_durs, 0.50),
        "recovery.bp_p99_s": _quantile(bp_durs, 0.99),
        "recovery.omp_s": sum(s.dur for s in named("recovery.omp")),
        "numerics.self_s": self_s["numerics"],
        "frames.self_s": self_s["frames"],
        "experiments.self_s": self_s["experiments"],
        "cli.self_s": self_s["cli"],
        "cli.io_s": sum(s.dur for s in named(*IO_FUNCS)),
        "cli.bytes_out": sum(s.info.get("bytes", 0) for s in named("cli.write_matrix", "cli.write_report")),
    }
