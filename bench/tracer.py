"""Per-module tracing for the benchmark's traced run.

The tracer wraps the public functions and methods of parmm's modules from the
outside; the program itself is not edited.  A function is patched under every
name it is bound to in a loaded parmm module, because modules bind names at
import: ``parmm.engine`` holds its own ``conjugate_value``, ``liability_of``
and ``price_of``, so patching ``parmm.convex_core`` alone would miss the
engine's calls.  Generator ``grad`` and curve ``dg`` methods, which run tens
of thousands of times per operation, get counters instead of spans.

A span records its name, its parent span, start and end times, the two
counters at start and end, and the exception type if the call raised.  Spans
are kept in memory and written out when the run ends.  Only calls made inside
an operation, opened with `Tracer.call`, are recorded; the operation's root
span identifies every span beneath it.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

FUNCTIONS = (  # span name, defining module, attribute
    ("convex_core.conjugate_value", "parmm.convex_core", "conjugate_value"),
    ("convex_core.price_of", "parmm.convex_core", "price_of"),
    ("convex_core.liability_of", "parmm.convex_core", "liability_of"),
    ("two_asset.price2", "parmm.two_asset", "price2"),
    ("cli.run_scenario", "parmm.cli", "run_scenario"),
)
METHODS = (  # span name, module, class, method
    ("engine.execute_trade", "parmm.engine", "MarketState", "execute_trade"),
    ("engine.modify_liquidity", "parmm.engine", "MarketState", "modify_liquidity"),
    ("engine.quote_completion", "parmm.engine", "MarketState", "quote_completion"),
    ("engine.snapshot", "parmm.engine", "MarketState", "snapshot"),
    ("two_asset.trade", "parmm.two_asset", "UniswapV3Market", "trade"),
    ("two_asset.mint", "parmm.two_asset", "UniswapV3Market", "mint"),
)
COUNTERS = (("grad", "Generator"), ("dg", "Curve1D"))  # method, base class in parmm.generators
SOLVES = ("convex_core.conjugate_value", "convex_core.price_of")

NAME, PARENT, START, END, GRAD0, GRAD1, DG0, DG1, ERROR = range(9)  # span fields
GRAD, DG = range(2)  # counter slots


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Records spans and counts while installed; `install` and `remove` are
    cheap after the first, so a run can trace every other operation.  As a
    context manager it is installed inside the block."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = [0, 0]
        self._stack: list[int] = []
        self._plan_cache: list[tuple] | None = None

    # -- wrappers ---------------------------------------------------------

    def _open(self, name: str, parent: int) -> list:
        span = [name, parent, time.perf_counter(), 0.0,
                self.counts[GRAD], 0, self.counts[DG], 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list):
        span[END] = time.perf_counter()
        span[GRAD1], span[DG1] = self.counts
        self._stack.pop()

    def call(self, fn, name: str = "op"):
        """Run one operation under a root span named `name`."""
        span = self._open(name, -1)
        try:
            return fn()
        except Exception as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            self._close(span)

    def _spanned(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = self._open(name, stack[-1])
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                self._close(span)

        return traced

    def _counted(self, slot: int, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[slot] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / remove -------------------------------------------------

    def _plan(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every patch."""
        for _, module, _ in FUNCTIONS:
            importlib.import_module(module)
        modules = [m for key, m in sys.modules.items() if key == "parmm" or key.startswith("parmm.")]
        plan = []
        for name, module, attr in FUNCTIONS:
            orig = getattr(sys.modules[module], attr)
            wrapped = self._spanned(name, orig)
            for mod in modules:
                plan.extend((mod, key, orig, wrapped) for key, value in vars(mod).items() if value is orig)
        for name, module, cls, attr in METHODS:
            klass = getattr(sys.modules[module], cls)
            orig = vars(klass)[attr]
            plan.append((klass, attr, orig, self._spanned(name, orig)))
        generators = sys.modules["parmm.generators"]
        for slot, (attr, base) in enumerate(COUNTERS):
            for klass in _subclasses(getattr(generators, base)):
                if attr in vars(klass):
                    orig = vars(klass)[attr]
                    plan.append((klass, attr, orig, self._counted(slot, orig)))
        return plan

    def install(self):
        if self._plan_cache is None:
            self._plan_cache = self._plan()
        for owner, attr, _, wrapped in self._plan_cache:
            setattr(owner, attr, wrapped)

    def remove(self):
        for owner, attr, orig, _ in self._plan_cache or ():
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def write(self, path):
        """Write the spans as JSON lines, times in seconds from the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT],
                    "start": s[START] - t0, "end": s[END] - t0,
                    "grad": s[GRAD1] - s[GRAD0], "dg": s[DG1] - s[DG0], "error": s[ERROR],
                }) + "\n")


def _dur(span) -> float:
    return span[END] - span[START]


def _p50_ms(values) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(spans: list, events: int) -> tuple[dict, dict]:
    """Per-module metrics of a traced pass, and the sample count behind each.

    `events` is the number of operations (for a replay, scenario events) the
    pass ran.  Self time is a span's duration minus that of its child spans.
    A metric with nothing to measure on a workload reads 0 with 0 samples.
    """
    child = [0.0] * len(spans)
    in_solve = [False] * len(spans)
    by_name: dict[str, list] = {}
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent >= 0:
            child[parent] += _dur(s)
            in_solve[i] = in_solve[parent] or spans[parent][NAME] in SOLVES
        by_name.setdefault(s[NAME], []).append(i)

    def named(name):
        return [spans[i] for i in by_name.get(name, [])]

    def durations(name):
        return [_dur(s) for s in named(name)]

    def self_times(name):
        return [_dur(spans[i]) - child[i] for i in by_name.get(name, [])]

    roots = [s for s in spans if s[PARENT] < 0]
    op_time = sum(_dur(s) for s in roots)
    solves = named("convex_core.conjugate_value")
    solve_time = sum(_dur(s) for i, s in enumerate(spans) if s[NAME] in SOLVES and not in_solve[i])
    mains = sum(durations("cli.main"))
    replays = sum(durations("cli.run_scenario"))
    grads_in_solves = sum(s[GRAD1] - s[GRAD0] for s in solves)
    metrics = {
        "generators.grad_calls_per_op": sum(s[GRAD1] - s[GRAD0] for s in roots) / events,
        "generators.dg_calls_per_op": sum(s[DG1] - s[DG0] for s in roots) / events,
        "convex_core.solves_per_op": len(solves) / events,
        "convex_core.grad_calls_per_solve": grads_in_solves / len(solves) if solves else 0.0,
        "convex_core.solve_ms_p50": _p50_ms(durations("convex_core.conjugate_value")),
        "convex_core.busy_frac": solve_time / op_time if op_time else 0.0,
        "convex_core.solves_diverged": sum(s[ERROR] == "SolverDiverged" for s in solves),
        "convex_core.liability_calls_per_op": len(named("convex_core.liability_of")) / events,
        "engine.trade_self_ms_p50": _p50_ms(self_times("engine.execute_trade")),
        "engine.modify_ms_p50": _p50_ms(durations("engine.modify_liquidity")),
        "engine.quote_ms_p50": _p50_ms(durations("engine.quote_completion")),
        "engine.snapshot_ms_per_event": 1e3 * sum(durations("engine.snapshot")) / events,
        "two_asset.price2_ms_p50": _p50_ms(durations("two_asset.price2")),
        "two_asset.trade_self_ms_p50": _p50_ms(self_times("two_asset.trade")),
        "two_asset.mint_ms_p50": _p50_ms(durations("two_asset.mint")),
        "cli.replay_busy_frac": replays / mains if mains else 0.0,
        "cli.write_busy_frac": (mains - replays) / mains if mains else 0.0,
    }
    samples = {name: events for name in metrics}
    samples.update({
        "convex_core.grad_calls_per_solve": len(solves),
        "convex_core.solve_ms_p50": len(solves),
        "convex_core.solves_diverged": len(solves),
        "engine.trade_self_ms_p50": len(by_name.get("engine.execute_trade", [])),
        "engine.modify_ms_p50": len(by_name.get("engine.modify_liquidity", [])),
        "engine.quote_ms_p50": len(by_name.get("engine.quote_completion", [])),
        "two_asset.price2_ms_p50": len(by_name.get("two_asset.price2", [])),
        "two_asset.trade_self_ms_p50": len(by_name.get("two_asset.trade", [])),
        "two_asset.mint_ms_p50": len(by_name.get("two_asset.mint", [])),
    })
    return metrics, samples
