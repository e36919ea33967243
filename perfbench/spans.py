"""Span tracing of crossarfima's public functions, from outside the package.

``Tracer.install`` replaces each function named in ``SPANS`` with a
wrapper, in the defining module and in every crossarfima module (and the
package itself) that imported the name, since callers look the name up
in their own globals: ``cli.dcca`` and ``estimators.dcca`` are separate
bindings, and ``dfa`` calls ``dcca`` through a global lookup.
``Tracer.uninstall`` puts every original object back.

A span is (name, start, end, parent, run, work): ``parent`` is the index
of the enclosing span or -1, ``run`` the pass it belongs to and ``work``
a dict of counts computed from the call's arguments and result.  The
counts are computed with the tracer's clock stopped, so that the
benchmark's own counting (a walk of the output files, say) is booked to
no span.  Spans stay in memory until the benchmark writes them out;
``layer_metrics`` derives self times, counts and rates from them.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
from pathlib import Path

PACKAGE = "crossarfima"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _sample_work(args, kwargs, result):
    # four float64 streams of the requested length: 4 * L * 8 bytes
    return {"bytes": 4 * int(_arg(args, kwargs, 1, "length")) * 8}


def _filter_work(args, kwargs, result):
    # direct-equivalent multiply-adds T * (M + 1), computed from the sizes
    n_in = len(_arg(args, kwargs, 0, "innovations"))
    weights = _arg(args, kwargs, 1, "weights")
    taps = len(getattr(weights, "weights", weights))
    return {"ops": (n_in - taps + 1) * taps}


def _fluct_work(args, kwargs, result):
    # points detrended: sum over scales of n_boxes * s, boxes of the whole series
    if result is None:
        return {}
    T = len(args[0] if args else kwargs["x"])
    scales = [int(s) for s in result.scales]
    return {"scales": len(scales), "points": sum((T // s) * s for s in scales)}


def _fit_work(args, kwargs, result):
    fluct = _arg(args, kwargs, 0, "fluct")
    kept = 0 if result is None else result.n_points
    return {"offered": len(fluct.values), "kept": kept}


def _cli_work(args, kwargs, result):
    # bytes the call read (files named on its command line) and wrote
    # (files left in its --output directory, which is empty beforehand)
    argv = [str(a) for a in _arg(args, kwargs, 0, "argv")]
    read = sum(os.path.getsize(a) for a in argv if os.path.isfile(a))
    written = 0
    if "--output" in argv:
        out = Path(argv[argv.index("--output") + 1])
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return {"bytes_read": read, "bytes_written": written}


# (module, function, span name, work counter, span names it runs inside of
# without a span of its own)
SPANS = (
    ("config", "parse_config", "config.parse_config", None, ()),
    ("innovations", "sample", "innovations.sample", _sample_work, ()),
    ("innovations", "cholesky_factor", "innovations.cholesky_factor", None, ()),
    ("filters", "causal_filter", "filters.causal_filter", _filter_work, ()),
    ("filters", "ma_weights", "filters.weights", None, ()),
    ("filters", "ar1_weights", "filters.weights", None, ()),
    ("filters", "white_weights", "filters.weights", None, ()),
    ("models", "simulate", "models.simulate", None, ()),
    ("models", "theoretical_exponents", "models.theoretical_exponents", None, ()),
    ("models", "theoretical_ccf", "models.theoretical_ccf", None, ()),
    ("models", "cross_spectrum", "models.cross_spectrum", None, ()),
    ("estimators", "dfa", "estimators.dfa", _fluct_work, ()),
    # a dcca call made by dfa is dfa's work
    ("estimators", "dcca", "estimators.dcca", _fluct_work, ("estimators.dfa",)),
    ("estimators", "hxa", "estimators.hxa", None, ()),
    ("estimators", "sample_ccf", "estimators.sample_ccf", None, ()),
    ("estimators", "fit_hurst", "estimators.fit_hurst", _fit_work, ()),
    ("reports", "lag_scatter", "reports.lag_scatter", None, ()),
    ("reports", "ccf_comparison", "reports.ccf_comparison", None, ()),
    ("reports", "truncation_bound", "reports.truncation_bound", None, ()),
    ("cli", "main", "cli.main", _cli_work, ()),
)

POOL_SPAN = "cli.pool"


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Records spans of wrapped calls made in the process that installed it.

    Processes forked from it (pool workers) inherit the wrappers but
    record nothing: only parent-side spans are kept.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.run = 0
        # time spent in work counters, taken out of every later timestamp
        self._paused = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock() - self._paused, None, parent, self.run, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, work=None) -> None:
        """Close span ``index``; ``work`` returns its counts and runs after the clock is read."""
        stop = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} ended out of order")
        self.spans[index][2] = stop - self._paused
        if work is not None:
            self.spans[index][5] = work()
            self._paused += self.clock() - stop

    def _current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, fn, name: str, work=None, inside=()):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid or tracer._current() in inside:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(index, lambda: {**(work(args, kwargs, None) if work else {}), "failed": 1})
                raise
            tracer.end(index, (lambda: work(args, kwargs, result)) if work else None)
            return result

        return traced

    def pool_class(self, base):
        """A ``base`` executor subclass spanning creation to shutdown as ``cli.pool``."""
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._span = None
                if os.getpid() == tracer._pid:
                    self._span = tracer.begin(POOL_SPAN)
                    self._workers = max_workers or os.cpu_count() or 1
                    self._cpu0 = _children_cpu()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    if self._span is not None:
                        cpu = _children_cpu() - self._cpu0
                        tracer.end(self._span, lambda: {"workers": self._workers, "child_cpu": cpu})
                        self._span = None

        return TracedPool

    # -- installing --------------------------------------------------------

    def _bindings(self, obj):
        """Every (module, attribute) in the package bound to ``obj``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is obj:
                    yield mod, attr

    def _patch(self, obj, replacement) -> None:
        for mod, attr in self._bindings(obj):
            self._patched.append((mod, attr, obj))
            setattr(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every function in SPANS that the package still defines."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, fn_name, span, work, inside in SPANS:
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            fn = getattr(mod, fn_name, None) if mod is not None else None
            if fn is None:
                continue
            self._patch(fn, self.wrap(fn, span, work, inside))
        cli = sys.modules.get(f"{PACKAGE}.cli")
        pool = getattr(cli, "ProcessPoolExecutor", None)
        if pool is not None:
            self._patch(pool, self.pool_class(pool))

    def uninstall(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, run: int) -> dict[str, float]:
    """Per-layer counts, self times and rates of one pass (spans with that run id)."""
    selves = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    work: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, selves):
        name, _, _, _, span_run, counts = span
        if span_run != run:
            continue
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + own
        for key, value in (counts or {}).items():
            bucket = work.setdefault(name, {})
            bucket[key] = bucket.get(key, 0) + value

    def w(name, key):
        return work.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for name in dict.fromkeys(span for _, _, span, _, _ in SPANS):
        out[f"{name}.calls"] = calls.get(name, 0)
        if not name.startswith("reports."):
            out[f"{name}.self_s"] = busy.get(name, 0.0)
    out["innovations.sample.MB"] = w("innovations.sample", "bytes") / 1e6
    out["filters.causal_filter.Mops"] = w("filters.causal_filter", "ops") / 1e6
    for est in ("estimators.dfa", "estimators.dcca"):
        out[f"{est}.scales"] = w(est, "scales")
        own = busy.get(est, 0.0)
        out[f"{est}.Mpoints_per_s"] = w(est, "points") / 1e6 / own if own > 0 else 0.0
    fit = "estimators.fit_hurst"
    out[f"{fit}.failed"] = w(fit, "failed")
    out[f"{fit}.scale_yield"] = w(fit, "kept") / w(fit, "offered") if w(fit, "offered") else 0.0
    out["cli.csv.MB_written"] = w("cli.main", "bytes_written") / 1e6
    out["cli.csv.MB_read"] = w("cli.main", "bytes_read") / 1e6
    # the pool's wall time is what the parent waits; capacity is workers x wall
    pools = [s for s in spans if s[0] == POOL_SPAN and s[4] == run]
    capacity = sum((end - start) * counts["workers"] for _, start, end, _, _, counts in pools)
    out["cli.pool.wait_s"] = sum(end - start for _, start, end, *_ in pools)
    out["cli.pool.child_cpu_s"] = w(POOL_SPAN, "child_cpu")
    out["cli.pool.idle_frac"] = 1.0 - w(POOL_SPAN, "child_cpu") / capacity if capacity else 0.0
    return out
