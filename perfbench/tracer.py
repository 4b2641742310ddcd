"""Span tracing of cexpect's layer entry points, from outside the package.

`patched` rebinds an entry point everywhere a loaded `cexpect.*` module
binds it: the defining module's global, every `from .x import f` copy, and
class attributes. The package source is not touched, and every binding is
restored on exit. An entry point a later version no longer has is reported
as absent instead of raising.

`Tracer` records one span per call (name, start, end, parent span, operation
id, thread) in memory. Parents come from a per-thread stack, so spans made in
pool worker threads never nest under another thread's spans. A worker
callback that a traced entry point hands to the `rng` chunk scheduler is
traced under that entry point's name: the record scan inside
`simulate_records` counts for `ordered`, while the scheduler keeps its own
overhead and the draws of callers that are not entry points.
"""

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager

# Entry points per layer. A class name stands for its construction.
ENTRY_POINTS = [
    "quadrature.integrate",
    "condexp.BivariateModel.phi",
    "condexp.BivariateModel.psi",
    "condexp.kernel_regress",
    "ordered.max_regression",
    "ordered.simulate_records",
    "ordered.binned_regression",
    "ordered.order_stat_matrix",
    "ordered.markov_property_check",
    "theorems.GaussianCopies.predictor",
    "theorems.ConditionalIidCopies.predictor",
    "coalition.predictor_table",
    "coalition.simulate_market",
    "rng.simulate_chunked",
    "rng.run_chunked",
    "copulas.EmpiricalCopula",
    "copulas.sup_distance",
    "copulas.sup_distance_swapped",
    "reports.inequality_report",
    "reports.equality_check",
    "reports.threshold_report",
    "reports.render_json",
    "reports.render_csv",
    "cli.run_experiment",
    "cli.validate_config",
    "cli.write_outputs",
]

TRACED_NAMES = frozenset(ENTRY_POINTS)
PACKAGE = "cexpect"
RNG_NAMES = ("rng.simulate_chunked", "rng.run_chunked")
RECORDS_NAME = "ordered.simulate_records"

_MISSING = object()


def argument(args, kwargs, position, keyword):
    """A call's argument, passed by position or by keyword."""
    return kwargs[keyword] if keyword in kwargs else args[position]


def _rows(args, kwargs, result):
    return int(argument(args, kwargs, 1, "n_total"))


def _kept_attempted(args, kwargs, result):
    return int(result.values.shape[0]), int(result.n_sequences)


# Small per-call facts a span keeps; spans never hold arguments or results.
SPAN_INFO = {
    "rng.simulate_chunked": _rows,
    "rng.run_chunked": _rows,
    RECORDS_NAME: _kept_attempted,
}


def _definer(fn):
    """Entry-point name of the function that defined `fn`; None if already traced."""
    if hasattr(fn, "perfbench_span"):
        return None
    module = getattr(fn, "__module__", "") or ""
    qualname = getattr(fn, "__qualname__", "")
    return f"{module.partition('.')[2]}.{qualname.split('.<locals>')[0]}"


def resolve(name):
    """(owner, attribute) for an entry-point name, or None if it is absent."""
    module_name, *path = name.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = path[-1]
    target = getattr(owner, attr, None)
    if target is None:
        return None
    if isinstance(target, type):
        return target, "__init__"
    return owner, attr


@contextmanager
def patched(names, make_wrapper):
    """Rebind each entry point to make_wrapper(name, original) while active.

    Yields the list of names that could not be resolved.
    """
    undo = []
    absent = []
    try:
        for name in names:
            found = resolve(name)
            if found is None:
                absent.append(name)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            wrapper = make_wrapper(name, original)
            if isinstance(owner, type):
                undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        undo.append((module, key, value))
                        namespace[key] = wrapper
        yield absent
    finally:
        for owner, attr, value in reversed(undo):
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread", "info", "callback")

    def __init__(self, name, parent, op, thread, callback):
        self.name = name
        self.start = None
        self.end = None
        self.parent = parent
        self.op = op
        self.thread = thread
        self.info = None
        self.callback = callback


class Tracer:
    """In-memory span recorder; `op` labels the operation now running."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        return self._traced(name, fn, SPAN_INFO.get(name), callback=False)

    def _traced(self, name, fn, info, callback):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in RNG_NAMES and args:
                owner = _definer(args[0])
                if owner in TRACED_NAMES:
                    args = (self._traced(owner, args[0], None, callback=True),) + args[1:]
            stack = self._stack()
            span = Span(
                name, stack[-1] if stack else None, self.op, threading.get_ident(), callback
            )
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        traced.perfbench_span = name
        return traced

    @contextmanager
    def installed(self, names=ENTRY_POINTS):
        with patched(names, self.wrap) as absent:
            yield absent

    def self_times(self):
        """{span id: duration minus the duration of its direct children}."""
        own = {id(s): s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[id(s.parent)] -= s.end - s.start
        return own

    def layer_metrics(self, names=ENTRY_POINTS):
        """{name: (self seconds, calls)} for every name, 0 for uncalled ones.

        Callback spans add to their entry point's self time, not to its calls.
        """
        own = self.self_times()
        out = {name: [0.0, 0] for name in names}
        for s in self.spans:
            entry = out.setdefault(s.name, [0.0, 0])
            entry[0] += own[id(s)]
            entry[1] += not s.callback
        return {name: (sec, calls) for name, (sec, calls) in out.items()}

    def total_self_s(self):
        return sum(self.self_times().values())

    def rows_per_s(self):
        """Rows through the chunk scheduler per second of its outermost spans."""
        rows = 0
        seconds = 0.0
        for s in self.spans:
            if s.name not in RNG_NAMES or s.info is None or self._has_rng_ancestor(s):
                continue
            rows += s.info
            seconds += s.end - s.start
        return rows / seconds if seconds > 0 else 0.0

    @staticmethod
    def _has_rng_ancestor(span):
        parent = span.parent
        while parent is not None:
            if parent.name in RNG_NAMES:
                return True
            parent = parent.parent
        return False

    def records_kept_frac(self):
        """Kept / attempted record sequences; 0 when no records were simulated."""
        kept = attempted = 0
        for s in self.spans:
            if s.name == RECORDS_NAME and s.info is not None:
                kept += s.info[0]
                attempted += s.info[1]
        return kept / attempted if attempted else 0.0

    def write(self, path):
        """Write the spans as JSON lines, parents referenced by line index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        threads = {}
        rows = []
        for s in self.spans:
            threads.setdefault(s.thread, len(threads))
            rows.append(
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "op": s.op,
                    "thread": threads[s.thread],
                    "callback": s.callback,
                }
            )
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
