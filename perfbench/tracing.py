"""Spans around the calls into each photonpost layer, recorded from outside.

`Tracer.install()` rebinds the layer functions listed in TARGETS in every
loaded photonpost module, the way tests/conftest.py rebinds
`condition_mixed`, so the library itself is untouched.  Each wrapped call
appends one span to an in-memory list; `dump()` writes them all when the
job ends.

A span is (id, name, start_ns, end_ns, parent_id, thread, attr):

* parent_id is the innermost open span of the same thread; a span opened
  in a worker thread with nothing open there has the root (`cli.main`) as
  parent.
* attr is the expanded dimension for permanents, 1 when
  `condition_mixed` returned a zero-probability result, 1 when an
  `enumerate_inputs` step yielded a configuration, and thread CPU
  nanoseconds for the cli spans.

`fock.enumerate_inputs` is a generator, so it gets one span per `next()`.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

# module -> functions wrapped there, with the name each span gets
TARGETS = {
    "cli": {"main": "cli.main", "_chain_sweep_point": "cli.point", "_exp_sweep_point": "cli.point"},
    "search": {
        "search_improvement": "search.search_improvement",
        "evaluate_candidate": "search.evaluate_candidate",
        "unitary_from_angles": "search.unitary_from_angles",
    },
    "schemes": {"build_chain": "schemes.build_chain"},
    "detectors": {"observe": "detectors.observe"},
    "conditioner": {"condition_mixed": "conditioner.condition_mixed"},
    "fock": {"enumerate_inputs": "fock.enumerate_inputs"},
    "permanent": {
        "permanent": "permanent.permanent",
        "permanent_with_multiplicity": "permanent.permanent_with_multiplicity",
    },
    "interferometer": {"haar_random": "interferometer.haar_random", "compose": "interferometer.compose"},
    "merit": {"figures_of_merit": "merit.figures_of_merit"},
}


def _attr_none(args, result):
    return None


def _attr_dimension(args, result):
    if len(args) >= 2:
        return sum(int(r) for r in args[1])  # permanent_with_multiplicity: row_reps
    return len(args[0])


def _attr_zero(args, result):
    return 1 if result.zero_probability else 0


ATTRS = {
    "permanent.permanent": _attr_dimension,
    "permanent.permanent_with_multiplicity": _attr_dimension,
    "conditioner.condition_mixed": _attr_zero,
}


class Tracer:
    """In-memory span recorder; one per traced job."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._threads_lock = threading.Lock()
        self.root = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._threads_lock:
                self._threads.setdefault(threading.get_ident(), len(self._threads))
        return stack

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a span measured by the caller (no parent)."""
        self.spans.append((next(self._ids), name, start_ns, end_ns, None, 0, None))

    def wrap(self, name: str, fn):
        attr_of = ATTRS.get(name, _attr_none)
        cpu = name.startswith("cli.")
        spans, ids, clock, cpu_clock = self.spans, self._ids, time.perf_counter_ns, time.thread_time_ns

        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else self.root
            if self.root is None:
                self.root = span_id
            stack.append(span_id)
            c0 = cpu_clock() if cpu else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            attr = cpu_clock() - c0 if cpu else attr_of(args, result)
            thread = self._threads[threading.get_ident()]
            spans.append((span_id, name, t0, t1, parent, thread, attr))
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def steps():
                stack = self._stack()
                parent = stack[-1] if stack else self.root
                while True:
                    span_id = next(ids)
                    thread = self._threads[threading.get_ident()]
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        spans.append((span_id, name, t0, clock(), parent, thread, 0))
                        return
                    spans.append((span_id, name, t0, clock(), parent, thread, 1))
                    yield item

            return steps()

        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded photonpost module."""
        modules = [m for k, m in sys.modules.items() if k == "photonpost" or k.startswith("photonpost.")]
        for short, names in TARGETS.items():
            home = sys.modules[f"photonpost.{short}"]
            for attr, span_name in names.items():
                original = getattr(home, attr)
                if short == "fock":
                    wrapped = self.wrap_generator(span_name, original)
                else:
                    wrapped = self.wrap(span_name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))
