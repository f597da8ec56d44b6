"""Spans and call counts recorded from outside the tropsurf package.

`Spans` wraps public functions of the tropsurf modules for the length of a
``with`` block: each call records ``(request, name, start, end, parent)``
in memory, and the functions are restored on exit.  `CallCounter` counts
Python-level calls per ``module.function`` with `sys.setprofile`; it slows
the program down several times, so it runs in a pass of its own.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

# span name -> (module, function).  Every module that imported the function
# by name gets the wrapper too, so calls between modules are seen.
STAGES = {
    "jsonio.load": ("tropsurf.jsonio", "load_input_file"),
    "jsonio.dumps": ("tropsurf.jsonio", "dumps"),
    "subdivision.regular_subdivision": ("tropsurf.subdivision", "regular_subdivision"),
    "subdivision.maxdim": ("tropsurf.subdivision", "is_maximal_dimensional_type"),
    "subdivision.extract_circuit": ("tropsurf.subdivision", "extract_circuit"),
    "matroid.gale_dual": ("tropsurf.matroid", "gale_dual"),
    "matroid.all_flats": ("tropsurf.matroid", "all_flats"),
    "matroid.maximal_flat_chains": ("tropsurf.matroid", "maximal_flat_chains"),
    "matroid.enumerate_flags": ("tropsurf.matroid", "enumerate_flags_of_flats"),
    "engine.classify": ("tropsurf.engine", "classify"),
    "engine.candidate_points": ("tropsurf.engine", "candidate_points"),
    "engine.lift_check": ("tropsurf.engine", "lift_check"),
    "engine.oracle": ("tropsurf.engine", "oracle_singular_points"),
    "engine.singular_family": ("tropsurf.engine", "singular_family"),
    "surface.build_complex": ("tropsurf.surface", "build_complex"),
}


@dataclass
class Span:
    request: str
    name: str
    start: float
    end: float
    parent: int | None  # index into Spans.records
    result: object = None  # what the wrapped call returned (not written out)
    arg: object = None  # its first positional argument (not written out)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Spans:
    """In-memory span recorder; a request span encloses the stage spans."""

    def __init__(self) -> None:
        self.records: list[Span] = []
        self._stack: list[int] = []
        self._request = ""
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Spans":
        for name, (module, func) in STAGES.items():
            orig = getattr(sys.modules[module], func)
            wrapper = self._wrap(name, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "tropsurf" and not mod_name.startswith("tropsurf."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.records[idx].result = result
            self.records[idx].arg = args[0] if args else None
            return result

        return wrapper

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.records.append(Span(self._request, name, perf_counter(), 0.0, parent))
        idx = len(self.records) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.records[idx].end = perf_counter()
        self._stack.pop()

    def request(self, key: str, fn):
        """Run ``fn()`` inside a ``cli.request`` span for request ``key``."""
        self._request = key
        idx = self._open("cli.request")
        try:
            return fn()
        finally:
            self._close(idx)

    def dump(self, fh) -> None:
        """Write the spans as JSON lines (times in seconds, parent by index)."""
        for i, s in enumerate(self.records):
            fh.write(
                json.dumps(
                    {"id": i, "request": s.request, "name": s.name, "start": s.start,
                     "end": s.end, "parent": s.parent}
                )
                + "\n"
            )


class CallCounter:
    """Counts calls into tropsurf functions, keyed ``module.function``.

    Comprehensions, generator expressions and lambdas are not counted.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def _profile(self, frame, event, arg) -> None:
        if event != "call":
            return
        module = frame.f_globals.get("__name__", "")
        if module.startswith("tropsurf") and not frame.f_code.co_name.startswith("<"):
            self.counts[module + "." + frame.f_code.co_name] += 1

    def __enter__(self) -> "CallCounter":
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
