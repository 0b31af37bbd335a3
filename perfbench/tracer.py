"""Call tracing for the traced benchmark run.

The tracer replaces public functions at the module attribute (or dict key)
their callers look them up through, and records per name the number of
calls, the total time and the self time: a call's duration minus the time
of the wrapped calls made directly inside it.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}     # name -> [calls, total_s, self_s]
        self._child = []    # per open call: time spent in wrapped children

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child.append(0.0)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                nested = self._child.pop()
                if self._child:
                    self._child[-1] += elapsed
                entry = self.stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - nested
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, key, name)`` target for the ``with`` body.

        ``owner`` is a module (``key`` names an attribute) or a dict
        (``key`` is a key). The originals are restored on exit.
        """
        saved = []
        try:
            for owner, key, name in targets:
                if isinstance(owner, dict):
                    original = owner[key]
                    owner[key] = self.wrap(name, original)
                else:
                    original = getattr(owner, key)
                    setattr(owner, key, self.wrap(name, original))
                saved.append((owner, key, original))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)


def parse_importtime(stderr: str) -> list:
    """``(depth, name, cumulative_us)`` rows from ``python -X importtime``."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        name_field = parts[2][1:]
        depth = (len(name_field) - len(name_field.lstrip())) // 2
        rows.append((depth, name_field.strip(), int(parts[1])))
    return rows


def package_import_ms(rows, package: str) -> float:
    """Cumulative import time of ``package``: the sum over its modules that
    are not imported from inside another module of the same package."""
    def inside(name):
        return name == package or name.startswith(package + ".")

    total_us = 0
    ancestors = []  # (depth, name); rows are children first, so walk backwards
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if inside(name) and not any(inside(a) for _, a in ancestors):
            total_us += cumulative
        ancestors.append((depth, name))
    return total_us / 1000.0
