"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only by wrappers defined here.  Each wrapper is
installed around one public function of the program, at every place the
program looks that name up: a module global (for example ``learner`` binds
``eval_kernel`` at import time and ``kernels`` calls ``woodbury_append``
through its own globals) or a class attribute for methods.  Nothing in the
program itself changes.

A span is ``(name, start_ns, end_ns, parent)``, where ``parent`` is the
index of the span that was open when it started (-1 for none).  Spans stay
in memory until the run ends; ``write_csv`` writes them out.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.reps: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self, span: str, owner, attr: str):
        """Wrap ``owner.attr``.  For a module function, every loaded
        ``cmestream`` module that binds the same object gets the wrapper."""
        original = getattr(owner, attr)
        wrapper = self.wrap(span, original)
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("cmestream")
                    and getattr(mod, attr, None) is original):
                self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.starts)

    def close_rep(self, lo: int, transparent=()) -> dict:
        """End a repetition that began at mark ``lo``; return its aggregate."""
        hi = self.mark()
        self.reps.append((lo, hi))
        return self.aggregate(lo, hi, transparent)

    # -- analysis ------------------------------------------------------------

    def aggregate(self, lo: int, hi: int, transparent=()) -> dict:
        """Per-name ``[calls, inclusive_ns, self_ns]`` over spans [lo, hi).

        Self time is a span's duration minus that of its direct children.
        A ``transparent`` span keeps its call count, but its self time is
        credited to its nearest non-transparent ancestor."""
        dur = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        own = list(dur)
        for i in range(lo, hi):
            p = self.parents[i]
            if p >= lo:
                own[p - lo] -= dur[i - lo]
        out: dict[str, list[int]] = {}
        for i in range(lo, hi):
            name = self.names[i]
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += dur[i - lo]
            if name in transparent:
                p = self.parents[i]
                while p >= lo and self.names[p] in transparent:
                    p = self.parents[p]
                if p >= lo:
                    out.setdefault(self.names[p], [0, 0, 0])[2] += own[i - lo]
                    continue
            row[2] += own[i - lo]
        return out

    def write_csv(self, path: str, lo: int = 0, hi: int | None = None):
        hi = len(self.starts) if hi is None else hi
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i in range(lo, hi):
                p = self.parents[i]
                fh.write(f"{i - lo},{self.names[i]},{self.starts[i]},"
                         f"{self.ends[i]},{p - lo if p >= lo else -1}\n")
