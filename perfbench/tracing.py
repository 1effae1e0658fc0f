"""Spans recorded from outside the program, and the arithmetic on them.

The benchmark never edits ``grnas``: it wraps public functions, resolved by
dotted name, and records one span per call (name, start, end, parent).  A
span's self time is its duration minus the part of its interval that its
child spans cover.  Spans are kept in memory and folded into per-name
totals whenever the outermost span closes and the buffer is large, so long
traced runs stay small.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

PACKAGE = "grnas"
# Buffered spans before a fold.  It bounds memory, and exceeds the ~82,000
# spans of a search round, so folds normally run between rounds, untimed.
FOLD_AT = 400_000
SAMPLE_SPANS = 4_000  # raw spans kept for the written trace file
TAIL_MIN_BEYOND = 10  # a reported percentile needs this many samples above it


# ---------------------------------------------------------------------------
# arithmetic


def self_times(spans) -> dict:
    """Per-name ``[calls, inclusive_s, self_s]`` from closed spans.

    ``spans`` is a list of ``(name, start, end, parent)`` where ``parent`` is
    the index of the enclosing span in the same list, or -1.  Child
    intervals are clipped to the parent's and merged before subtraction,
    so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        row = out[name]
        row[0] += 1
        row[1] += end - start
        row[2] += (end - start) - covered
    return dict(out)


def tail_percentile(n: int):
    """Highest of p99.9/p99/p90/p50 with at least ten of ``n`` samples beyond it."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if n - nearest_rank(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def nearest_rank(n: int, p: float) -> int:
    """1-based nearest-rank position of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), p) - 1]


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted


# ---------------------------------------------------------------------------
# recording


class Tracer:
    """Open/close spans on a stack; fold closed spans into per-name totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self.sample = []
        self.keep_sample = False

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self.stack.pop()
        if not self.stack and len(self.spans) >= FOLD_AT:
            self.fold()

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def count(self, name: str, amount=1) -> None:
        self.counts[name] += amount

    def fold(self) -> None:
        if self.stack:
            raise RuntimeError(f"cannot fold inside open span {self.current()!r}")
        if self.keep_sample and len(self.sample) < SAMPLE_SPANS:
            self.sample.extend(tuple(s) for s in self.spans[: SAMPLE_SPANS - len(self.sample)])
        for name, row in self_times(self.spans).items():
            tot = self.totals[name]
            for j in range(3):
                tot[j] += row[j]
        self.spans = []

    def take(self):
        """Fold, then return and reset ``(totals, counts)``."""
        self.fold()
        totals, counts = dict(self.totals), dict(self.counts)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        return totals, counts


# ---------------------------------------------------------------------------
# wrapping by dotted name


@dataclass(frozen=True)
class Target:
    """A callable to wrap: ``dotted`` below the package, e.g. ``search.Adam.step``.

    ``label(args)`` gives a name suffix for the span; ``tally(args, result)``
    gives counters to add after the call returns.
    """

    dotted: str
    label: object = None
    tally: object = None


@dataclass
class Installed:
    restores: list = field(default_factory=list)
    missing: list = field(default_factory=list)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.restores):
            setattr(owner, attr, original)
        self.restores.clear()


def resolve(dotted: str):
    """(owner, attribute, object) for ``PACKAGE.<dotted>``, or None if absent."""
    parts = dotted.split(".")
    try:
        obj = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    except ImportError:
        return None
    owner = None
    for part in parts[1:]:
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None
    if owner is None or not callable(obj):
        return None
    return owner, parts[-1], obj


def _rebind(installed: Installed, owner, attr, original, replacement) -> None:
    if isinstance(owner, type):
        installed.restores.append((owner, attr, original))
        setattr(owner, attr, replacement)
        return
    # a module-level function may also be bound by name in sibling modules
    # (``from .metrics import classification_report``): rebind every alias
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                installed.restores.append((mod, name, original))
                setattr(mod, name, replacement)


def install(targets, make_wrapper) -> Installed:
    """Wrap each resolvable target with ``make_wrapper(target, original)``."""
    installed = Installed()
    for target in targets:
        found = resolve(target.dotted)
        if found is None:
            installed.missing.append(target.dotted)
            continue
        owner, attr, original = found
        _rebind(installed, owner, attr, original, make_wrapper(target, original))
    return installed


def span_wrapper(tracer: Tracer):
    """Wrapper factory recording one span per call of the target."""

    def make(target: Target, original):
        base = target.dotted
        label, tally = target.label, target.tally

        def wrapped(*args, **kwargs):
            name = base
            if label is not None:
                try:
                    name = f"{base}.{label(args)}"
                except (IndexError, AttributeError, TypeError):
                    pass  # a changed signature loses the label, not the span
            idx = tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if tally is not None:
                for key, amount in tally(args, result).items():
                    tracer.count(key, amount)
            return result

        wrapped.__wrapped__ = original
        return wrapped

    return make


def record_wrapper(tracer: Tracer, original):
    """``Tape.record`` replacement: count entries, time each adjoint closure.

    A closure is attributed to the innermost span open when it was recorded,
    which is the primitive that built it.
    """

    def record(self, backward_fn):
        tracer.count("autodiff.Tape.record")
        owner = tracer.current() or "unattributed"
        name = f"{owner}.bw"

        def timed():
            idx = tracer.enter(name)
            try:
                backward_fn()
            finally:
                tracer.exit(idx)

        return original(self, timed)

    record.__wrapped__ = original
    return record
