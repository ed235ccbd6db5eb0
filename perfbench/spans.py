"""Per-process span stack: call counts and self time of wrapped layer calls.

The benchmark times the program from the outside.  :class:`SpanTable`
replaces a function or method of one of the program's modules with a
wrapper that pushes a frame on a process-wide stack, runs the original and
books its duration.  A span's *self time* is its duration minus the time
its child spans (wrapped calls made from inside it) covered, so the self
times of all layers add up to at most the process's busy time and no layer
is counted twice.

Wrappers are installed before the program builds its objects, because the
program stores bound methods at construction (handlers registered on the
transport, send functions handed to the wire batcher).  :meth:`restore`
puts every original back, so one process can run traced and untraced.
"""

from __future__ import annotations

import math
import resource
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class SpanTable:
    """Counters and self times for every wrapped call in this process."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive durations (self time plus child spans).
        self.total_s: Dict[str, float] = defaultdict(float)
        #: Free-form counters booked by result hooks (rejections, memo hits).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Sampled durations (queue waits, loop lag), in seconds.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: One ``[child_seconds, name]`` frame per open span.
        self._stack: List[list] = []
        self._originals: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero every counter (open spans keep running and book afterwards)."""
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        # Hooks hold references to the sample lists: empty them in place.
        for values in self.samples.values():
            values.clear()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
        part_of: Optional[str] = None,
    ) -> None:
        """Time every call of ``owner.attr`` under the span ``name``.

        ``before(*args)`` runs outside the span, ahead of the call (for a
        check that must see the state the call changes); ``after(result,
        *args)`` runs outside the span once the call returned.  A call made
        while the innermost open span is ``part_of`` is no span of its own:
        it is not counted and its time stays that span's self time (a
        verification that signs to compare is verification work).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        total_s = self.total_s

        def timed(*args, **kwargs):
            if part_of is not None and stack and stack[-1][1] == part_of:
                return original(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                total_s[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(result, *args, **kwargs)
            return result

        timed.__name__ = getattr(original, "__name__", attr)
        timed.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, timed)
        self._originals.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict copy of every counter (JSON-serialisable)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "samples": {name: list(values) for name, values in self.samples.items()},
        }


def merge_snapshots(snapshots: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum counters and concatenate samples over several processes."""
    merged: Dict[str, Dict] = {
        "calls": {}, "self_s": {}, "total_s": {}, "counts": {}, "samples": {}
    }
    for snap in snapshots:
        for section in ("calls", "self_s", "total_s", "counts"):
            target = merged[section]
            for name, value in snap.get(section, {}).items():
                target[name] = target.get(name, 0) + value
        for name, values in snap.get("samples", {}).items():
            merged["samples"].setdefault(name, []).extend(values)
    return merged


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered)))) - 1
    return ordered[rank]


def peak_rss_kb() -> int:
    """This process's own peak resident set size, in KiB.

    Not ``ru_maxrss``: on Linux that also holds the parent's RSS at the
    fork that started this process, which hides a smaller peak of its own.
    ``VmHWM`` is the high-water mark of this program's memory alone.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
