"""Host-speed normalization for timings taken on a shared machine.

On a shared virtual machine the same CPU-bound pass can take twice as long
when a neighbour is busy. These slow phases last from seconds to minutes,
so medians over one 30 s run do not remove them. A fixed reference loop
that does the same kind of work as uqsl2 (Python-level big-integer
arithmetic and allocation of small dicts, tuples and strings) slows down
by nearly the same factor. The loop is run
every ``INTERVAL_S`` during a timed pass, and each timing is rescaled to
the host speed at which one loop takes ``NOMINAL_S``:

    normalized = (raw - reference time inside the interval) * NOMINAL_S / local loop time

``NOMINAL_S`` is the loop time in the fast phase of the host the benchmark
was written on (2 vCPUs, CPython 3.11.7), so there normalized and raw
seconds agree when the host is quiet. The loop does not touch uqsl2, so no
change to the program can move it.
"""

import signal
import time

NOMINAL_S = 0.0012
INTERVAL_S = 0.1
WINDOW_S = 1.0
_MODULUS = (1 << 127) - 1


def reference_work():
    """Fixed work; its duration measures the host's current speed.

    Half is big-integer arithmetic, half is allocation of small dicts,
    tuples and strings, the two kinds of work uqsl2 spends its time on.
    """
    table = {}
    a, b = 3, 7
    for i in range(1, 1500):
        a, b = b, (a * b + i) % _MODULUS
        table[i % 23] = table.get(i % 23, 0) + (a ^ b) % 1000
    acc, out = {}, []
    for i in range(1, 150):
        items = {(i % 7, j): (i * j, "%d/%d" % (i, j + 1)) for j in range(3)}
        for key, value in items.items():
            acc[key] = acc.get(key, 0) + value[0]
        out.append(str(len(acc)))
    return table, out


def reference_time():
    """Median duration of three back-to-back reference loops."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


class Sampler:
    """Runs the reference loop from a SIGALRM handler while a pass is timed.

    The handler runs in the main thread between bytecodes, so the program's
    state is untouched. Each sample is (start, duration).
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference_work()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalize(self, start, end):
        """Normalized seconds of program work in [start, end]."""
        inside = sum(d for s, d in self.samples if start <= s < end)
        near = [d for s, d in self.samples
                if start - WINDOW_S <= s <= end + WINDOW_S]
        if not near:
            near = [d for _, d in self.samples] or [reference_time()]
        return (end - start - inside) * NOMINAL_S * len(near) / sum(near)
