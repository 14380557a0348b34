"""Machine-speed calibration.

On a shared machine the speed of identical work changes by 20-30% from
one stretch of a few seconds to the next (measured on a 2-vCPU virtual
machine whose other tenants' load varies). A fixed kernel timed in the
same stretch slows down with the work. Each
timed value is reported scaled by ``REFERENCE_S / median kernel time``
over the kernel runs made next to it, that is, in seconds of a machine
on which the kernel takes ``REFERENCE_S``.

The kernel is pure Python and shares no code with raagembed: it picks
the least letter that commutes past everything ahead of it, over
integer-coded words and a fixed commutation table, so it exercises the
same kind of interpreter work (small loops, indexing, comparisons) while
a change to the library leaves it unchanged.
"""

from __future__ import annotations

import random
import statistics
import time
from array import array

REFERENCE_S = 0.0015
# Kernel runs per local speed estimate: about 0.4 s of query time.
WINDOW = 9


class Calibration:
    def __init__(self):
        rng = random.Random("calibration")
        n = 16
        table = [[False] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                table[i][j] = table[j][i] = i // 2 == j // 2 or rng.random() < 0.5
        self._commute = table
        self._words = [tuple(rng.randrange(n) for _ in range(12)) for _ in range(20)]
        self.samples = array("d")

    def _kernel(self):
        commute = self._commute
        total = 0
        for w in self._words:
            rest = list(w)
            while rest:
                best = None
                for t, x in enumerate(rest):
                    if all(commute[rest[i]][x] for i in range(t)):
                        if best is None or x < rest[best]:
                            best = t
                rest.pop(best)
                total += 1
        return total

    def sample(self):
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def scale(self, since=0):
        """Factor from measured seconds to reference-speed seconds, from
        the samples taken since sample number ``since``."""
        return REFERENCE_S / statistics.median(self.samples[since:])

    def scales_at(self, stamps, since):
        """The scale at each stamp (the sample count when a query ended),
        from the WINDOW samples since sample ``since`` nearest to it."""
        end = len(self.samples)
        at = {}
        for s in set(stamps):
            lo = max(since, min(s - WINDOW // 2, end - WINDOW))
            at[s] = REFERENCE_S / statistics.median(self.samples[lo:lo + WINDOW])
        return [at[s] for s in stamps]
