"""The processor's current speed, read from a fixed reference computation.

On a shared machine the speed of one core drifts by up to 2x over tens of
seconds, and every request in that stretch slows alike. The benchmark times
``reference()``, a fixed piece of exact arithmetic in the style of kholo's
own (Fraction and dict traffic) that shares no code with kholo, between
requests. It scales each request time by REFERENCE_S over the reference
times measured just before and after the request. Reported times are
therefore seconds at the speed at which the reference takes REFERENCE_S. A
change to kholo cannot move the reference, so it cannot hide a regression.
"""

import statistics
from fractions import Fraction
from time import perf_counter

from perfbench import algebra as A

# reference() in the faster of the two speeds a 2.0 GHz Xeon core showed, Python 3.11
REFERENCE_S = 0.0027
SAMPLE_EVERY_S = 0.05   # of request time between two reference samples

_P = {(a, b): A.G(Fraction(a - b, a + 1), a * b - 2)
      for a in range(5) for b in range(5) if a + b <= 4}
_Q = {(a, b): A.G(Fraction(2 * a + 1, b + 2), b - a)
      for a in range(4) for b in range(4) if a + b <= 3}


def reference():
    """Seconds taken by one fixed product of a 15-term and a 10-term polynomial over Q(i)."""
    start = perf_counter()
    A.mul(_P, _Q)
    return perf_counter() - start


class Speedometer:
    """Reference samples taken between the requests of one pass."""

    def __init__(self):
        self._samples = [(0, reference())]     # (requests done before it, seconds)
        self._done = 0
        self._since = 0.0

    def after(self, elapsed):
        """Call after each request; samples once SAMPLE_EVERY_S has passed."""
        self._done += 1
        self._since += elapsed
        if self._since >= SAMPLE_EVERY_S:
            self._samples.append((self._done, reference()))
            self._since = 0.0

    def scales(self):
        """Per request, the factor from measured to reference-speed time.

        A request's factor uses the mean of the last sample before it and
        the first sample after it.
        """
        if self._samples[-1][0] < self._done:
            self._samples.append((self._done, reference()))
        out = []
        for (before, ref_a), (after, ref_b) in zip(self._samples, self._samples[1:]):
            out += [2 * REFERENCE_S / (ref_a + ref_b)] * (after - before)
        return out
