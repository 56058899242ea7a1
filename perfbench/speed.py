"""Machine-speed probe: wall times scaled to a reference speed.

The benchmark's reference machine is a share of a busy host whose speed
drifts by up to 2x in phases of seconds to minutes, so two runs of the
same code differ in wall time by more than any useful bound.  A fixed
probe -- the kinds of work the program does: batched small-matrix
eigendecompositions, an array sort and a dictionary loop -- is timed just
before and just after each timed call.  The call's *scaled* time is its
wall time times :data:`PROBE_REF_S` over the mean of the two probe
times: the seconds it would take on a machine on which the probe takes
:data:`PROBE_REF_S`.  The probe never calls the program, so a change to
the program moves the scaled time exactly as it moves the wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

#: Probe time that defines a scaled second: about the probe's time in a
#: fast phase of the reference machine, so scaled times read close to
#: that phase's wall times.
PROBE_REF_S = 0.05

#: Rounds of the probe's work per probe, and dictionary updates per
#: round (the interpreter-bound part).
_ROUNDS = 6
_DICT_STEPS = 20_000


@dataclass
class Sample:
    """One timed call: its wall time and its speed-scaled time."""

    wall_s: float = 0.0
    scaled_s: float = 0.0

    @property
    def scale(self) -> float:
        return self.scaled_s / self.wall_s if self.wall_s > 0 else 1.0


class SpeedProbe:
    """Times the fixed probe; :meth:`measure` brackets a call with it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._frames = rng.random((40, 30, 30))
        self._values = rng.random(100_000)
        self.times: List[float] = []
        self.run()  # the first call pays LAPACK's and numpy's set-up
        self.times.clear()

    def run(self) -> float:
        """Seconds one probe took now."""
        start = time.perf_counter()
        for _ in range(_ROUNDS):
            gram = self._frames @ self._frames.transpose(0, 2, 1)
            np.linalg.eigh(gram)
            np.sort(self._values)
            counts: dict = {}
            for step in range(_DICT_STEPS):
                key = step % 997
                counts[key] = counts.get(key, 0) + step
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    @contextmanager
    def measure(self) -> Iterator[Sample]:
        """Time the ``with`` body; the sample is filled in when it ends."""
        sample = Sample()
        before = self.run()
        start = time.perf_counter()
        yield sample
        sample.wall_s = time.perf_counter() - start
        after = self.run()
        sample.scaled_s = sample.wall_s * 2.0 * PROBE_REF_S / (before + after)
