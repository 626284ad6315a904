"""Machine-speed probe: scales measured times to a fixed reference speed.

The benchmark shares a host with other tenants whose load can slow every
interpreter on it by up to 2x for tens of seconds at a time, so raw wall
times of one commit drift between runs far more than any bound could
tolerate.  A fixed workload owned by the benchmark (it calls no emptytet
code) is timed between operations, about 10 % of the time: compiling and
marshalling a Python source file, which tracks interpreter start-up, and
pure-Python integer work, which tracks computation.
Each operation's wall time is multiplied by REFERENCE_S divided by the
median probe time around that operation.  A change to the program moves
the operation's time but not the probe's, so the scaled time shows it; a
slow spell of the host moves both, and cancels.
"""

import bisect
import marshal
import random
import statistics
import time
from pathlib import Path

import inputs

# Probe time on an idle core of the reference machine (2-core x86-64 VM
# at 2.1 GHz, CPython 3.11); scaled times read as seconds there.
REFERENCE_S = 0.0028
DUTY = 0.1
NEIGHBOURS = 6

_FORMS = [inputs.random_form(random.Random(i), "clean") for i in range(8)]
_SOURCE = Path(inputs.__file__).read_text(encoding="utf-8")


def _work():
    marshal.loads(marshal.dumps(compile(_SOURCE, "inputs.py", "exec")))
    rng = random.Random(0)
    for a, b, c in _FORMS:
        inputs.canonical_key(a, b, c)
        inputs.scrambled(rng, a, b, c)


class Probe:
    def __init__(self):
        self.times = []
        self.durations = []
        self._debt = 0.0

    def sample(self, count=NEIGHBOURS):
        for _ in range(count):
            t0 = time.perf_counter()
            _work()
            t1 = time.perf_counter()
            self.times.append(t1)
            self.durations.append(t1 - t0)

    def after(self, busy_s):
        """Probe for DUTY times the busy time just spent."""
        self._debt += DUTY * busy_s
        while self._debt > 0:
            self.sample(1)
            self._debt -= self.durations[-1]

    def factor(self, at):
        """REFERENCE_S over the median of the NEIGHBOURS probes on either
        side of time `at`: multiply a duration measured then by this."""
        i = bisect.bisect(self.times, at)
        near = self.durations[max(0, i - NEIGHBOURS): i + NEIGHBOURS]
        return REFERENCE_S / statistics.median(near)

    def scaled(self, t0, t1):
        """Wall interval t0..t1 in seconds at the reference speed."""
        return (t1 - t0) * self.factor((t0 + t1) / 2)
