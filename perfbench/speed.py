"""The machine's speed, sampled while a job runs.

The benchmark runs on shared virtual machines whose speed for the same
Python code moves by a factor of up to 1.5 within seconds and for minutes at
a time.  Job times in seconds then measure the neighbours as much as the
program.  ``SpeedProbe`` samples the speed during each job: a real-time
timer interrupts the job every ``PERIOD_S`` seconds, and the signal handler
times one fixed ``reference_slice`` of dict, string and integer work of the
kind the program does.  Dividing the job's time by the mean slice time gives
the job's time in reference slices, which stays put when the whole machine
gets slower or faster and moves in full when the program does.

The host can also stop the virtual machine's processors outright.  That
time, the kernel's steal time, is not the program's, and a trimmed mean of
slices does not see it, so it is read from ``/proc/stat`` around each job
and taken off the job's wall time.  The time spent in the handler is counted
and taken off the job's wall and CPU times.  The slice allocates no object
that the garbage collector tracks, so it does not shift the program's
collections.  It assumes a program that runs its Python code in the main
thread, as the package does: a slice that had to wait for the GIL held by
another thread would count the wait as a slower machine.
"""

import contextlib
import os
import signal
import statistics
import time

PERIOD_S = 0.05
_TICK_S = 1 / os.sysconf("SC_CLK_TCK")
_KEYS = tuple(f"key{i:02d}" for i in range(97))


def reference_slice():
    """Wall seconds of one fixed slice of dict, string and integer work."""
    started = time.perf_counter()
    counts = {}
    for i in range(4000):
        key = _KEYS[i % 97]
        counts[key] = counts.get(key, 0) + (i * i) % 7
    sorted(counts.values())
    return time.perf_counter() - started


def stolen_s():
    """Seconds the host has stolen from this machine's processors since boot,
    or 0.0 where the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) * _TICK_S if fields[0] == "cpu" and len(fields) > 8 else 0.0


class SpeedProbe:
    def __init__(self):
        self.slices = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self.stolen = 0.0

    def _tick(self, signum, frame):
        wall, cpu = time.perf_counter(), time.process_time()
        self.slices.append(reference_slice())
        self.spent_wall += time.perf_counter() - wall
        self.spent_cpu += time.process_time() - cpu

    @contextlib.contextmanager
    def sampling(self):
        """Sample the speed for the duration of the block.  One slice is
        timed just before the block, so that even a short job has one."""
        self.slices = [reference_slice()]
        self.spent_wall = self.spent_cpu = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        stolen = stolen_s()
        try:
            yield self
        finally:
            self.stolen = stolen_s() - stolen
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slice_s(self):
        """Mean slice time over the last block, the tenth of slices at each
        end left out: the machine's average speed while the block ran.  The
        trim drops slices that the host stopped midway."""
        ordered = sorted(self.slices)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut:len(ordered) - cut])
