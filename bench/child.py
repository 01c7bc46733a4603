"""One benchmark case in a fresh process: `kr <args>` through krlib.cli.main.

    python3 bench/child.py <spawn time> <trace 0|1> "<kr args>"

The parent starts this with PYTHONPATH=src and passes the time.monotonic()
value read just before the spawn, so set-up time runs from spawn until krlib
is imported.  The command's stdout and stderr pass through untouched; the
measurement follows as the last stderr line, after MARKER.

Times are reported twice: as measured (`*_raw_s`) and scaled to a reference
CPU speed (`setup_s`, `wall_s`).  The vCPUs of a shared machine can run at
about half speed for stretches of a fraction of a second to minutes, as
when a sibling hardware thread is busy; a SpeedProbe timed every
PROBE_INTERVAL_S inside this process, while the measured code runs, gives
the speed to scale by.  Cost of the probe: about 0.5% of the run.
"""

import json
import signal
import sys
import time

MARKER = "@@bench "
PROBE_INTERVAL_S = 0.01
# duration of one _probe_work() call at full speed on a 2-vCPU x86-64 VM
PROBE_REF_S = 40e-6


def _probe_work() -> int:
    x = 0
    for i in range(600):
        x += i * i % 7
    return x


class SpeedProbe:
    """Times _probe_work() now and then from a SIGALRM interval timer."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.sample()

    def scale(self, first: int, last: int) -> float:
        """Reference speed over the speed seen in samples[first:last]."""
        window = self.samples[first:last]
        return PROBE_REF_S * len(window) / sum(window)


def _peak_rss_mb() -> float:
    # VmHWM is this process's own high-water mark; ru_maxrss can inherit the
    # parent's from before exec.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    spawn, trace, case = float(sys.argv[1]), sys.argv[2] == "1", sys.argv[3]
    probe = SpeedProbe()
    probe.start()
    import krlib.cli

    setup_raw_s = time.monotonic() - spawn
    probe.sample()
    ready = len(probe.samples)
    recorder = None
    if trace:
        import tracer

        recorder = tracer.Tracer(case)
        recorder.install()
    record = {"case": case}
    start = time.perf_counter()
    try:
        rc = krlib.cli.main(case.split())
    except Exception as err:  # reported as a failed case, never hidden
        import traceback

        traceback.print_exc()
        record["raised"] = repr(err)
        rc = 1
    wall_raw_s = time.perf_counter() - start
    probe.stop()
    sys.stdout.flush()
    record.update(
        setup_raw_s=setup_raw_s,
        setup_s=setup_raw_s * probe.scale(0, ready),
        wall_raw_s=wall_raw_s,
        wall_s=wall_raw_s * probe.scale(ready - 1, len(probe.samples)),
        peak_rss_mb=_peak_rss_mb(),
    )
    if recorder is not None:
        record.update(spans=recorder.spans, counts=recorder.counts, caches=tracer.cache_counts())
    sys.stderr.write("\n" + MARKER + json.dumps(record) + "\n")
    sys.stderr.flush()
    sys.exit(rc)


if __name__ == "__main__":
    main()
