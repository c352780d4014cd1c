"""Process plumbing for the benchmark: Ray start/stop with every
descendant reaped, a peak-RSS sampler over the driver and the Ray
workers, and small statistics helpers."""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import statistics
import tempfile
import threading
import time

PR_SET_CHILD_SUBREAPER = 36

# The benchmark of record runs Ray on one CPU whatever the box offers, so
# figures from machines with different CPU counts compare like for like.
RAY_CPUS = 1


def pin_cpus() -> list[int]:
    """Confine this process, and so every process it starts (the Ray
    daemons and workers too), to ``RAY_CPUS`` CPUs.  Unconfined, Ray's
    daemons borrow whatever other CPUs are idle, so a run's speed would
    follow the load of the machine's other tenants rather than the code."""
    cpus = sorted(os.sched_getaffinity(0))[:RAY_CPUS]
    os.sched_setaffinity(0, cpus)
    return cpus


def nproc() -> int:
    """What ``nproc`` prints: OMP_NUM_THREADS if set, else the affinity."""
    try:
        return int(os.environ["OMP_NUM_THREADS"])
    except (KeyError, ValueError):
        return len(os.sched_getaffinity(0))


def become_subreaper():
    """Orphaned descendants (Ray workers whose raylet exited) re-parent
    to this process, so ``reap_children`` can wait for every one."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children_of(pid: int) -> list[int]:
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                st = f.read()
        except OSError:
            continue
        # field 4 (ppid) follows the parenthesised command name
        if int(st[st.rindex(")") + 2:].split()[1]) == pid:
            out.append(int(d))
    return out


def descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        kids = _children_of(todo.pop())
        out.extend(kids)
        todo.extend(kids)
    return out


def reap_children(timeout: float = 20.0):
    """Stop every remaining descendant and wait until each has ended."""
    me = os.getpid()
    deadline = time.time() + timeout
    sig = signal.SIGTERM
    while True:
        while True:  # collect whatever already exited
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pid = 0
            if pid == 0:
                break
        left = descendants(me)
        if not left:
            return
        if time.time() > deadline - timeout / 2:
            sig = signal.SIGKILL
        for p in left:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        if time.time() > deadline:
            return
        time.sleep(0.2)


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


class RssSampler:
    """Samples VmHWM (peak resident set) of the driver and of every Ray
    worker process below it.  ``peak_mb`` is the highest sum over the
    processes alive at one sample, so workers that never coexisted are
    not added together."""

    def __init__(self, period_s: float = 0.5):
        self.period_s = period_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self):
        me = os.getpid()
        procs = [me] + [d for d in descendants(me) if _is_ray_worker(d)]
        self.peak_kb = max(self.peak_kb, sum(_status_kb(p, "VmHWM:") for p in procs))

    def _loop(self):
        while not self._stop.wait(self.period_s):
            self.sample()

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


# Ray puts Unix sockets at <temp>/session_<date>_<pid>/sockets/plasma_store
# (about 70 characters below <temp>), and a socket path may not exceed
# 107 bytes.
_MAX_RAY_TEMP = 107 - 72


def ray_temp_dir(root: str) -> str:
    """Ray's session directory: ``<root>/rt`` when its socket paths fit,
    else a fresh short directory under the system temp dir."""
    want = os.path.join(root, "rt")
    if len(want) <= _MAX_RAY_TEMP:
        return want
    return tempfile.mkdtemp(prefix="pb-")


def start_ray(temp_dir: str, setup_hook: str | None = None) -> float:
    """Start a private Ray instance with ``RAY_CPUS`` CPUs and its session
    files under ``temp_dir``, its workers running ``setup_hook`` if given;
    returns the seconds taken."""
    import ray
    from ray.data import DataContext

    t0 = time.perf_counter()
    kw = {}
    if setup_hook:
        kw["runtime_env"] = {"worker_process_setup_hook": setup_hook}
    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        include_dashboard=False,
        object_store_memory=768 * 1024 * 1024,
        _temp_dir=temp_dir,
        log_to_driver=False,
        logging_level="ERROR",
        configure_logging=True,
        **kw,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return time.perf_counter() - t0


def stop_ray(temp_dir: str):
    import ray

    if ray.is_initialized():
        ray.shutdown()
    reap_children()
    shutil.rmtree(temp_dir, ignore_errors=True)


def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, as in ``value = sorted(xs)[n - 11]``.  With fewer
    than 12 samples no such percentile exists; the highest one with a
    sample beyond it (the second largest) is reported instead, because
    the maximum of a handful of samples swings with one slow sample."""
    s = sorted(xs)
    n = len(s)
    k = n - 11 if n >= 12 else max(0, n - 2)
    return 100.0 * (k + 1) / n, s[k]
