"""Machine state read from /proc (psutil is not a dependency)."""

from __future__ import annotations

import os


def cpu_times() -> list[int]:
    """Aggregate jiffies from /proc/stat: user nice system idle iowait
    irq softirq steal ..."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return [int(x) for x in fields[1:]]


def busy_cpu_s() -> float:
    """CPU seconds the whole VM has spent running anything (user, nice,
    system, irq, softirq); stolen and idle time excluded."""
    t = cpu_times()
    return (t[0] + t[1] + t[2] + t[5] + t[6]) / os.sysconf("SC_CLK_TCK")


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current RSS, so input
    generation before the session does not count as the engine's peak."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def loadavg_1m() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


class MachineWindow:
    """Steal and load over one run: construct at the start, ``close()``
    at the end."""

    def __init__(self):
        self._cpu0 = cpu_times()
        self._load0 = loadavg_1m()

    def close(self, ray_cpus: int) -> dict:
        cpu1 = cpu_times()
        delta = [b - a for a, b in zip(self._cpu0, cpu1)]
        total = sum(delta[:8]) or 1
        steal = delta[7] if len(delta) > 7 else 0
        load1 = loadavg_1m()
        return {
            "nproc": len(os.sched_getaffinity(0)),
            "ray_cpus": ray_cpus,
            "steal_frac": steal / total,
            "loadavg_1m": load1,
            "loadavg_1m_delta": load1 - self._load0,
        }


def _status_kb(pid: str, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0


def _is_ray_worker(pid: str) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def ray_processes() -> list[int]:
    """Live Ray processes (workers, raylet, GCS, agents) other than us."""
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
            with open(f"/proc/{pid}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        if state != "Z" and (cmd.startswith(b"ray::") or b"/ray/" in cmd
                             or b"raylet" in cmd or b"gcs_server" in cmd):
            pids.append(int(pid))
    return pids


def worker_hwm_mb() -> list[tuple[str, float]]:
    """(process title, VmHWM MB) of every live Ray worker process."""
    out = []
    for pid in os.listdir("/proc"):
        if pid.isdigit() and int(pid) != os.getpid() and _is_ray_worker(pid):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    title = f.read().split(b"\0")[0].decode(errors="replace")[:60]
            except (FileNotFoundError, ProcessLookupError):
                continue
            out.append((title, _status_kb(pid, "VmHWM") / 1024.0))
    return sorted(out, key=lambda t: -t[1])


def peak_rss_mb(n_workers: int) -> float:
    """VmHWM of this process plus the ``n_workers`` largest live Ray
    worker processes: one execution slot per logical CPU.  Ray starts a
    spare worker now and then; counting a fixed number of slots keeps
    that churn out of the figure."""
    workers = [m for _, m in worker_hwm_mb()][:n_workers]
    return _status_kb(str(os.getpid()), "VmHWM") / 1024.0 + sum(workers)
