"""Commands run in their own session, and the processes of a session still running."""

import contextlib
import os
import signal
import subprocess
import time
from pathlib import Path


def run_in_own_session(argv, kill_after=None, **popen):
    """Run ``argv`` in its own session to a zero exit; or, with ``kill_after``, SIGKILL the
    command alone after that many seconds and return the pids of its session still running
    10 s later. Whatever is left is killed after."""
    proc = subprocess.Popen(argv, start_new_session=True, **popen)
    try:
        if kill_after is None:
            assert proc.wait(timeout=120) == 0
            return []
        time.sleep(kill_after)
        proc.kill()  # the command alone, not its session
        proc.wait(timeout=10)
        return processes_left(proc.pid)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


def processes_left(sid):
    """The pids of the processes of session ``sid`` still running 10 s from now, or none
    as soon as none is."""
    deadline = time.monotonic() + 10.0
    while session_processes(sid) and time.monotonic() < deadline:
        time.sleep(0.02)
    return session_processes(sid)


def session_processes(sid):
    """The pids of the processes of session ``sid`` that have not exited (zombies aside)."""
    pids = []
    for entry in os.listdir("/proc"):
        try:
            stat = Path("/proc", entry, "stat").read_text() if entry.isdigit() else ""
        except OSError:  # it exited
            continue
        fields = stat.rpartition(")")[2].split()  # state, ppid, pgrp, session, ...
        if fields and int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids
