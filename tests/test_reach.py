"""Every function written in ``src/swarmbci`` is one that a command runs.

A fresh interpreter, pinned to one CPU so that ``evaluate`` and ``pipeline`` read and
filter every window in process, runs ``synth``, ``evaluate``, ``pipeline`` and
``simulate`` through ``cli.main`` under ``sys.setprofile`` and ``threading.setprofile``.
It prints each function of the package that no call entered: every module-level
function and every function in a class body (properties, classmethods and
staticmethods included) whose code lies in the module's own file, which leaves out
the methods that ``dataclass`` generates.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import swarmbci

#: Functions that no command enters in the traced process, each for a reason.
ALLOWED = {
    # The console script; CI's install step runs it.
    "cli.console_main",
    # Both run only in simulate's forked CSV writer process.
    "cli._write_trajectories",
    "swarm.save_trajectory_csv",
    # bench/layers.py counts the trials of a TrialSet with len().
    "recording.TrialSet.__len__",
}

_REACH_CHILD = textwrap.dedent("""
    import importlib, inspect, json, os, pkgutil, sys, threading

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    import swarmbci
    from swarmbci import cli

    sys.setprofile(profile)
    threading.setprofile(profile)
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
    sys.setprofile(None)
    threading.setprofile(None)

    def written(module):  # (name, function) of each function written in ``module``
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    if isinstance(member, property):
                        yield from ((f"{name}.{attr}", f) for f in (member.fget, member.fset,
                                                                    member.fdel) if f)
                    else:
                        yield f"{name}.{attr}", getattr(member, "__func__", member)
            else:
                yield name, obj

    missed = []
    for info in pkgutil.iter_modules(swarmbci.__path__):
        module = importlib.import_module(f"swarmbci.{info.name}")
        for name, obj in written(module):
            fn = inspect.unwrap(obj) if callable(obj) else obj
            if (inspect.isfunction(fn)
                    and fn.__code__.co_filename == module.__file__
                    and fn.__code__ not in entered):
                missed.append(f"{info.name}.{name}")
    print(json.dumps({"codes": codes, "missed": sorted(missed)}))
""")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins the run to one CPU")
def test_every_function_in_src_is_entered_by_a_command(tmp_path):
    small, wide = tmp_path / "small.json", tmp_path / "wide.json"
    config = {
        "run": {"n_pairs": 2},
        "timing": {"rest_s": 0.2, "cue_s": 0.2, "fixation_s": 0.2, "imagery_s": 1.0},
        "synth": {"n_channels": 8, "fs_hz": 100.0, "trials_per_class": 5},
        "swarm": {"n_drones": 12, "r_aggregate": 3.0},
    }
    small.write_text(json.dumps(config))
    # 64 channels take ChannelLayout.default_64; any other count ChannelLayout.generic.
    config["synth"] = {**config["synth"], "n_channels": 64, "trials_per_class": 1}
    wide.write_text(json.dumps(config))
    data, out = tmp_path / "data", tmp_path / "out"
    commands = [
        ["synth", "--config", str(small), "--out", str(data), "--subjects", "2"],
        ["synth", "--config", str(wide), "--out", str(out / "wide")],
        ["evaluate", str(data / "subject01.nsr"), str(data / "subject02.nsr"),
         "--config", str(small), "--out", str(out / "summary.json"), "--jobs", "1"],
        ["pipeline", str(data / "subject01.nsr"), "--config", str(small),
         "--out", str(out / "pipeline")],
        ["simulate", "--sequence", "4,3,2,1", "--config", str(small), "--seed", "2",
         "--out", str(out / "simulate")],
    ]
    src = str(Path(swarmbci.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _REACH_CHILD, json.dumps(commands)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(commands), run.stderr
    assert sorted(set(report["missed"]) - ALLOWED) == [], "functions no command enters"
    assert ALLOWED <= set(report["missed"]), "an allowed function is entered, or gone"
