"""Set-up probe, run in a fresh interpreter: import the program and load the
workload's configs, then print the import splits and the monotonic time at
which the first report could start.

Usage: python3 bench/probe.py <src dir> <config.json>...
"""

import sys
import time

t0 = time.monotonic()
import numpy  # noqa: E402,F401

t1 = time.monotonic()
import scipy.linalg  # noqa: E402,F401
import scipy.optimize  # noqa: E402,F401

t2 = time.monotonic()
sys.path.insert(0, sys.argv[1])
from gbm_cutoff import cli  # noqa: E402

t3 = time.monotonic()
for path in sys.argv[2:]:
    cli.load_config(path)
t4 = time.monotonic()

import json  # noqa: E402

print(json.dumps({
    "numpy_ms": (t1 - t0) * 1e3,
    "scipy_ms": (t2 - t1) * 1e3,
    "gbm_cutoff_ms": (t3 - t2) * 1e3,
    "load_config_ms": (t4 - t3) * 1e3,
    "ready": t4,
}))
