"""Set-up cost of a fresh interpreter: ``import deathlab.cli`` and
``kernels.warmup()`` (where numba would compile).  Prints one JSON line.

Usage: python3 perfbench/probe_setup.py SRC_DIR
"""

import json
import sys
from time import perf_counter

start = perf_counter()
sys.path.insert(0, sys.argv[1])
import deathlab.cli  # noqa: E402,F401
from deathlab import kernels  # noqa: E402

imported = perf_counter()
kernels.warmup()
done = perf_counter()
print(json.dumps({"import_s": imported - start, "warmup_s": done - imported,
                  "backend": kernels.BACKEND}))
