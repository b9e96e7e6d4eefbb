"""One fresh-process set-up: import orbuq, load the scenario, build the library.

    python3 orbbench/setup_child.py <workload>

run.py starts this script with ``src`` on PYTHONPATH and times it from the
outside.  It prints one JSON object with its own phase times and the library
it built, which run.py checks and reuses.
"""

import json
import sys
import time

from workloads import WORKLOADS

t0 = time.perf_counter()
from orbuq import config  # noqa: E402  (the import is the measured phase)

t1 = time.perf_counter()
wk = WORKLOADS[sys.argv[1]]
scenario, _ = config.load_scenario(wk.scenario, list(wk.overrides))
t2 = time.perf_counter()
lib = scenario.split_library()
t3 = time.perf_counter()
print(json.dumps({
    "import_s": t1 - t0,
    "load_scenario_ms": (t2 - t1) * 1e3,
    "split_library_s": t3 - t2,
    "library": lib.to_json_obj(),
}))
