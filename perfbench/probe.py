"""Set-up probe: a fresh interpreter imports the package from this checkout,
builds and validates one workload's config and builds its instance, then
exits. run.py times whole runs of this script to get setup_s.

    python3 perfbench/probe.py <workload> <seed>
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import WORKLOADS  # noqa: E402  (needs the package path above)

WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]))
