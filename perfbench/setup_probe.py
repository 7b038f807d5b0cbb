"""Set-up cost of a fresh interpreter: import the CLI and build a preset family.

Usage: python3 perfbench/setup_probe.py <src-dir> <preset>

Prints the elapsed seconds.  For time-domain presets this includes
`family.calibrate()`, the one-off dry runs paid before the first phase point.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import gemsim.cli  # noqa: E402,F401
from gemsim import scenarios  # noqa: E402

family = scenarios.preset_family(sys.argv[2])
if isinstance(family, scenarios.TimeDomainFamily):
    family.calibrate()
print(repr(time.perf_counter() - start))
