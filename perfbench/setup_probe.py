"""Set-up probe: time from a fresh interpreter to loaded, admitted scenarios.

Imports ``policyverif`` from the checkout's ``src`` and parses (and so
admits) every scenario file named on the command line.  Prints one JSON
line with the elapsed seconds and the module path that was imported.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import policyverif  # noqa: E402

for name in sys.argv[1:]:
    policyverif.parse_scenario(Path(name).read_text(encoding="utf-8"))
print(json.dumps({"elapsed": time.perf_counter() - START, "module": policyverif.__file__}))
