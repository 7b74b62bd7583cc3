"""Set-up probe: a fresh interpreter imports equizeta and makes one warm-up call.

Usage: python3 bench/probe.py <repo root> <workload>.  Prints ``ready`` once
the warm-up call has returned; the parent times interpreter start to that
line.  Then prints the time of one calibration snippet (bench/timing.py),
which the parent uses to rescale the set-up time to reference speed.
"""

import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.join(sys.argv[1], "src"))

import equizeta  # noqa: E402

workload = sys.argv[2]
if workload == "continuation":
    from equizeta import zeta

    zeta.ruelle_log_closed(equizeta.CircleModel(alpha=1j), 0.25, 0.0)
elif workload == "direct-sweep":
    from equizeta import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["eval", "--model", "circle", "--params", "r0=0.25,alpha=1i",
                  "--sigma", "1", "--method", "direct"])
else:
    from equizeta import zeta

    zeta.fried_residual(equizeta.LineModel(alpha=1j), 2.0)
print("ready", flush=True)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from timing import calibrate  # noqa: E402

print(min(calibrate() for _ in range(3)), flush=True)
