"""Start the redoku CLI and note when it is ready to run its command.

    python3 perfbench/launch.py READY_FILE [CLI ARGS...]

The CLOCK_MONOTONIC time at which `redoku.cli` has been imported is written
to READY_FILE; the caller's own reading of the same clock at spawn and at
exit splits the process's life into set-up and command time.  Without CLI
arguments the launcher stops once ready, which times set-up alone.
"""

import sys
import time

import redoku.cli

ready = time.monotonic()
with open(sys.argv[1], "w", encoding="ascii") as fh:
    fh.write(repr(ready))
if len(sys.argv) > 2:
    sys.exit(redoku.cli.main(sys.argv[2:]))
