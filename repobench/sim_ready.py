"""Set-up of the ``sim_campaign`` workload, as its own process.

Imports ``repro``'s experiment registry and campaign runner, expands
the builtin campaigns the workload runs, prints ``ready`` and exits.
The benchmark times this process from spawn to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from sim import expand_ops  # noqa: E402

if __name__ == "__main__":
    print(f"ready {len(expand_ops())}", flush=True)
