"""Make anew the fifty-agent certificate the ring50 workload simulates with.

    python3 bench/make_certificate.py

Runs ``robustform certify fifty_agent`` (about a minute on one core) with
BLAS pinned to one thread, as the benchmark runs, and writes
bench/fifty_agent_certificate.json.  The ring50 workload loads that file
during set-up and hands it to ``simulate.run``, so its simulation does not
depend on the certify step measured in the same round.
"""

import os
import sys

from run import PINNED, ROOT

os.environ.update(PINNED)  # before NumPy loads, or it has no effect
sys.path.insert(0, str(ROOT / "src"))

from robustform.cli import main  # noqa: E402
from worker import RING50_CERTIFICATE  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["certify", "fifty_agent",
                   "--out", str(RING50_CERTIFICATE)]))
