"""Start-up cost: heavy optional libraries stay off the CLI's import path.

Every ``repro`` process and every spawn-mode worker imports ``repro.cli``
(or the modules behind it) before any search work starts.  ``scipy.stats``
(about 0.9 s) and ``networkx`` (about 0.2 s) used to be imported on that
path; the acquisitions now use ``scipy.special`` and the graph export imports
networkx on demand.  A fresh interpreter is used so modules imported by other
tests in this session cannot hide a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_scipy_stats_and_networkx_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "import repro.cli, repro.core.adjacency, repro.gp.acquisition\n"
        "print(json.dumps([name for name in ('scipy.stats', 'networkx') if name in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
