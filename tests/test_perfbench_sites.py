"""The benchmark's instrumentation still finds every function it patches.

perfbench wraps functions at fixed lookup sites and raises MissingSiteError
when a refactor moves one; this runs its installers in a fresh process so
that happens in the quick test loop rather than first in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_patch_sites_bound():
    code = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]",
        "import gridsentry.cli",
        "from tracer import Ledger, Tracer",
        "ledger = Ledger()",
        "ledger.install()",
        "Tracer(ledger).install()",
    ])
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
