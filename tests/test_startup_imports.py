"""Start-up imports: what the benchmark's workloads import at set-up
pulls in no third-party package but numpy.

A workload's ``setup_s`` is mostly imports, and one module-level import
of a heavy package (scipy, networkx) costs a fresh process a large
fraction of it, so such packages are imported where they are used.
"""

import json
import subprocess
import sys
from pathlib import Path

#: What the four end-to-end workloads import at set-up.
WORKLOAD_MODULES = ("repro.bench.figures", "repro.service.batch", "repro.service", "repro.loadgen")

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
for name in sys.argv[2:]:
    __import__(name)
new = {m.partition(".")[0] for m in set(sys.modules) - before}
# ``__mp_main__`` and the like are the interpreter's aliases, not packages.
print(json.dumps(sorted(m for m in new - set(sys.stdlib_module_names) if not m.startswith("__"))))
"""


def test_workload_setup_imports_only_numpy_beyond_the_standard_library():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(src), *WORKLOAD_MODULES],
        capture_output=True, text=True, timeout=120, check=True,
    )
    third_party = set(json.loads(proc.stdout)) - {"repro", "numpy"}
    assert not third_party, (
        f"set-up imports pull in {sorted(third_party)}; import them where they are used"
    )
