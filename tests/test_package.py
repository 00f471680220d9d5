"""The package's public surface: exactly the names README's quick start
calls through `ev.`, and an `import eivreg` that stays off the replication
and acceptance modules."""

import os
import re
import subprocess
import sys
from pathlib import Path

import eivreg

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _python(code: str) -> str:
    """stdout of `code` run by a fresh interpreter from the repository root."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(eivreg.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          check=True, capture_output=True, text=True).stdout


def test_exports_are_the_readme_names():
    assert set(eivreg.__all__) == set(re.findall(r"\bev\.(\w+)", README))


def test_readme_quick_start_runs():
    section = README.split("## Quick start (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import eivreg as ev" in block
    assert _python(block).strip()  # the block prints what it computes


def test_import_leaves_out_replication_and_acceptance():
    loaded = set(_python("import sys, eivreg; print(*sys.modules, sep='\\n')")
                 .splitlines())
    assert "eivreg.model" in loaded
    assert not loaded & {"eivreg.montecarlo", "eivreg.verify", "eivreg.cli"}
    # nor does the CLI's: only `simulate` and `verify` load them, as they run
    loaded = set(_python("import sys, eivreg.cli; print(*sys.modules, sep='\\n')")
                 .splitlines())
    assert "eivreg.cli" in loaded
    assert not loaded & {"eivreg.montecarlo", "eivreg.verify"}
    # only a pooled draw pays for the thread pool's import
    assert "concurrent.futures" not in loaded
