"""The package's public surface: exactly the names README's quick start
calls through `ev.`, an `import eivreg` that stays off the replication
and acceptance modules, the exception each library guard raises, and no
module importing a name it does not use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eivreg
from eivreg.asymptotics import (closed_form_score_cov, estimate_score_cov,
                                limit_transform, population)
from eivreg.estimators import restricted
from eivreg.exceptions import ConfigError, EivregError
from eivreg.linalg import eig_extremes, psd_factor
from eivreg.model import ModelConfig, Restriction, generate, standardized_draw
from eivreg.risk import adr_restricted

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


CFG = ModelConfig(n=50, p=2, q=2, sigma_eps2=1.0, sigma_delta2=0.2, sigma_psi2=0.5)
RESTR = Restriction(R1=[[1.0, -0.5]], R2=[[1.0], [0.8]], theta=[[0.3]])
B_3x2 = np.ones((3, 2))


def _adr_at_weight(weight):
    return adr_restricted(weight, population(CFG), np.eye(4), RESTR, np.eye(2))


@pytest.mark.parametrize("call, error, message", [
    (lambda: _adr_at_weight(np.eye(3)), ValueError, "weight must be 2x2, got (3, 3)"),
    (lambda: _adr_at_weight([[1.0, 0.5], [0.0, 1.0]]), ValueError,
     "weight must be symmetric"),
    (lambda: _adr_at_weight(np.diag([1.0, -1.0])), ValueError,
     "weight must be positive definite"),
    (lambda: restricted(np.zeros((2, 2)), np.diag([1.0, 1e-13]), RESTR), ValueError,
     "weight matrix is too ill-conditioned"),
    (lambda: estimate_score_cov(CFG, np.eye(2), reps=1, key=(0, 1)), ValueError,
     "reps must be at least 2"),
    (lambda: closed_form_score_cov(CFG, B_3x2), ValueError, "B must be 2x2, got (3, 2)"),
    (lambda: limit_transform(population(CFG), 2, q0=np.eye(2)), ValueError,
     "restricted limit transforms need the restriction"),
    (lambda: Restriction(RESTR.R1, RESTR.R2, RESTR.theta, np.zeros((1, 2))),
     ValueError, "theta0 must have the same shape as theta"),
    (lambda: Restriction(RESTR.R1, RESTR.R2, RESTR.theta, [[np.inf]]), ValueError,
     "theta0 must be finite"),
    (lambda: generate(CFG, B_3x2, np.random.default_rng(0)), ValueError,
     "B must be 2x2, got (3, 2)"),
    (lambda: standardized_draw("cauchy", 3, np.random.default_rng(0)), ConfigError,
     "unknown error family 'cauchy'"),
    (lambda: eig_extremes(np.ones((2, 3))), ValueError,
     "expected a square matrix, got shape (2, 3)"),
    (lambda: psd_factor([[1.0, 0.5], [0.0, 1.0]]), EivregError,
     "covariance must be symmetric"),
], ids=["adr-weight-shape", "adr-weight-asymmetric", "adr-weight-indefinite",
        "restricted-weight-ill-conditioned", "score-cov-reps-1",
        "closed-form-b-shape", "limit-transform-no-restriction",
        "restriction-theta0-shape", "restriction-theta0-inf", "generate-b-shape",
        "draw-cauchy", "eig-extremes-not-square", "psd-factor-asymmetric"])
def test_library_guards_raise_their_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_every_top_level_import_is_used():
    # a name imported at a module's top level is read there or exported
    unused = []
    for path in sorted((ROOT / "src" / "eivreg").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}: {name}" for name in
                           (alias.asname or alias.name.split(".")[0] for alias in node.names)
                           if name not in read | exported]
    assert not unused
