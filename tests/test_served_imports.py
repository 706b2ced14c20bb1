"""The served process loads no evaluation code.

Importing the package, the CLI and the HTTP server must load none of
the paper's §4 machinery (``repro.factorized``, the counted relations,
the Figure 10 trainers and the Matlab-style baseline), none of the
extensions (set repairs, rendered explanations, AIC model selection),
none of the experiment modules, baselines or data generators, and none
of the frozen oracles the tests compare against. The check runs in a
fresh interpreter, because the test session itself imports all of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "src"))

DENIED_PACKAGES = ("repro.factorized", "repro.experiments",
                   "repro.baselines", "repro.datagen")
DENIED_MODULES = ("repro.relational.countmap", "repro.model.pipeline",
                  "repro.model.matlab_style", "repro.relational.rowref",
                  "repro.relational.deltaref", "repro.core.rankref",
                  "repro.model.emref", "repro.core.explanation",
                  "repro.core.set_repair", "repro.model.selection")

PROGRAM = """
import json, sys
import repro, repro.cli, repro.serving.server
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "repro")))
"""


def _denied(module: str) -> bool:
    return module in DENIED_MODULES or any(
        module == p or module.startswith(p + ".") for p in DENIED_PACKAGES)


def test_served_imports_load_no_evaluation_code():
    path = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PROGRAM],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "repro.serving.server" in loaded
    assert [m for m in loaded if _denied(m)] == []


PERF_PROGRAM = """
import json, sys
import repro, repro.cli, repro.serving.server
served = set(sys.modules)
import repro.datagen.perf
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "repro" and m not in served)))
"""


def test_drought_generator_loads_no_other_evaluation_code():
    """The benchmarks' drought generator adds only the ``repro.datagen``
    package to the served imports: the §5.1 hierarchy generators, which
    need ``repro.factorized``, live in ``repro.experiments.perf``."""
    path = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PERF_PROGRAM],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    added = json.loads(done.stdout)
    assert "repro.datagen.perf" in added
    assert [m for m in added
            if _denied(m) and not m.startswith("repro.datagen")] == []
