"""Figure 11: explanation accuracy vs baselines on synthetic errors.

Paper shape: Reptile is consistently the most accurate across all six
error conditions and exploits the auxiliary data even at weak correlation;
Sensitivity/Support are flat (no auxiliary use); Raw cannot detect
missing/duplicated rows; Support only does well under duplication.
"""

import zlib

import pytest

from repro.datagen.errors import CONDITIONS
from repro.experiments.accuracy import run_condition

from bench_utils import SMOKE, report, smoke

RHOS = smoke([1.0], [0.6, 0.8, 1.0])
N_TRIALS = smoke(2, 30)
APPROACHES = ("reptile", "raw", "sensitivity", "support")


def _seed(condition: str) -> int:
    """A per-condition trial seed that is the same in every process.

    ``hash`` of a ``str`` is salted per process (``PYTHONHASHSEED``), so
    it cannot seed reproducible trials.
    """
    return zlib.crc32(condition.encode()) % 1000


@pytest.mark.parametrize("condition", list(CONDITIONS))
def test_condition_accuracy(benchmark, condition):
    results = benchmark.pedantic(
        lambda: [run_condition(condition, rho, n_trials=N_TRIALS,
                               seed=_seed(condition) + int(rho * 10),
                               n_iterations=8)
                 for rho in RHOS],
        rounds=1, iterations=1)
    lines = ["rho   " + "  ".join(f"{a:>11s}" for a in APPROACHES)]
    for res in results:
        lines.append(f"{res.rho:<5.1f} " + "  ".join(
            f"{res.accuracy[a]:>11.2f}" for a in APPROACHES))
    safe = condition.replace(" ", "_").replace("(", "").replace(")", "")
    report(f"fig11_{safe}", lines)
    # Shape assertions: Reptile leads (with slack for trial noise).
    if SMOKE:
        return
    final = results[-1]  # rho = 1.0
    assert final.accuracy["reptile"] >= 0.6
    assert final.accuracy["reptile"] >= final.accuracy["raw"] - 0.1
    assert final.accuracy["reptile"] >= final.accuracy["support"] - 0.1
