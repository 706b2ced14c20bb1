"""Data generators: synthetic workloads, error injection, case-study sims."""

from .correlate import (induce_correlation, rank_correlation,
                        van_der_waerden_scores)
from .errors import (CONDITIONS, CorruptionReport, ErrorKind, ErrorSpec,
                     apply_error, corrupt, inject_drift, inject_duplicates,
                     inject_missing)
from .synthetic import (SyntheticConfig, group_names, make_auxiliary,
                        make_dataset)

__all__ = [
    "induce_correlation", "rank_correlation", "van_der_waerden_scores",
    "CONDITIONS", "CorruptionReport", "ErrorKind", "ErrorSpec",
    "apply_error", "corrupt", "inject_drift", "inject_duplicates",
    "inject_missing", "SyntheticConfig", "group_names", "make_auxiliary",
    "make_dataset",
]
