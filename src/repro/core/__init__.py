"""Reptile's core: complaints, model-based repair, ranking, sessions.

The package exports what the served system runs. The extensions — set
repairs (:mod:`repro.core.set_repair`) and rendered explanations
(:mod:`repro.core.explanation`) — and the frozen ranking oracle
(:mod:`repro.core.rankref`) are imported by module path only, so loading
the package loads none of them.
"""

from .complaint import Complaint, Direction
from .ranker import (DrilldownRecommendation, Recommendation, ScoredGroup,
                     rank_candidate, rank_candidates, score_drilldown)
from .repair import (CustomRepairer, ModelRepairer, NON_NEGATIVE,
                     REPAIR_STATISTICS, RepairAlignmentError,
                     RepairPrediction)
from .session import (STALENESS_POLICIES, DrillSession, Reptile,
                      ReptileConfig, SessionError, StaleDataError)

__all__ = [
    "Complaint", "Direction", "DrilldownRecommendation", "Recommendation",
    "ScoredGroup", "rank_candidate", "rank_candidates", "score_drilldown",
    "CustomRepairer", "ModelRepairer", "NON_NEGATIVE", "REPAIR_STATISTICS",
    "RepairAlignmentError", "RepairPrediction", "DrillSession", "Reptile",
    "ReptileConfig", "STALENESS_POLICIES", "StaleDataError",
    "SessionError",
]
