"""Model-quality comparison via AIC (Appendix K, Figure 16).

Compares the four model variants of the paper — Linear, Linear-f
(+auxiliary features), Multi-level, Multi-level-f — on a view, reporting
ΔAIC against the best model. As in the paper, a ΔAIC above 10 marks a
model as substantially worse [7].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..relational.cube import GroupView
from .features import FeaturePlan, FeatureSpec, build_view_design
from .linear import LinearModel
from .multilevel import MultilevelModel

#: Burnham & Anderson rule of thumb: ΔAIC > 10 ⇒ essentially no support.
SUBSTANTIAL_DELTA = 10.0


@dataclass
class ModelScore:
    """AIC of one model variant on one dataset."""

    name: str
    aic: float
    log_likelihood: float
    n_parameters: int


def _linear_aic(view: GroupView, target: str, plan: FeaturePlan,
                cluster_attrs: Sequence[str]) -> ModelScore:
    vd = build_view_design(view, target, plan, cluster_attrs)
    fit = LinearModel().fit(vd.design, vd.y)
    return ModelScore("linear", fit.aic(), fit.log_likelihood(),
                      fit.n_parameters)


def _multilevel_aic(view: GroupView, target: str, plan: FeaturePlan,
                    cluster_attrs: Sequence[str],
                    n_iterations: int = 20) -> ModelScore:
    vd = build_view_design(view, target, plan, cluster_attrs)
    model = MultilevelModel(n_iterations=n_iterations)
    fit = model.fit(vd.design, vd.y)
    ll = model.log_likelihood(vd.design, fit, vd.y)
    return ModelScore("multilevel", 2.0 * fit.n_parameters - 2.0 * ll, ll,
                      fit.n_parameters)


def compare_models(view: GroupView, target: str,
                   cluster_attrs: Sequence[str],
                   auxiliary_specs: Sequence[FeatureSpec] = (),
                   n_iterations: int = 20) -> dict[str, ModelScore]:
    """Figure 16's four-way comparison on one dataset.

    Returns scores keyed ``linear``, ``linear-f``, ``multilevel``,
    ``multilevel-f`` (the ``-f`` variants add ``auxiliary_specs``).
    """
    default = FeaturePlan()
    with_aux = FeaturePlan(extra_specs=list(auxiliary_specs))
    scores = {
        "linear": _linear_aic(view, target, default, cluster_attrs),
        "linear-f": _linear_aic(view, target, with_aux, cluster_attrs),
        "multilevel": _multilevel_aic(view, target, default, cluster_attrs,
                                      n_iterations),
        "multilevel-f": _multilevel_aic(view, target, with_aux, cluster_attrs,
                                        n_iterations),
    }
    for key, variant in (("linear", "linear"), ("linear-f", "linear-f"),
                         ("multilevel", "multilevel"),
                         ("multilevel-f", "multilevel-f")):
        scores[key] = ModelScore(variant, scores[key].aic,
                                 scores[key].log_likelihood,
                                 scores[key].n_parameters)
    return scores


def delta_aic(scores: dict[str, ModelScore]) -> dict[str, float]:
    """ΔAIC_i = AIC_i − AIC_min for every variant (Figure 16's y-axis)."""
    best = min(s.aic for s in scores.values())
    return {name: s.aic - best for name, s in scores.items()}


def substantially_better(scores: dict[str, ModelScore],
                         a: str, b: str) -> bool:
    """Whether model ``a`` beats ``b`` by more than the ΔAIC>10 rule."""
    if math.isnan(scores[a].aic) or math.isnan(scores[b].aic):
        return False
    return scores[b].aic - scores[a].aic > SUBSTANTIAL_DELTA
