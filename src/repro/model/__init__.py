"""Models: feature generation, OLS, and the EM-trained multi-level model.

The package exports what the served system fits with. The Figure 10
trainers and the factorised design (:mod:`repro.model.pipeline`), the
Matlab-style baseline (:mod:`repro.model.matlab_style`), AIC model
selection (:mod:`repro.model.selection`, Figure 16) and the frozen EM
oracle (:mod:`repro.model.emref`) are imported by module path only, so
loading the package loads none of them.
"""

from .backends import DenseDesign, Design
from .features import (AuxiliaryFeature, BuiltFeature, CustomFeature,
                       FeatureError, FeaturePlan, FeatureSet, FeatureSpec,
                       LagFeature, MainEffectFeature, ViewDesign,
                       build_view_design, build_view_designs)
from .linear import LinearFit, LinearModel, solve_spd
from .multilevel import MultilevelFit, MultilevelModel

__all__ = [
    "DenseDesign", "Design", "AuxiliaryFeature",
    "BuiltFeature", "CustomFeature", "FeatureError", "FeaturePlan",
    "FeatureSet", "FeatureSpec", "LagFeature", "MainEffectFeature",
    "ViewDesign", "build_view_design", "build_view_designs", "LinearFit",
    "LinearModel", "solve_spd", "MultilevelFit", "MultilevelModel",
]
