"""Pre- and post-selected single-photon experiments with pointer readouts.

A four-dimensional (arm x circular polarisation) photon crosses a balanced
interferometer whose detection chain post-selects one state at detector D1.
The package computes weak values, conditional outcome distributions for
strong intermediate measurements, exact Gaussian pointer statistics for
weakly-through-strongly coupled probes, and reproducible Monte Carlo CCD
shot records, with a CLI on top.
"""

__version__ = "0.1.0"

from .montecarlo import (
    Experiment,
    InsufficientData,
    LowAcceptance,
    ShotBatch,
    Tally,
    analyze,
    sample_shots,
)
from .optics import Detector
from .pointer import (
    Axis,
    DuplicateAxis,
    GaussianPointer,
    NullPostSelection,
    PointerMixture,
    mixture_density,
    mixture_moments,
)
from .postselect import (
    NoValidHistory,
    OrthogonalSelection,
    abl_distribution,
    sequential_distribution,
    weak_value,
)
from .qstate import (
    Ket,
    SpectralObservable,
    canonical_observables,
    canonical_states,
    observable_operator,
)

__all__ = [
    "Axis",
    "Detector",
    "DuplicateAxis",
    "Experiment",
    "GaussianPointer",
    "InsufficientData",
    "Ket",
    "LowAcceptance",
    "NoValidHistory",
    "NullPostSelection",
    "OrthogonalSelection",
    "PointerMixture",
    "ShotBatch",
    "SpectralObservable",
    "Tally",
    "abl_distribution",
    "analyze",
    "canonical_observables",
    "canonical_states",
    "mixture_density",
    "mixture_moments",
    "observable_operator",
    "sample_shots",
    "sequential_distribution",
    "weak_value",
]
