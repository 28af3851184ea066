"""repro — Modeling Silicon-Photonic Neural Networks under Uncertainties.

A from-scratch Python reproduction of S. Banerjee, M. Nikdast and
K. Chakrabarty, *"Modeling Silicon-Photonic Neural Networks under
Uncertainties"* (DATE 2021, arXiv:2012.10594).

The package is organized as a hierarchy mirroring the paper's methodology:

* :mod:`repro.photonics` — component/device models (phase shifters, beam
  splitters, MZIs, gain stages) with uncertainty hooks,
* :mod:`repro.mesh` — Clements/Reck decompositions, programmable MZI
  meshes, the SVD-based photonic linear layer,
* :mod:`repro.onn` — the system-level SPNN (software twin + compiled
  hardware twin),
* :mod:`repro.variation` — Gaussian/zonal/correlated uncertainty models and
  thermal crosstalk,
* :mod:`repro.analysis` — RVD, sensitivity maps, Monte Carlo engine,
  criticality ranking, yield sweeps,
* :mod:`repro.arrays` — the NumPy hot-path kernels and the column-sweep
  kernel registry,
* :mod:`repro.execution` — the serial / thread / multiprocess backends
  that schedule the Monte Carlo chunks, bit-identical at every worker
  count,
* :mod:`repro.experiments` — runners that regenerate every figure and
  headline number of the paper,
* substrates: :mod:`repro.autograd`, :mod:`repro.nn`, :mod:`repro.datasets`,
  :mod:`repro.utils`.
"""

from . import analysis, arrays, autograd, datasets, execution, mesh, nn, onn, photonics, training, utils, variation
from .analysis import (
    MonteCarloRunner,
    device_sensitivity_map,
    per_mzi_rvd_criticality,
    rvd,
    yield_sweep,
)
from .execution import MultiprocessBackend, SerialBackend, ThreadBackend, resolve_backend
from .exceptions import (
    AutogradError,
    ConfigurationError,
    DecompositionError,
    ExperimentError,
    HostingError,
    NotUnitaryError,
    ReproError,
    ShapeError,
    TrainingError,
    VariationModelError,
)
from .mesh import (
    DiagonalStage,
    LayerPerturbation,
    LayerPerturbationBatch,
    MeshPerturbation,
    MeshPerturbationBatch,
    MZIMesh,
    PhotonicLinearLayer,
    clements_decompose,
    reck_decompose,
)
from .onn import (
    SPNN,
    SPNNArchitecture,
    SPNNTask,
    SPNNTrainingConfig,
    build_trained_spnn,
    monte_carlo_accuracy,
    stack_network_perturbations,
)
from .photonics import MZI, BeamSplitter, PhaseShifter, mzi_transfer, mzi_transfer_nonideal
from .training import NoiseAwareTrainer, NoiseInjector, PerturbationSchedule
from .variation import (
    CorrelatedFPVModel,
    ThermalCrosstalkModel,
    UncertaintyModel,
    ZoneGrid,
    sample_network_perturbation,
    sample_network_perturbation_batch,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # subpackages
    "analysis",
    "arrays",
    "autograd",
    "datasets",
    "execution",
    "mesh",
    "nn",
    "onn",
    "photonics",
    "training",
    "utils",
    "variation",
    # exceptions
    "ReproError",
    "ShapeError",
    "NotUnitaryError",
    "DecompositionError",
    "ConfigurationError",
    "AutogradError",
    "TrainingError",
    "VariationModelError",
    "ExperimentError",
    "HostingError",
    # frequently used API
    "PhaseShifter",
    "BeamSplitter",
    "MZI",
    "mzi_transfer",
    "mzi_transfer_nonideal",
    "MZIMesh",
    "MeshPerturbation",
    "MeshPerturbationBatch",
    "DiagonalStage",
    "PhotonicLinearLayer",
    "LayerPerturbation",
    "LayerPerturbationBatch",
    "clements_decompose",
    "reck_decompose",
    "SPNN",
    "SPNNArchitecture",
    "SPNNTask",
    "SPNNTrainingConfig",
    "build_trained_spnn",
    "monte_carlo_accuracy",
    "stack_network_perturbations",
    "UncertaintyModel",
    "ZoneGrid",
    "ThermalCrosstalkModel",
    "CorrelatedFPVModel",
    "sample_network_perturbation",
    "sample_network_perturbation_batch",
    "rvd",
    "device_sensitivity_map",
    "per_mzi_rvd_criticality",
    "MonteCarloRunner",
    "yield_sweep",
    "SerialBackend",
    "ThreadBackend",
    "MultiprocessBackend",
    "resolve_backend",
    "NoiseInjector",
    "PerturbationSchedule",
    "NoiseAwareTrainer",
]
