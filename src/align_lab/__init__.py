"""align-lab: a numerical laboratory for interference-alignment feasibility.

Exact bound calculators, an explicit three-user alignment construction, a
residual verifier, channel-space probing, and a Monte Carlo feasibility
classifier; dense, diagonal and block-diagonal channel structures.
"""

from .counting import (CjParameters, PropernessReport, cj_parameters, equation_count,
                       improper_by_threshold, is_proper, min_improper_n,
                       symmetric_bound, tdma_baseline, variable_count)
from .cj3 import Cj3Instance, build_instance, construct, exceeds_tdma
from .errors import (AlignLabError, DegenerateSpan, DimensionMismatch, InvalidSpec,
                     RankDeficient, SingularChannel, SingularGaugeBlock,
                     StreamOverflow)
from .model import (ChannelSet, ChannelStructure, IaSolution, StructureKind,
                    SystemConfig, block_diagonal_config, diagonal_config,
                    generic_config, sample_channels, validate_config)
from .probe import ProbeReport, assemble_channels, run_probe
from .solve import (Classification, FeasibilityVerdict, SolverOptions, classify,
                    minimize_leakage)
from .verify import VerificationResult, check, normalize_gauge

__version__ = "0.1.0"

__all__ = [
    "AlignLabError", "ChannelSet", "ChannelStructure", "Cj3Instance",
    "CjParameters", "Classification", "DegenerateSpan", "DimensionMismatch",
    "FeasibilityVerdict", "IaSolution", "InvalidSpec", "ProbeReport",
    "PropernessReport", "RankDeficient", "SingularChannel", "SingularGaugeBlock",
    "SolverOptions", "StreamOverflow", "StructureKind", "SystemConfig",
    "VerificationResult", "assemble_channels", "block_diagonal_config",
    "build_instance", "check", "cj_parameters", "classify",
    "construct", "diagonal_config", "equation_count", "exceeds_tdma",
    "generic_config", "improper_by_threshold", "is_proper",
    "min_improper_n", "minimize_leakage", "normalize_gauge", "run_probe",
    "sample_channels", "symmetric_bound", "tdma_baseline", "validate_config",
    "variable_count", "__version__",
]
