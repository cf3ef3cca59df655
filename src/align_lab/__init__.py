"""align-lab: a numerical laboratory for interference-alignment feasibility.

Exact bound calculators, an explicit three-user alignment construction, a
residual verifier, channel-space probing, and a Monte Carlo feasibility
classifier; dense, diagonal and block-diagonal channel structures.
"""

from .counting import (CjParameters, PropernessReport, cj_parameters, equation_count,
                       improper_by_threshold, is_proper, min_improper_n,
                       symmetric_bound, tdma_baseline, variable_count)
from .cj3 import Cj3Instance, build_instance, construct
from .errors import (AlignLabError, DegenerateSpan, DimensionMismatch, InvalidSpec,
                     NumericOverflow, RankDeficient, SingularChannel, StreamOverflow)
from .model import (ChannelSet, ChannelStructure, IaSolution, StructureKind,
                    SystemConfig, block_diagonal_config, diagonal_config,
                    generic_config, sample_channels)
from .probe import ProbeReport, run_probe
from .solve import Classification, FeasibilityVerdict, SolverOptions, classify
from .verify import VerificationResult, check

__version__ = "0.1.0"

__all__ = [
    "AlignLabError", "ChannelSet", "ChannelStructure", "Cj3Instance",
    "CjParameters", "Classification", "DegenerateSpan", "DimensionMismatch",
    "FeasibilityVerdict", "IaSolution", "InvalidSpec", "NumericOverflow", "ProbeReport",
    "PropernessReport", "RankDeficient", "SingularChannel",
    "SolverOptions", "StreamOverflow", "StructureKind", "SystemConfig",
    "VerificationResult", "block_diagonal_config",
    "build_instance", "check", "cj_parameters", "classify",
    "construct", "diagonal_config", "equation_count", "generic_config",
    "improper_by_threshold", "is_proper", "min_improper_n",
    "run_probe", "sample_channels", "symmetric_bound",
    "tdma_baseline", "variable_count", "__version__",
]
