"""Beam training for extremely large-scale reflecting surfaces.

Builds far-field and near-field codebooks over sampled scatter geometry,
trains them exhaustively or hierarchically against synthesized cascaded
channels, and sweeps achievable rate and training overhead Monte Carlo
style.
"""

__version__ = "0.1.0"

from .channel import SceneConfig, sample_near_field_channel
from .codebook import (
    FarFieldCodebook,
    SampleGrid,
    build_near_field_codebook,
    cached_near_field_codebook,
)
from .config import ConfigError, parse_config
from .experiments import ExperimentConfig, sweep_overhead, sweep_snr
from .geometry import ArrayDims, Box3
from .training import (
    HierarchicalConfig,
    TrainingResult,
    exhaustive_training,
    hierarchical_training,
    perfect_csi_beamforming,
)
