"""Beam training for extremely large-scale reflecting surfaces.

Builds far-field and near-field codebooks over sampled scatter geometry,
trains them exhaustively or hierarchically against synthesized cascaded
channels, and sweeps achievable rate and training overhead Monte Carlo
style.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelRealization,
    SceneConfig,
    complex_normal,
    sample_near_field_channel,
)
from .codebook import (
    CodebookFileError,
    FarFieldCodebook,
    NearFieldCodebook,
    SampleGrid,
    build_near_field_codebook,
    far_field_codebook,
    load_codebook,
    reduced_profile,
    save_codebook,
)
from .config import ConfigError, config_digest, config_to_dict, parse_config
from .experiments import (
    ALL_SCHEMES,
    ExperimentConfig,
    ResultRow,
    ResultTable,
    achievable_rate,
    hierarchical_overhead,
    snr_db_to_sigma2,
    sweep_overhead,
    sweep_snr,
)
from .geometry import (
    ArrayDims,
    Box3,
    Point3,
    cascaded_distances,
    cascaded_steering,
    element_distances,
    phase_vector,
    rayleigh_distance,
)
from .training import (
    HierarchicalConfig,
    StageResult,
    TrainingResult,
    exhaustive_training,
    hierarchical_training,
    perfect_csi_beamforming,
    refine_ranges,
    select_codeword,
)
