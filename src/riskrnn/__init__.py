"""Agent-centric risk assessment: accident anticipation, risky-region
localization, and future-location imagination on synthetic scenarios."""

from .geometry import Box, encode_box_transform, iou
from .data import (FrameInput, Proposal, ProposalSet, VideoSample, VideoTargets,
                   read_dataset, write_dataset)
from .model import (AgentTracks, ModelConfig, ModelOutput, RiskModel, VARIANTS,
                    VideoRegions, forward_video, fuse_predictions, variant_config)
from .losses import SequenceTargets, region_labels, total_loss
from .synthworld import ScenarioConfig, generate_scenario, generate_split
from .tracking import Track, deduplicate_tracks, select_training_track, track_by_detection
from .evaluation import (average_precision, region_average_precision,
                         risk_map_raster, tta_atta, video_level_scores)
from .config import RunConfig, load_run_config
from .training import train_model
from .pipeline import evaluate_model

__all__ = [
    "Box", "encode_box_transform", "iou",
    "FrameInput", "Proposal", "ProposalSet", "VideoSample", "VideoTargets",
    "read_dataset", "write_dataset",
    "AgentTracks", "ModelConfig", "ModelOutput", "RiskModel", "VARIANTS", "VideoRegions",
    "forward_video", "fuse_predictions", "variant_config",
    "SequenceTargets", "region_labels", "total_loss",
    "ScenarioConfig", "generate_scenario", "generate_split",
    "Track", "deduplicate_tracks", "select_training_track", "track_by_detection",
    "average_precision", "region_average_precision", "risk_map_raster",
    "tta_atta", "video_level_scores",
    "RunConfig", "load_run_config", "train_model", "evaluate_model",
]

__version__ = "0.1.0"
