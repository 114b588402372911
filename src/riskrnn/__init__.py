"""Agent-centric risk assessment: accident anticipation, risky-region
localization, and future-location imagination on synthetic scenarios."""

from .geometry import encode_box_transform, iou
from .data import VideoSample, read_dataset, write_dataset
from .model import (AgentTracks, ModelConfig, ModelOutput, RiskModel, VARIANTS,
                    forward_video, variant_config)
from .losses import SequenceTargets, region_labels, total_loss
from .synthworld import ScenarioConfig, generate_scenario, generate_split
from .tracking import deduplicate_tracks, track_by_detection
from .evaluation import (average_precision, region_average_precision,
                         risk_map_raster, tta_atta)
from .config import RunConfig, load_run_config
from .training import train_model
from .pipeline import evaluate_model

__all__ = [
    "encode_box_transform", "iou",
    "VideoSample", "read_dataset", "write_dataset",
    "AgentTracks", "ModelConfig", "ModelOutput", "RiskModel", "VARIANTS",
    "forward_video", "variant_config",
    "SequenceTargets", "region_labels", "total_loss",
    "ScenarioConfig", "generate_scenario", "generate_split",
    "deduplicate_tracks", "track_by_detection",
    "average_precision", "region_average_precision", "risk_map_raster", "tta_atta",
    "RunConfig", "load_run_config", "train_model", "evaluate_model",
]

__version__ = "0.1.0"
