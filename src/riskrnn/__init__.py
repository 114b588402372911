"""Agent-centric risk assessment: accident anticipation, risky-region
localization, and future-location imagination on synthetic scenarios."""

from .geometry import (Box, BoxTransform, RelativeConfig, apply_box_transform,
                       encode_box_transform, iou, relative_config)
from .model import (FrameInput, FramePrediction, ModelConfig, RiskModel,
                    VARIANTS, forward_video, fuse_predictions, variant_config)
from .losses import VideoTargets, region_labels, total_loss
from .synthworld import (ScenarioConfig, VideoSample, generate_scenario,
                         generate_split, read_dataset, write_dataset)
from .tracking import Track, deduplicate_tracks, select_training_track, track_by_detection
from .evaluation import (average_precision, region_average_precision,
                         risk_map_raster, tta_atta, video_level_scores)
from .config import RunConfig, load_run_config
from .training import train_model
from .pipeline import evaluate_model

__all__ = [
    "Box", "BoxTransform", "RelativeConfig", "apply_box_transform",
    "encode_box_transform", "iou", "relative_config",
    "FrameInput", "FramePrediction", "ModelConfig", "RiskModel", "VARIANTS",
    "forward_video", "fuse_predictions", "variant_config",
    "VideoTargets", "region_labels", "total_loss",
    "ScenarioConfig", "VideoSample", "generate_scenario", "generate_split",
    "read_dataset", "write_dataset",
    "Track", "deduplicate_tracks", "select_training_track", "track_by_detection",
    "average_precision", "region_average_precision", "risk_map_raster",
    "tta_atta", "video_level_scores",
    "RunConfig", "load_run_config", "train_model", "evaluate_model",
]

__version__ = "0.1.0"
