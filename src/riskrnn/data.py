"""Video records and the dataset file.

A video holds its frames (the agent's appearance and box, and the candidate
regions), its targets and its per-frame proposals; every record is frozen.

A frame's proposals are arrays: its ``ProposalSet`` holds row views of the
video's (T, M, 4) boxes, (T, M) object scores and (T, M, D) features, the
arrays the generator draws and the file holds, checked once per video by
``proposal_frames``. Indexing or iterating a ``ProposalSet`` builds
``Proposal`` records on demand and keeps none; no program path does so.
``Proposal`` remains for readers that compare proposal by proposal: the
benchmark's check that a dataset reads back as written, and the scalar
tracker reference of the tests. The agent, region and risky boxes are still
``Box`` records.

A dataset file is one uncompressed ``.npz`` per split, written by ``np.savez``
under the path as given and read with ``allow_pickle=False``. For V videos of
T frames, N regions and M proposals per frame, D feature dimensions and at
most R risky boxes per frame it holds, with boxes as (cx, cy, w, h) rows:

    header          ()            str       "RISKRNN-DATASET v2"
    video_id        (V,)          str
    positive        (V,)          bool
    t_accident      (V,)          int64     -1 for a video without an accident
    agent_class     (V,)          int64
    region_class    (V, N)        int64
    agent_box       (V, T, 4)     float64   also the annotated agent track
    agent_feat      (V, T, D)     float64
    region_box      (V, T, N, 4)  float64
    region_feat     (V, T, N, D)  float64
    proposal_box    (V, T, M, 4)  float64
    proposal_score  (V, T, M)     float64
    proposal_feat   (V, T, M, D)  float64
    risky_box       (V, T, R, 4)  float64   NaN rows pad frames with fewer boxes
"""
from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .geometry import Box, stack_boxes

DATASET_HEADER = "RISKRNN-DATASET v2"

# key -> (dtype, dims); a digit is a fixed size, a letter a size shared by keys
_LAYOUT = {
    "video_id": (np.str_, "V"), "positive": (np.bool_, "V"),
    "t_accident": (np.int64, "V"), "agent_class": (np.int64, "V"),
    "region_class": (np.int64, "VN"),
    "agent_box": (np.float64, "VT4"), "agent_feat": (np.float64, "VTD"),
    "region_box": (np.float64, "VTN4"), "region_feat": (np.float64, "VTND"),
    "proposal_box": (np.float64, "VTM4"), "proposal_score": (np.float64, "VTM"),
    "proposal_feat": (np.float64, "VTMD"), "risky_box": (np.float64, "VTR4"),
}


@dataclass(frozen=True, eq=False)
class RegionSet:
    """A frame's candidate regions: N boxes and their (N, D) appearances.
    Construction also sets the (N, 4) array ``xywh`` of the box rows, which
    the region labels and model.VideoRegions read."""

    boxes: tuple
    feats: np.ndarray

    def __post_init__(self):
        boxes = tuple(self.boxes)
        feats = np.asarray(self.feats, dtype=np.float64)
        if len(boxes) < 1:
            raise ValueError("a frame needs at least one candidate region")
        if feats.shape[0] != len(boxes):
            raise ValueError(f"{len(boxes)} region boxes but {feats.shape[0]} feature rows")
        for name, value in dict(boxes=boxes, feats=feats, xywh=stack_boxes(boxes)).items():
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.boxes)


@dataclass(frozen=True, slots=True)
class FrameInput:
    """One frame of observations: the agent plus its candidate regions."""

    agent_feat: np.ndarray
    agent_box: Box
    regions: RegionSet

    @property
    def region_boxes(self) -> tuple:
        return self.regions.boxes

    @property
    def region_feats(self) -> np.ndarray:
        return self.regions.feats


@dataclass(frozen=True, slots=True)
class VideoTargets:
    """Supervision for one video.

    A negative has no ``t_accident`` (None) and no risky box;
    ``agent_track`` and ``risky_boxes`` cover every frame for both labels.
    """

    positive: bool
    t_accident: int | None
    agent_track: tuple
    risky_boxes: tuple  # per frame, the ground-truth boxes (empty when negative)

    def validate(self, n_frames: int) -> None:
        if len(self.agent_track) != n_frames:
            raise ValueError(f"agent track has {len(self.agent_track)} boxes for {n_frames} frames")
        if len(self.risky_boxes) != n_frames:
            raise ValueError(f"risky boxes have {len(self.risky_boxes)} entries for {n_frames} "
                             f"frames; a video needs one, empty when negative, per frame")
        if self.positive:
            if self.t_accident is None or not (0 <= self.t_accident < n_frames):
                raise ValueError(f"positive video needs an accident frame in range, got {self.t_accident}")
        elif self.t_accident is not None or any(self.risky_boxes):
            raise ValueError(f"negative video needs no accident frame and no risky box, got "
                             f"accident frame {self.t_accident} and "
                             f"{sum(map(len, self.risky_boxes))} risky boxes")

    def risky_array(self, n_risky: int | None = None) -> np.ndarray:
        """The (T, R, 4) risky boxes, R = ``n_risky`` or else the most any
        frame has; NaN rows, which overlap nothing, pad frames with fewer."""
        if n_risky is None:
            n_risky = max(map(len, self.risky_boxes), default=0)
        risky = np.full((len(self.risky_boxes), n_risky, 4), np.nan)
        for t, boxes in enumerate(self.risky_boxes):
            risky[t, :len(boxes)] = stack_boxes(boxes)
        return risky


@dataclass(frozen=True, slots=True)
class Proposal:
    box: Box
    score: float
    feat: np.ndarray


@dataclass(frozen=True, slots=True, eq=False)
class ProposalSet:
    """A frame's M proposals: the (M, 4) boxes ``xywh``, the (M,) object
    scores ``scores`` and the (M, D) appearances ``feats``."""

    xywh: np.ndarray
    scores: np.ndarray
    feats: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i) -> Proposal:
        """Proposal ``i`` as a record, built on each call. Iteration calls
        this with 0, 1, ... until the IndexError of index M."""
        return Proposal(Box(*self.xywh[i].tolist()), float(self.scores[i]), self.feats[i])


def proposal_frames(xywh, scores, feats) -> tuple:
    """Each frame's ProposalSet of a video's (T, M, 4) proposal boxes,
    (T, M) object scores and (T, M, D) features, as row views of them.

    Raises ValueError naming the first frame and proposal whose box is not
    finite or has a side <= 0, or whose score is not finite.
    """
    good = (np.isfinite(xywh).all(axis=2) & (xywh[..., 2:] > 0.0).all(axis=2)
            & np.isfinite(scores))
    if not good.all():
        t, i = np.argwhere(~good)[0]
        raise ValueError(f"frame {t}: proposal {i} has box {xywh[t, i].tolist()} and score "
                         f"{scores[t, i]}; a proposal needs a finite box with positive "
                         f"sides and a finite score")
    return tuple(map(ProposalSet, xywh, scores, feats))


@dataclass(frozen=True, slots=True)
class VideoSample:
    video_id: str
    frames: tuple
    targets: VideoTargets
    proposals: tuple  # per frame, a ProposalSet
    agent_class: int
    region_classes: tuple

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def positive(self) -> bool:
        return self.targets.positive


# ---------------------------------------------------------------------------
# dataset files

def _video_rows(sample: VideoSample, n_risky: int) -> dict:
    """One video's entries of every array but ``video_id``."""
    frames, props, targets = sample.frames, sample.proposals, sample.targets
    if tuple(targets.agent_track) != tuple(f.agent_box for f in frames):
        raise ValueError(f"video {sample.video_id}: the agent track is not the frames' agent boxes")
    return {
        "positive": sample.positive,
        "t_accident": -1 if targets.t_accident is None else targets.t_accident,
        "agent_class": sample.agent_class,
        "region_class": sample.region_classes,
        "agent_box": stack_boxes(f.agent_box for f in frames),
        "agent_feat": [f.agent_feat for f in frames],
        "region_box": [f.regions.xywh for f in frames],
        "region_feat": [f.region_feats for f in frames],
        "proposal_box": [ps.xywh for ps in props],
        "proposal_score": [ps.scores for ps in props],
        "proposal_feat": [ps.feats for ps in props],
        "risky_box": targets.risky_array(n_risky),
    }


def write_dataset(path, samples) -> None:
    """Write the videos as one dataset file; they must share T, N, M and D."""
    samples = list(samples)
    if not samples:
        raise ValueError("a dataset needs at least one video")
    n_risky = max(len(boxes) for s in samples for boxes in s.targets.risky_boxes)
    arrays = {"video_id": np.array([s.video_id for s in samples], dtype=np.str_)}
    for v, sample in enumerate(samples):
        for key, rows in _video_rows(sample, n_risky).items():
            rows = np.asarray(rows, dtype=_LAYOUT[key][0])
            if v == 0:
                arrays[key] = np.empty((len(samples),) + rows.shape, rows.dtype)
            elif rows.shape != arrays[key].shape[1:]:
                raise ValueError(f"video {sample.video_id}: {key} has shape {rows.shape}, "
                                 f"not {arrays[key].shape[1:]} as video {samples[0].video_id}")
            arrays[key][v] = rows
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(DATASET_HEADER), **arrays)


def _check_layout(arrays: dict) -> None:
    sizes: dict = {}
    for key, (dtype, dims) in _LAYOUT.items():
        a = arrays[key]
        want = [int(d) if d.isdigit() else sizes.setdefault(d, n) for d, n in zip(dims, a.shape)]
        if a.dtype.type is not dtype or a.ndim != len(dims) or list(a.shape) != want:
            shape = ", ".join(d if d.isdigit() else f"{d}={sizes.get(d, '?')}" for d in dims)
            raise ValueError(f"array {key!r} is {a.dtype} {a.shape}, expected "
                             f"{np.dtype(dtype).name} ({shape})")


def read_dataset(path) -> list[VideoSample]:
    """Read a dataset file; a malformed one raises ValueError naming the path."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise ValueError(f"{path}: not a {DATASET_HEADER} file (no .npz archive)")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                if npz["header"].item() != DATASET_HEADER:
                    raise ValueError(f"header {npz['header'].item()!r}")
                arrays = {key: npz[key] for key in _LAYOUT}
            _check_layout(arrays)
            return [_read_video(arrays, v) for v in range(arrays["video_id"].shape[0])]
        except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as err:
            raise ValueError(f"{path}: not a readable {DATASET_HEADER} file "
                             f"({type(err).__name__}: {err})") from None


def _read_video(a: dict, v: int) -> VideoSample:
    agent_boxes = tuple(Box(*row) for row in a["agent_box"][v].tolist())
    frames = tuple(
        FrameInput(feat, box, RegionSet([Box(*row) for row in rows], region_feat))
        for feat, box, rows, region_feat in zip(
            a["agent_feat"][v], agent_boxes, a["region_box"][v].tolist(), a["region_feat"][v]))
    risky = tuple(tuple(Box(*row) for row in rows if not math.isnan(row[0]))
                  for rows in a["risky_box"][v].tolist())
    t_accident = int(a["t_accident"][v])
    video_id = str(a["video_id"][v])
    targets = VideoTargets(bool(a["positive"][v]), None if t_accident == -1 else t_accident,
                           agent_boxes, risky)
    try:
        proposals = proposal_frames(a["proposal_box"][v], a["proposal_score"][v],
                                    a["proposal_feat"][v])
        targets.validate(len(frames))
    except ValueError as err:
        raise ValueError(f"video {video_id}: {err}") from None
    return VideoSample(video_id, frames, targets, proposals,
                       int(a["agent_class"][v]), tuple(a["region_class"][v].tolist()))
