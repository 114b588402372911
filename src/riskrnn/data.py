"""Videos and the dataset file.

A ``VideoSample`` is one video's rows of the dataset file's arrays, its
fields named as the file's keys (the layout below, without the leading V).
The generator builds them from the arrays it draws, and ``read_dataset``
from row views of the arrays it loads, checked once per video by
``VideoSample.check``. Every program path reads the arrays.

The records survive only as views, built on each call and kept nowhere,
for one reader: the benchmark's check that a dataset reads back as written,
which compares videos record by record. No program path reads them.

- ``VideoSample.frames``, each frame's ``FrameInput`` with its ``Box``
  records: read by ``bench/workloads.py::sample_mismatch`` and
  ``inspect_data``;
- ``VideoSample.targets``, the ``VideoTargets`` without the NaN padding
  rows: read by ``sample_mismatch``;
- ``VideoSample.proposals``, each frame's ``ProposalSet`` of row views,
  whose indexing builds ``Proposal`` records: read by ``sample_mismatch``
  and ``inspect_data``;
- ``VideoSample.region_classes``: read by ``sample_mismatch``.

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

import zipfile
from dataclasses import dataclass

import numpy as np

from .geometry import Box

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

# for the check: what a row is called, its box, feature and score keys, and
# what it needs
_ROWS = (("agent", "agent_box", "agent_feat", None,
          "a finite box with positive sides and finite features"),
         ("region", "region_box", "region_feat", None,
          "a finite box with positive sides and finite features"),
         ("proposal", "proposal_box", "proposal_feat", "proposal_score",
          "a finite box with positive sides, finite features and a finite score"),
         ("risky box", "risky_box", None, None,
          "a finite box with positive sides, or NaN in every column as padding"))


@dataclass(frozen=True, slots=True)
class FrameInput:
    """One frame as records: the agent and its candidate regions."""

    agent_feat: np.ndarray
    agent_box: Box
    region_boxes: tuple
    region_feats: np.ndarray


@dataclass(frozen=True, slots=True)
class VideoTargets:
    """A video's supervision as records. A negative has no ``t_accident``
    (None) and no risky box; ``risky_boxes`` has a tuple per frame."""

    positive: bool
    t_accident: int | None
    agent_track: tuple
    risky_boxes: tuple


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


def _boxes(rows) -> tuple:
    return tuple(Box(*row) for row in rows.tolist())


@dataclass(frozen=True, slots=True, eq=False)
class VideoSample:
    """One video: the (T, ·) rows of each array of the dataset file."""

    video_id: str
    positive: bool
    t_accident: int  # -1 for a video without an accident
    agent_class: int
    region_class: np.ndarray
    agent_box: np.ndarray
    agent_feat: np.ndarray
    region_box: np.ndarray
    region_feat: np.ndarray
    proposal_box: np.ndarray
    proposal_score: np.ndarray
    proposal_feat: np.ndarray
    risky_box: np.ndarray

    @property
    def n_frames(self) -> int:
        return len(self.agent_box)

    def check(self) -> None:
        """Raise ValueError, naming the video, if its labels disagree or a
        row is not one the model can read, naming that row's frame and index.

        A positive needs an accident frame in range; a negative has none and
        no risky box. Every box is finite with sides > 0, every feature and
        score finite, and every risky row a box or all-NaN padding.
        """
        try:
            if self.positive and not 0 <= self.t_accident < self.n_frames:
                raise ValueError(f"positive video needs an accident frame in range, "
                                 f"got {self.t_accident}")
            n_risky = int(np.count_nonzero(~np.isnan(self.risky_box).all(axis=2)))
            if not self.positive and (self.t_accident != -1 or n_risky):
                raise ValueError(f"negative video needs no accident frame and no risky box, "
                                 f"got accident frame {self.t_accident} and {n_risky} risky boxes")
            for row_kind in _ROWS:
                self._check_rows(*row_kind)
        except ValueError as err:
            raise ValueError(f"video {self.video_id}: {err}") from None

    def _check_rows(self, what, box_key, feat_key, score_key, needs) -> None:
        boxes = getattr(self, box_key).reshape(self.n_frames, -1, 4)
        good = np.isfinite(boxes).all(axis=2) & (boxes[..., 2:] > 0.0).all(axis=2)
        if feat_key is not None:
            good &= np.isfinite(getattr(self, feat_key)).all(axis=-1).reshape(good.shape)
        if score_key is not None:
            good &= np.isfinite(getattr(self, score_key))
        if what == "risky box":
            good |= np.isnan(boxes).all(axis=2)
        if not good.all():
            t, i = np.argwhere(~good)[0]
            score = "" if score_key is None else f" and score {getattr(self, score_key)[t, i]}"
            raise ValueError(f"frame {t}: {what} {i} has box {boxes[t, i].tolist()}{score}; "
                             f"every {what} needs {needs}")

    @property
    def frames(self) -> tuple:
        """Each frame's FrameInput record, built on each call."""
        return tuple(map(FrameInput, self.agent_feat, _boxes(self.agent_box),
                         map(_boxes, self.region_box), self.region_feat))

    @property
    def targets(self) -> VideoTargets:
        """The VideoTargets record, without the NaN padding rows, built on each call."""
        risky = tuple(tuple(Box(*row) for row in rows if not np.isnan(row).all())
                      for rows in self.risky_box.tolist())
        return VideoTargets(self.positive, None if self.t_accident == -1 else self.t_accident,
                            _boxes(self.agent_box), risky)

    @property
    def proposals(self) -> tuple:
        """Each frame's ProposalSet of row views, built on each call."""
        return tuple(map(ProposalSet, self.proposal_box, self.proposal_score,
                         self.proposal_feat))

    @property
    def region_classes(self) -> tuple:
        return tuple(self.region_class.tolist())


# ---------------------------------------------------------------------------
# dataset files

def check_one_shape(samples) -> None:
    """Raise ValueError unless the videos share one T, N, M, R and D, as a
    file's do, naming the first key (in the file's order) and then the
    first video whose shape differs from the first video's."""
    for key in _LAYOUT:
        for sample in samples[1:]:
            shape, first = np.shape(getattr(sample, key)), np.shape(getattr(samples[0], key))
            if shape != first:
                raise ValueError(f"video {sample.video_id}: {key} has shape {shape}, "
                                 f"not {first} as video {samples[0].video_id}")


def write_dataset(path, samples) -> None:
    """Write the videos as one dataset file; they must share one shape."""
    samples = list(samples)
    if not samples:
        raise ValueError("a dataset needs at least one video")
    check_one_shape(samples)
    arrays = {key: np.array([getattr(sample, key) for sample in samples], dtype=dtype)
              for key, (dtype, _) in _LAYOUT.items()}
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
    if min(sizes[d] for d in "VTNMD") < 1:
        raise ValueError(f"sizes {sizes}: a dataset needs at least one video, frame, "
                         f"region, proposal and feature dimension")


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
            # the labels as Python values, the other arrays as row views
            columns = {key: a.tolist() if a.ndim == 1 else a for key, a in arrays.items()}
            samples = [VideoSample(**{key: column[v] for key, column in columns.items()})
                       for v in range(len(columns["video_id"]))]
            for sample in samples:
                sample.check()
            return samples
        except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as err:
            raise ValueError(f"{path}: not a readable {DATASET_HEADER} file "
                             f"({type(err).__name__}: {err})") from None
