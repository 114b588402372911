"""Videos and the dataset file.

A dataset file is one uncompressed ``.npz`` per split, written by ``np.savez``
under the path as given and read with ``allow_pickle=False``. It holds a
``header`` array, ``"RISKRNN-DATASET v2"``, and one array per field of
``VideoSample``, named as the field, of the dtype and dims the field
declares. For V videos of T frames, N regions and M proposals per frame, D
feature dimensions and at most R risky boxes per frame, boxes are
(cx, cy, w, h) rows. A ``VideoSample`` is one video's rows of these arrays.

One check, ``_check_split``, holds the file's contract over a split's
arrays: their dtypes and sizes, the labels, and every row the model reads.
``write_dataset`` runs it on the arrays it stacks, before it saves them, and
``read_dataset`` on the arrays it loads, before it builds each video's row
views, so every file one writes the other reads. A split built in memory is
not checked: training and evaluation check only that its videos share one
shape (``check_one_shape``), so a non-finite value there reaches the model.

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
"""
from __future__ import annotations

import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import Box

DATASET_HEADER = "RISKRNN-DATASET v2"

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
    """One video: the (T, ·) rows of each array of the dataset file. Each
    field's ``layout`` is its array's dtype and dims in the file; a digit is
    a fixed size, a letter a size shared by arrays."""

    video_id: str = field(metadata={"layout": (np.str_, "V")})
    positive: bool = field(metadata={"layout": (np.bool_, "V")})
    # -1 for a video without an accident
    t_accident: int = field(metadata={"layout": (np.int64, "V")})
    agent_class: int = field(metadata={"layout": (np.int64, "V")})
    region_class: np.ndarray = field(metadata={"layout": (np.int64, "VN")})
    # also the annotated agent track
    agent_box: np.ndarray = field(metadata={"layout": (np.float64, "VT4")})
    agent_feat: np.ndarray = field(metadata={"layout": (np.float64, "VTD")})
    region_box: np.ndarray = field(metadata={"layout": (np.float64, "VTN4")})
    region_feat: np.ndarray = field(metadata={"layout": (np.float64, "VTND")})
    proposal_box: np.ndarray = field(metadata={"layout": (np.float64, "VTM4")})
    proposal_score: np.ndarray = field(metadata={"layout": (np.float64, "VTM")})
    proposal_feat: np.ndarray = field(metadata={"layout": (np.float64, "VTMD")})
    # NaN rows pad frames with fewer boxes
    risky_box: np.ndarray = field(metadata={"layout": (np.float64, "VTR4")})

    @property
    def n_frames(self) -> int:
        return len(self.agent_box)

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


# key -> (dtype, dims)
_LAYOUT = {f.name: f.metadata["layout"] for f in fields(VideoSample)}


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


def _check_split(arrays: dict) -> None:
    """Raise ValueError unless a split's arrays, one per key of ``_LAYOUT``,
    make a dataset file. Each has its dtype and dims, every size but R is at
    least 1, and the labels and rows of every video hold:

    - a positive has an accident frame in range; a negative has none and no
      risky box;
    - every box is finite with sides > 0, every feature and score finite,
      and every risky row a box or all-NaN padding.

    The first rule above that a video breaks is named, with the first video
    that breaks it and, for a row, its frame and index.
    """
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
    ids, positive, t_accident = arrays["video_id"], arrays["positive"], arrays["t_accident"]
    n_risky = np.count_nonzero(~np.isnan(arrays["risky_box"]).all(axis=3), axis=(1, 2))
    for bad, fault in (
            (positive & ((t_accident < 0) | (t_accident >= sizes["T"])),
             "positive video needs an accident frame in range, got {t}"),
            (~positive & ((t_accident != -1) | (n_risky > 0)),
             "negative video needs no accident frame and no risky box, "
             "got accident frame {t} and {n} risky boxes")):
        if bad.any():
            v = bad.argmax()
            raise ValueError(f"video {ids[v]}: " + fault.format(t=t_accident[v], n=n_risky[v]))
    for what, box_key, feat_key, score_key, needs in _ROWS:
        boxes = arrays[box_key].reshape(sizes["V"], sizes["T"], -1, 4)
        good = np.isfinite(boxes).all(axis=3) & (boxes[..., 2:] > 0.0).all(axis=3)
        if feat_key is not None:
            good &= np.isfinite(arrays[feat_key]).all(axis=-1).reshape(good.shape)
        if score_key is not None:
            good &= np.isfinite(arrays[score_key])
        if what == "risky box":
            good |= np.isnan(boxes).all(axis=3)
        if not good.all():
            v, t, i = np.argwhere(~good)[0]
            score = "" if score_key is None else f" and score {arrays[score_key][v, t, i]}"
            raise ValueError(f"video {ids[v]}: frame {t}: {what} {i} has box "
                             f"{boxes[v, t, i].tolist()}{score}; every {what} needs {needs}")


def write_dataset(path, samples) -> None:
    """Write the videos as one dataset file. They must share one shape, and
    their arrays pass the check ``read_dataset`` makes; otherwise raise
    ValueError and write nothing."""
    samples = list(samples)
    if not samples:
        raise ValueError("a dataset needs at least one video")
    check_one_shape(samples)
    arrays = {key: np.array([getattr(sample, key) for sample in samples], dtype=dtype)
              for key, (dtype, _) in _LAYOUT.items()}
    _check_split(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(DATASET_HEADER), **arrays)


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
            _check_split(arrays)
        except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as err:
            raise ValueError(f"{path}: not a readable {DATASET_HEADER} file "
                             f"({type(err).__name__}: {err})") from None
    # the labels as Python values, the other arrays as row views
    columns = {key: a.tolist() if a.ndim == 1 else a for key, a in arrays.items()}
    return [VideoSample(**{key: column[v] for key, column in columns.items()})
            for v in range(len(columns["video_id"]))]
