"""Videos and the dataset file.

A dataset file is one uncompressed ``.npz`` per split, written by ``np.savez``
under the path as given and read with ``allow_pickle=False``. It holds a
``header`` array, ``"RISKRNN-DATASET v2"``, and one array per field of
``VideoSample``, named as the field, of the dtype and dims the field
declares. For V videos of T frames, N regions and M proposals per frame, D
feature dimensions and at most R risky boxes per frame, boxes are
(cx, cy, w, h) rows. A ``VideoSample`` is one video's rows of these arrays.

One check, ``_check_split``, holds the file's contract over a split's
arrays: their dtypes and sizes, the video ids, each its own and a plain
file name (``eval --riskmap-dir`` names a directory by it), the labels,
and every row the model reads. ``write_dataset`` runs it on the arrays it
stacks, before it saves them, and ``read_dataset`` on the arrays it loads,
before it builds each video's row views, so every file one writes the
other reads. A split built in memory is not checked: training and
evaluation check only that its videos share one shape
(``check_one_shape``), so a non-finite value there reaches the model.

The records survive only as views, built on each call and kept nowhere,
for one reader: the benchmark's check that a dataset reads back as written,
which compares videos record by record. No program path reads them. Each
box in them is a ``(cx, cy, w, h)`` tuple of floats, one array row, which
``_check_split`` has already checked.

- ``VideoSample.frames``, each frame's ``FrameInput``: read by
  ``bench/workloads.py::sample_mismatch`` and ``inspect_data``;
- ``VideoSample.targets``, the ``VideoTargets`` without the NaN padding
  rows: read by ``sample_mismatch``;
- ``VideoSample.proposals``, each frame's tuple of ``Proposal`` records:
  read by ``sample_mismatch`` and ``inspect_data``;
- ``VideoSample.region_classes``: read by ``sample_mismatch``.

The module imports only numpy and the standard library.
"""
from __future__ import annotations

import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

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
    agent_box: tuple
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
    box: tuple
    score: float
    feat: np.ndarray


def _boxes(rows) -> tuple:
    """The (cx, cy, w, h) tuples of an array's rows."""
    return tuple(map(tuple, rows.tolist()))


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
        risky = tuple(tuple(tuple(row) for row in rows if not np.isnan(row).all())
                      for rows in self.risky_box.tolist())
        return VideoTargets(self.positive, None if self.t_accident == -1 else self.t_accident,
                            _boxes(self.agent_box), risky)

    @property
    def proposals(self) -> tuple:
        """Each frame's tuple of Proposal records, built on each call; each
        ``feat`` is a row view."""
        return tuple(tuple(map(Proposal, _boxes(boxes), scores.tolist(), feats))
                     for boxes, scores, feats in zip(self.proposal_box, self.proposal_score,
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
        first = np.shape(getattr(samples[0], key))
        for sample in samples[1:]:
            shape = np.shape(getattr(sample, key))
            if shape != first:
                raise ValueError(f"video {sample.video_id}: {key} has shape {shape}, "
                                 f"not {first} as video {samples[0].video_id}")


def check_accident_frames(video_ids, positive, t_accident, n_frames: int) -> None:
    """Raise ValueError naming the first video, of the (V,) arrays of ids,
    positive flags and accident frames, that is positive but whose accident
    frame is not one of its ``n_frames`` frames."""
    bad = positive & ((t_accident < 0) | (t_accident >= n_frames))
    if bad.any():
        v = bad.argmax()
        raise ValueError(f"video {video_ids[v]}: positive video needs an accident frame "
                         f"in [0, {n_frames}), got {t_accident[v]}")


def _check_split(arrays: dict) -> None:
    """Raise ValueError unless a split's arrays, one per key of ``_LAYOUT``,
    make a dataset file. Each has its dtype and dims, every size but R is at
    least 1, and the labels and rows of every video hold:

    - no video repeats the id of an earlier one;
    - an id is a plain file name: not empty, ``.`` or ``..``, without ``/`` or NUL;
    - a positive has an accident frame in [0, T); a negative has none and no
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
    _, first, which = np.unique(ids, return_index=True, return_inverse=True)
    repeats = first[which] != np.arange(len(ids))
    if repeats.any():
        v = repeats.argmax()
        raise ValueError(f"video {ids[v]}: video {v} repeats the id of video {first[which[v]]}; "
                         f"every video needs its own id")
    names = ids.tolist()
    v = next((v for v, name in enumerate(names)
              if name in ("", ".", "..") or "/" in name or "\0" in name), None)
    if v is not None:
        raise ValueError(f"video {v}: id {names[v]!r} is not a plain file name; every id needs "
                         f"to be non-empty, not '.' or '..', and without '/' or NUL")
    check_accident_frames(ids, positive, t_accident, sizes["T"])
    n_risky = np.count_nonzero(~np.isnan(arrays["risky_box"]).all(axis=3), axis=(1, 2))
    bad = ~positive & ((t_accident != -1) | (n_risky > 0))
    if bad.any():
        v = bad.argmax()
        raise ValueError(f"video {ids[v]}: negative video needs no accident frame and no risky "
                         f"box, got accident frame {t_accident[v]} and {n_risky[v]} risky boxes")
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
