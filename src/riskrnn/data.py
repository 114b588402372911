"""Splits of videos and the dataset file.

A ``Split`` of V videos is one (V, ·) array per field of ``VideoSample``,
named as the field, of the dtype and dims the field declares: for T
frames, N regions and M proposals per frame, D feature dimensions and at
most R risky boxes per frame, with boxes as (cx, cy, w, h) rows. Building
one checks each array's dtype and dims, and that the arrays agree on every
size they share.

A dataset file is one uncompressed ``.npz`` per split (``np.savez`` under
the path as given, read with ``allow_pickle=False``): a ``header`` array,
``"RISKRNN-DATASET v2"``, and the split's arrays. ``_check_split`` holds
the rest of the file's contract, which ``write_dataset`` checks before it
saves and ``read_dataset`` after it loads: every size but R is at least 1,
each video id is its own and a plain file name (``eval --riskmap-dir``
names a directory by it), the labels agree, and every row the model reads
is finite. A split built in memory has only its layout checked.

Iterating a split yields each video's ``VideoSample``, its rows. Their
records are views, built on each call and kept nowhere, for one reader:
the benchmark's check that a dataset reads back as written, which compares
videos record by record. No program path reads them. Each box in them is
a ``(cx, cy, w, h)`` tuple of floats, one array row.

- ``VideoSample.frames``, each frame's ``FrameInput``, and ``.proposals``,
  each frame's tuple of ``Proposal`` records: read by
  ``bench/workloads.py::sample_mismatch`` and ``inspect_data``;
- ``VideoSample.targets``, the ``VideoTargets`` without the NaN padding
  rows, and ``.region_classes``: read by ``sample_mismatch``.

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


def _layout_sizes(arrays: dict) -> dict:
    """The size each letter of ``_LAYOUT``'s dims stands for in the arrays;
    raise ValueError naming the first array not of its key's dtype and dims."""
    sizes: dict = {}
    for key, (dtype, dims) in _LAYOUT.items():
        a = arrays[key]
        want = [int(d) if d.isdigit() else sizes.setdefault(d, n) for d, n in zip(dims, a.shape)]
        if a.dtype.type is not dtype or a.ndim != len(dims) or list(a.shape) != want:
            shape = ", ".join(d if d.isdigit() else f"{d}={sizes.get(d, '?')}" for d in dims)
            raise ValueError(f"array {key!r} is {a.dtype} {a.shape}, expected "
                             f"{np.dtype(dtype).name} ({shape})")
    return sizes


@dataclass(frozen=True, eq=False)
class Split:
    """V videos as the (V, ·) array of each key of ``_LAYOUT``. Construction
    raises ValueError naming the first array (in the file's order) of
    another dtype or number of dims, or of a size another array set."""

    __annotations__ = dict.fromkeys(_LAYOUT, np.ndarray)

    def __post_init__(self):
        _layout_sizes(vars(self))

    def __len__(self) -> int:
        return len(self.video_id)

    def take(self, indices) -> "Split":
        """The videos at ``indices``, a slice or an index array, as a split."""
        return Split(**{key: array[indices] for key, array in vars(self).items()})

    __getitem__ = take

    def __iter__(self):
        """Each video's ``VideoSample``: labels as Python values, row views."""
        columns = {key: a.tolist() if a.ndim == 1 else a for key, a in vars(self).items()}
        return (VideoSample(**{key: column[v] for key, column in columns.items()})
                for v in range(len(self)))

    @classmethod
    def of(cls, videos, n_videos: int) -> "Split":
        """The split of the ``n_videos`` videos ``videos`` yields, each copied
        into its rows as it comes, so a generator's are never held together.
        Raises ValueError naming the first video, then key, whose shape is
        not the first video's, or if fewer come; IndexError if more do."""
        columns, count = {}, 0
        for count, video in enumerate(videos, 1):
            for key, (dtype, dims) in _LAYOUT.items():
                value = getattr(video, key)
                if count == 1:
                    # labels stay Python values until the last: ids of any length fit
                    columns[key] = np.empty((n_videos,) + np.shape(value),
                                            object if len(dims) == 1 else dtype)
                elif np.shape(value) != columns[key].shape[1:]:
                    raise ValueError(f"video {video.video_id}: {key} has shape "
                                     f"{np.shape(value)}, not {columns[key].shape[1:]} as "
                                     f"video {columns['video_id'][0]}")
                columns[key][count - 1] = value
        if not 0 < count == n_videos:
            raise ValueError(f"{count} videos for a split of {n_videos}; it needs one or more")
        return cls(**{key: column.astype(_LAYOUT[key][0], copy=False)
                      for key, column in columns.items()})


# ---------------------------------------------------------------------------
# dataset files

def check_accident_frames(video_ids, positive, t_accident, n_frames: int) -> None:
    """Raise ValueError naming the first video, of the (V,) arrays of ids,
    positive flags and accident frames, that is positive but whose accident
    frame is not one of its ``n_frames`` frames."""
    bad = positive & ((t_accident < 0) | (t_accident >= n_frames))
    if bad.any():
        v = bad.argmax()
        raise ValueError(f"video {video_ids[v]}: positive video needs an accident frame "
                         f"in [0, {n_frames}), got {t_accident[v]}")


def _check_split(split: Split) -> None:
    """Raise ValueError unless the split makes a dataset file: every size
    but R is at least 1, and the labels and rows of every video hold:

    - no video repeats the id of an earlier one;
    - an id is a plain file name: not empty, ``.`` or ``..``, without ``/`` or NUL;
    - a positive has an accident frame in [0, T); a negative has none and no
      risky box;
    - every box is finite with sides > 0, every feature and score finite,
      and every risky row a box or all-NaN padding.

    The first rule above that a video breaks is named, with the first video
    that breaks it and, for a row, its frame and index.
    """
    arrays = vars(split)
    sizes = _layout_sizes(arrays)
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


def write_dataset(path, split: Split) -> None:
    """Write the split as one dataset file. It must pass the check
    ``read_dataset`` makes; otherwise raise ValueError and write nothing."""
    _check_split(split)
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(DATASET_HEADER), **vars(split))


def read_dataset(path) -> Split:
    """Read a dataset file; a malformed one raises ValueError naming the path."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise ValueError(f"{path}: not a {DATASET_HEADER} file (no .npz archive)")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                if npz["header"].item() != DATASET_HEADER:
                    raise ValueError(f"header {npz['header'].item()!r}")
                split = Split(**{key: npz[key] for key in _LAYOUT})
            _check_split(split)
        except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as err:
            raise ValueError(f"{path}: not a readable {DATASET_HEADER} file "
                             f"({type(err).__name__}: {err})") from None
    return split
