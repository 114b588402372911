"""Command-line entry points: generate, train, eval, infer, riskmap.

Settings come from defaults, then an optional `--config file`, then repeated
`--key value` or `--key=value` overrides for any configuration key. Exit
codes: 0 success, 1 runtime failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from pathlib import Path

from .config import ConfigError, load_run_config
from .evaluation import risk_map_raster, write_curve_csv, write_pgm, write_report
from .model import VARIANTS, RiskModel
from .pipeline import check_scorable, eval_video, evaluate_model
from .synthworld import generate_split, read_dataset, write_dataset
from .training import detected_tracks, train_model, write_training_log


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskrnn",
        description="Accident anticipation and risky-region localization on synthetic scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value configuration file")

    p = sub.add_parser("generate", help="write train/val/test dataset files")
    common(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train", help="train one ablation variant")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory (train.dat, val.dat)")
    p.add_argument("--variant", default="L-RAI", choices=VARIANTS)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--log", help="per-epoch CSV log (default: <out>.log.csv)")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("eval", help="evaluate model(s) on the test split")
    common(p)
    p.add_argument("--data", required=True, help="test dataset file or directory")
    p.add_argument("--model", action="append", required=True, help="model file (repeatable)")
    p.add_argument("--out", required=True, help="metrics report to write")
    p.add_argument("--riskmap-dir", help="also write per-video risk maps here")

    p = sub.add_parser("infer", help="per-frame outputs for one video as CSV")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--video-id", help="default: first video in the file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("riskmap", help="rasterized risk maps for one video as PGM")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--video-id", help="default: first video in the file")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def parse_overrides(extra) -> dict:
    """Turn leftover `--key value` pairs and `--key=value` tokens, as
    argparse takes its own options, into a raw override mapping."""
    overrides, tokens = {}, iter(extra)
    for token in tokens:
        key, equals, value = token.partition("=")
        value = value if equals else next(tokens, "--")  # none left: as if a key
        if not key.startswith("--") or value.startswith("--"):
            raise ConfigError(f"expected '--key value' or '--key=value', got {token!r}")
        overrides[key[2:]] = value
    return overrides


def _dataset_path(data, split: str) -> Path:
    path = Path(data)
    return path / f"{split}.dat" if path.is_dir() else path


def cmd_generate(cfg, args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario_cfg = cfg.scenario_config()
    for split, count in (("train", cfg.n_train), ("val", cfg.n_val), ("test", cfg.n_test)):
        samples = generate_split(scenario_cfg, count, split)
        write_dataset(out / f"{split}.dat", samples)
        positives = sum(1 for s in samples if s.positive)
        print(f"{split}: {count} videos ({positives} positive / {count - positives} negative) "
              f"-> {out / (split + '.dat')}")
    return 0


def _check_output_dirs(**paths) -> None:
    """Raise ConfigError naming the first ``--flag path`` of the keyword
    arguments whose directory does not exist, so that a command fails before
    it does its work, not after."""
    for flag, path in paths.items():
        directory = Path(path).parent
        if not directory.is_dir():
            raise ConfigError(f"--{flag} {path}: no directory '{directory}'")


def _check_map_dir(flag: str, path) -> None:
    """Raise ConfigError before any work if ``--flag path``, a risk-map
    directory, or else its nearest existing parent, is not a directory."""
    existing = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--{flag} {path}: '{existing}' is not a directory")


def cmd_train(cfg, args) -> int:
    log_path = args.log or f"{args.out}.log.csv"
    _check_output_dirs(out=args.out, log=log_path)
    if Path(args.data).is_file():  # one file would serve as both splits
        raise ConfigError(f"--data {args.data}: train needs a dataset directory, not a file")
    train_videos = read_dataset(_dataset_path(args.data, "train"))
    val_videos = read_dataset(_dataset_path(args.data, "val"))
    progress = None
    if not args.quiet:
        progress = lambda s: print(
            f"epoch {s.epoch:3d}  train {s.train_loss:9.4f}  "
            f"val {s.val_loss:9.4f}  val mAP {s.val_map:.4f}")
    model, history = train_model(cfg, args.variant, train_videos, val_videos,
                                 progress=progress)
    model.save(args.out)
    write_training_log(log_path, history)
    best = min(history, key=lambda s: s.val_loss)
    print(f"trained {args.variant} for {len(history)} epochs "
          f"(best val loss {best.val_loss:.4f} at epoch {best.epoch}); "
          f"model -> {args.out}, log -> {log_path}")
    return 0


@contextmanager
def _naming(path):
    """Prefix a ValueError raised inside with ``path``, the data file whose
    split cannot be scored."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def cmd_eval(cfg, args) -> int:
    _check_output_dirs(out=args.out)
    if args.riskmap_dir:
        _check_map_dir("riskmap-dir", args.riskmap_dir)
    # every model file is read before any work, so a bad one writes nothing
    models = [RiskModel.load(model_path) for model_path in args.model]
    # each model's report section, RA#1 for the second RA, and its name on
    # disk, RA_1, for its curve file and its map directory
    variants = [model.cfg.variant for model in models]
    names = [f"{v}#{variants[:i].count(v)}" if v in variants[:i] else v
             for i, v in enumerate(variants)]
    file_names = [name.replace("#", "_") for name in names]
    if args.riskmap_dir:
        for file_name in file_names:
            _check_map_dir("riskmap-dir", Path(args.riskmap_dir) / file_name)
    path = _dataset_path(args.data, "test")
    samples = read_dataset(path)
    with _naming(path):  # the split is tracked once, for every model
        check_scorable(samples)
        tracks = detected_tracks(samples, cfg)
    sections = {}
    out = Path(args.out)
    for model, name, file_name in zip(models, names, file_names):
        with _naming(path):
            summary = evaluate_model(model, samples, cfg, tracks=tracks)
        sections[name] = summary.report_fields()
        write_curve_csv(out.with_name(f"{out.stem}_curves_{file_name}.csv"), summary.curve_rows)
        if args.riskmap_dir:
            for video in summary.videos:
                _write_riskmaps(Path(args.riskmap_dir) / file_name / video.video_id, video, cfg)
        print(f"{name}: anticipation mAP {summary.anticipation_map:.4f}, "
              f"ATTA {summary.atta_frames:.2f} frames, "
              f"region mAP {summary.region_map:.4f} "
              f"(oracle {summary.oracle_region_map:.4f})")
    write_report(out, sections)
    print(f"report -> {out}")
    return 0


def _write_riskmaps(out: Path, result, cfg) -> None:
    """One video's risk maps, a PGM per frame, into the directory ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    for t, (boxes, scores) in enumerate(result.frame_regions):
        write_pgm(out / f"frame_{t:03d}.pgm",
                  risk_map_raster(boxes, scores, cfg.grid_w, cfg.grid_h))


def _eval_one_video(cfg, args):
    """The test split's video ``--video-id`` names (by default its first)
    and ``eval_video``'s result for its detected tracks, a batch of one
    video, under the ``--model`` file's model."""
    path = _dataset_path(args.data, "test")
    samples = read_dataset(path)
    picked = [s for s in samples if args.video_id in (None, s.video_id)]
    if not picked:
        raise ValueError(f"{path}: video id {args.video_id!r} not found among its "
                         f"{len(samples)} videos")
    sample, model = picked[0], RiskModel.load(args.model)
    return sample, eval_video(model, [sample], detected_tracks([sample], cfg))[0]


def cmd_infer(cfg, args) -> int:
    _check_output_dirs(out=args.out)
    sample, result = _eval_one_video(cfg, args)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "accident_prob"] +
                        [f"region_{i}" for i in range(result.region_scores.shape[1])])
        for t, scores in enumerate(result.region_scores):
            writer.writerow([t, f"{result.frame_probs[t]:.17g}"] +
                            [f"{s:.17g}" for s in scores])
    print(f"{sample.video_id}: {sample.n_frames} frames over {result.n_tracks} "
          f"candidate tracks -> {args.out}")
    return 0


def cmd_riskmap(cfg, args) -> int:
    _check_map_dir("out", args.out)
    sample, result = _eval_one_video(cfg, args)
    out = Path(args.out)
    _write_riskmaps(out, result, cfg)
    print(f"{sample.n_frames} risk maps -> {out}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "infer": cmd_infer,
    "riskmap": cmd_riskmap,
}


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        cfg = load_run_config(args.config, parse_overrides(extra))
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
