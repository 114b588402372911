import csv
import importlib
import inspect
import pkgutil
import re
import sys

import numpy as np
import pytest

import riskrnn
from riskrnn import cli, pipeline, training
from riskrnn.cli import main, parse_overrides
from riskrnn.config import RunConfig, load_run_config
from riskrnn.evaluation import read_report, write_report
from riskrnn.model import VARIANTS, RiskModel
from riskrnn.pipeline import eval_video, evaluate_model
from riskrnn.synthworld import read_dataset, write_dataset
from riskrnn.training import detected_tracks

import oracles
from oracles import Box

TINY = ["--n_train", "2", "--n_val", "2", "--n_test", "4", "--epochs", "1"]

@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["generate", "--out", str(out), *TINY]) == 0
    return out


def train(data_dir, out_dir, variant):
    model = out_dir / f"{variant}.rrm"
    code = main(["train", "--data", str(data_dir), "--variant", variant,
                 "--out", str(model), "--quiet", *TINY])
    return code, model


@pytest.mark.parametrize("variant", ["RA", "L-RA", "RAI", "L-RAI"])
def test_generate_train_eval(data_dir, tmp_path, variant):
    code, model = train(data_dir, tmp_path, variant)
    assert code == 0
    report = tmp_path / "report.txt"
    assert main(["eval", "--data", str(data_dir), "--model", str(model),
                 "--out", str(report), *TINY]) == 0
    assert read_report(report)[variant]["n_videos"] == "4"


def test_eval_writes_a_section_per_model(data_dir, tmp_path):
    models = []
    for variant in ("RA", "L-RA"):
        code, model = train(data_dir, tmp_path, variant)
        assert code == 0
        models += ["--model", str(model)]
    report = tmp_path / "report.txt"
    assert main(["eval", "--data", str(data_dir), *models, "--out", str(report), *TINY]) == 0
    assert list(read_report(report)) == ["RA", "L-RA"]


def test_unknown_key_is_a_configuration_error(tmp_path):
    assert main(["generate", "--out", str(tmp_path), "--no_such_key", "1"]) == 2


def test_an_override_is_a_pair_or_one_key_value_token(tmp_path, capsys):
    # as argparse takes --out, either form, in any mix; the seed is one more key
    assert main(["generate", "--out", str(tmp_path), "--n_train=2", "--n_val", "1",
                 "--n_test=2", "--frames_per_video", "4", "--seed=3"]) == 0
    assert [line.split(" (")[0] for line in capsys.readouterr().out.splitlines()] == [
        "train: 2 videos", "val: 1 videos", "test: 2 videos"]
    # a key without its value is named, not the token after it
    for extra, message in ((["n_val", "1"], "got 'n_val'"), (["--n_val"], "got '--n_val'"),
                           (["--n_val", "--n_test", "2"], "got '--n_val'")):
        assert main(["generate", "--out", str(tmp_path / "bad"), *extra]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("key,value", [
    ("n_regions", "0"), ("collision_iou", "1.5"), ("noise_sigma", "-1"), ("h_agent", "0"),
    ("n_classes", "1"), ("top_init", "0"), ("top_iou", "0"), ("dedup_iou", "-1"),
    ("dedup_iou", "1.5"), ("grid_w", "0"), ("grid_h", "0"), ("noise_sigma", "nan"),
    ("proposal_jitter", "inf"), ("lr", "nan"), ("lambdas", "nan,nan"), ("seed", "-1"),
])
def test_out_of_range_value_is_a_configuration_error(tmp_path, capsys, key, value):
    assert main(["generate", "--out", str(tmp_path), f"--{key}", value, *TINY]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not any(tmp_path.iterdir())


def test_a_seed_that_is_not_an_int_is_a_configuration_error(tmp_path, capsys):
    # the seed is one more '--key value' override, parsed as every key is
    assert main(["generate", "--out", str(tmp_path), "--seed", "abc", *TINY]) == 2
    assert capsys.readouterr().err == ("configuration error: cannot parse 'abc' as int "
                                       "for key 'seed'\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["test.dat", "missing.cfg"], ids=["not text", "missing"])
def test_an_unreadable_config_file_is_a_configuration_error_naming_it(
        data_dir, tmp_path, capsys, name):
    config, out = data_dir / name, tmp_path / "out"
    assert main(["generate", "--out", str(out), "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {config}: ")
    assert not out.exists()


# exp of the jittered proposal sides overflows; the dataset check, not the
# warning, must fail the run
@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_a_split_the_dataset_check_rejects_is_a_runtime_failure_writing_nothing(
        tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path), "--proposal_jitter", "1000", *TINY]) == 1
    assert re.match(r"error: video train-\d{5}: frame \d+: proposal \d+ has box ",
                    capsys.readouterr().err)
    assert not any(tmp_path.iterdir())


def test_missing_dataset_is_a_runtime_failure(tmp_path):
    assert main(["train", "--data", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "m.rrm"), *TINY]) == 1


def test_train_on_a_dataset_file_is_a_configuration_error_naming_it(data_dir, tmp_path, capsys):
    # a file would serve as both the training and the validation split
    data = data_dir / "train.dat"
    out = tmp_path / "out"
    out.mkdir()
    assert main(["train", "--data", str(data), "--out", str(out / "m.rrm"), *TINY]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(data) in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("cut", [0, 1000], ids=["empty", "truncated"])
def test_unreadable_dataset_is_a_runtime_failure_naming_it(
        data_dir, untrained_model, tmp_path, capsys, cut):
    bad = tmp_path / "test.dat"
    bad.write_bytes((data_dir / "test.dat").read_bytes()[:cut])
    assert main(["eval", "--data", str(bad), "--model", str(untrained_model),
                 "--out", str(tmp_path / "report.txt"), *TINY]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not a ")


def test_inconsistent_accident_labels_are_a_runtime_failure_naming_the_file(
        data_dir, untrained_model, tmp_path, capsys):
    with np.load(data_dir / "test.dat", allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    assert arrays["positive"].any()
    arrays["t_accident"][arrays["positive"].argmax()] = -1
    bad = tmp_path / "test.dat"
    with open(bad, "wb") as fh:
        np.savez(fh, **arrays)
    assert main(["eval", "--data", str(bad), "--model", str(untrained_model),
                 "--out", str(tmp_path / "report.txt"), *TINY]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_a_split_without_positives_is_a_runtime_failure_naming_the_file(
        data_dir, tmp_path, capsys, monkeypatch):
    negatives = [s for s in read_dataset(data_dir / "test.dat") if not s.positive]
    assert negatives
    bad = tmp_path / "test.dat"
    write_dataset(bad, negatives)
    model = tmp_path / "RA.rrm"
    RiskModel.create(RunConfig().model_config("RA"), seed=0).save(model)

    def forward_pass(*args):
        raise AssertionError("a split without positives reached the model")

    monkeypatch.setattr(pipeline, "eval_video", forward_pass)
    assert main(["eval", "--data", str(bad), "--model", str(model),
                 "--out", str(tmp_path / "report.txt"), *TINY]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: no positive video among the {len(negatives)} test videos")


@pytest.mark.parametrize("old,new,says", [
    ("variant = RA", "variant = L-RAI", "variant 'L-RAI' is not the RA its config describes"),
    ("h_aa = ", "no_such_key = 3\nh_aa = ", "unknown config key 'no_such_key'"),
    ("h_aa = 64", "h_aa = 64\nh_aa = 32", "duplicate config key 'h_aa'"),
    ("horizon = 5", "horizon = 0", "imagination horizon must be >= 1, got 0"),
    ("h_aa = 64", "h_aa = 0", "model dims must be >= 1"),
], ids=["other variant", "unknown key", "repeated key", "zero horizon", "zero dim"])
def test_a_hand_edited_model_file_is_a_runtime_failure_naming_it(
        data_dir, tmp_path, capsys, old, new, says):
    model = tmp_path / "RA.rrm"
    RiskModel.create(RunConfig().model_config("RA"), seed=0).save(model)
    model.write_text(model.read_text().replace(old, new))
    assert main(["eval", "--data", str(data_dir), "--model", str(model),
                 "--out", str(tmp_path / "report.txt"), *TINY]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: ") and says in err


def test_a_model_file_that_is_not_text_is_a_runtime_failure_naming_it(
        data_dir, tmp_path, capsys):
    model = data_dir / "test.dat"
    assert main(["eval", "--data", str(data_dir), "--model", str(model),
                 "--out", str(tmp_path / "report.txt"), *TINY]) == 1
    assert capsys.readouterr().err == f"error: {model}: not a RISKRNN-MODEL v1 file\n"


def test_a_bad_later_model_file_fails_eval_before_any_model_is_scored(
        data_dir, tmp_path, capsys):
    good = tmp_path / "RA.rrm"
    RiskModel.create(RunConfig().model_config("RA"), seed=0).save(good)
    bad = data_dir / "test.dat"
    assert main(["eval", "--data", str(data_dir), "--model", str(good), "--model", str(bad),
                 "--out", str(tmp_path / "report.txt"), *TINY]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {bad}: not a RISKRNN-MODEL v1 file\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["RA.rrm"]


@pytest.fixture(scope="module")
def untrained_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "L-RAI.rrm"
    RiskModel.create(RunConfig().model_config("L-RAI"), seed=3).save(path)
    return path


def test_a_repeated_model_names_its_curve_file_and_map_directory_alike(
        data_dir, untrained_model, tmp_path):
    report, maps = tmp_path / "rep.txt", tmp_path / "maps"
    assert main(["eval", "--data", str(data_dir), "--model", str(untrained_model),
                 "--model", str(untrained_model), "--out", str(report),
                 "--riskmap-dir", str(maps), *TINY]) == 0
    assert list(read_report(report)) == ["L-RAI", "L-RAI#1"]
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "maps", "rep.txt", "rep_curves_L-RAI.csv", "rep_curves_L-RAI_1.csv"]
    assert sorted(path.name for path in maps.iterdir()) == ["L-RAI", "L-RAI_1"]
    video_ids = sorted(sample.video_id for sample in read_dataset(data_dir / "test.dat"))
    for name in ("L-RAI", "L-RAI_1"):
        assert sorted(path.name for path in (maps / name).iterdir()) == video_ids


@pytest.mark.parametrize("command,flag", [("train", "--out"), ("train", "--log"),
                                          ("eval", "--out"), ("infer", "--out")])
def test_an_output_in_a_missing_directory_is_a_configuration_error_before_any_work(
        data_dir, untrained_model, tmp_path, monkeypatch, capsys, command, flag):
    monkeypatch.chdir(tmp_path)

    def read_dataset(path):
        raise AssertionError(f"{path} was read before the output paths were checked")

    monkeypatch.setattr(cli, "read_dataset", read_dataset)
    outputs = {"--out": "out.txt", "--log": "log.csv"} if command == "train" else {"--out": "out"}
    outputs[flag] = "nodir/x.csv"
    model = [] if command == "train" else ["--model", str(untrained_model)]
    assert main([command, "--data", str(data_dir), *model,
                 *(part for pair in outputs.items() for part in pair), *TINY]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {flag} nodir/x.csv: no directory 'nodir'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,flag", [("eval", "--riskmap-dir"), ("riskmap", "--out")])
@pytest.mark.parametrize("maps", ["F", "F/maps"])
def test_a_map_directory_under_a_file_is_a_configuration_error_before_any_work(
        data_dir, tmp_path, monkeypatch, capsys, command, flag, maps):
    monkeypatch.chdir(tmp_path)

    def read_dataset(path):
        raise AssertionError(f"{path} was read before the map directory was checked")

    monkeypatch.setattr(cli, "read_dataset", read_dataset)
    (tmp_path / "F").write_text("")
    # the model file does not exist either, so reading it first would fail with 1
    outputs = (["--out", "report.txt", "--riskmap-dir", maps] if command == "eval"
               else ["--out", maps])
    assert main([command, "--data", str(data_dir), "--model", "missing.rrm", *outputs,
                 *TINY]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {flag} {maps}: 'F' is not a directory\n")
    assert [path.name for path in tmp_path.iterdir()] == ["F"]


@pytest.mark.parametrize("blocked", ["L-RAI", "L-RAI_1"])
def test_a_file_where_a_models_map_directory_goes_fails_eval_before_any_work(
        data_dir, untrained_model, tmp_path, monkeypatch, capsys, blocked):
    monkeypatch.chdir(tmp_path)

    def read_dataset(path):
        raise AssertionError(f"{path} was read before the map directories were checked")

    monkeypatch.setattr(cli, "read_dataset", read_dataset)
    (tmp_path / "maps").mkdir()
    (tmp_path / "maps" / blocked).write_text("")
    assert main(["eval", "--data", str(data_dir), "--model", str(untrained_model),
                 "--model", str(untrained_model), "--out", "rep.txt", "--riskmap-dir", "maps",
                 *TINY]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: --riskmap-dir maps/{blocked}: 'maps/{blocked}' is not a "
        f"directory\n")
    assert sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*")) == [
        "maps", f"maps/{blocked}"]


@pytest.mark.parametrize("video_id", ["../escaped", "../../escaped"])
def test_an_id_that_is_no_plain_file_name_fails_eval_before_it_writes_a_map(
        data_dir, untrained_model, tmp_path, capsys, video_id):
    run = tmp_path / "run"
    run.mkdir()
    with np.load(data_dir / "test.dat", allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    arrays["video_id"] = np.array([f"{video_id}-{v}" for v in range(len(arrays["video_id"]))])
    bad = run / "test.dat"
    with open(bad, "wb") as fh:
        np.savez(fh, **arrays)
    assert main(["eval", "--data", str(bad), "--model", str(untrained_model),
                 "--out", str(run / "report.txt"), "--riskmap-dir", str(run / "maps"),
                 *TINY]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: not a readable RISKRNN-DATASET v2 file (ValueError: video 0: "
        f"id '{video_id}-0' is not a plain file name; ")
    assert sorted(path.relative_to(tmp_path) for path in tmp_path.rglob("*")) == [
        run.relative_to(tmp_path), bad.relative_to(tmp_path)]


def test_eval_tracks_the_split_once_for_all_its_models(
        data_dir, untrained_model, tmp_path, monkeypatch):
    other = tmp_path / "RA.rrm"
    RiskModel.create(RunConfig().model_config("RA"), seed=4).save(other)
    # each model scored on its own, tracking the split itself
    cfg = load_run_config(None, parse_overrides(TINY))
    samples = read_dataset(data_dir / "test.dat")
    write_report(tmp_path / "alone.txt", {
        model.cfg.variant: evaluate_model(model, samples, cfg).report_fields()
        for model in (RiskModel.load(untrained_model), RiskModel.load(other))})

    calls = []
    track = training.track_by_detection
    monkeypatch.setattr(training, "track_by_detection",
                        lambda *args, **kwargs: calls.append(args) or track(*args, **kwargs))
    report = tmp_path / "report.txt"
    assert main(["eval", "--data", str(data_dir), "--model", str(untrained_model),
                 "--model", str(other), "--out", str(report), *TINY]) == 0
    assert len(calls) == 1
    assert report.read_bytes() == (tmp_path / "alone.txt").read_bytes()


def eval_result(data_dir, model_path, video):
    """eval_video's result for the test split's ``video``-th video under the
    default tracking settings, as the CLI's single-video commands run it."""
    sample = read_dataset(data_dir / "test.dat")[video]
    tracks = detected_tracks([sample], RunConfig())
    return sample, eval_video(RiskModel.load(model_path), [sample], tracks)[0]


def test_infer_writes_each_frames_probability_and_region_scores(
        data_dir, untrained_model, tmp_path):
    sample, result = eval_result(data_dir, untrained_model, 1)
    out = tmp_path / "infer.csv"
    assert main(["infer", "--data", str(data_dir), "--model", str(untrained_model),
                 "--video-id", sample.video_id, "--out", str(out), *TINY]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    n_regions = result.region_scores.shape[1]
    assert rows[0] == ["frame", "accident_prob"] + [f"region_{i}" for i in range(n_regions)]
    assert rows[1:] == [[str(t), f"{prob:.17g}"] + [f"{score:.17g}" for score in scores]
                        for t, (prob, scores) in enumerate(zip(result.frame_probs,
                                                               result.region_scores))]


@pytest.mark.parametrize("command", ["infer", "riskmap"])
def test_an_unknown_video_id_is_a_runtime_failure_naming_the_file(
        data_dir, untrained_model, tmp_path, capsys, command):
    assert main([command, "--data", str(data_dir), "--model", str(untrained_model),
                 "--video-id", "nope", "--out", str(tmp_path / "out"), *TINY]) == 1
    assert capsys.readouterr().err == (f"error: {data_dir / 'test.dat'}: video id 'nope' "
                                       f"not found among its 4 videos\n")


def test_riskmap_writes_a_pgm_per_frame_of_the_first_video(data_dir, untrained_model, tmp_path):
    grid_w, grid_h = 7, 5
    sample, result = eval_result(data_dir, untrained_model, 0)
    out = tmp_path / "maps"
    assert main(["riskmap", "--data", str(data_dir), "--model", str(untrained_model),
                 "--out", str(out), "--grid_w", str(grid_w), "--grid_h", str(grid_h),
                 *TINY]) == 0
    assert sorted(path.name for path in out.iterdir()) == [
        f"frame_{t:03d}.pgm" for t in range(sample.n_frames)]
    for t, (boxes, scores) in enumerate(result.frame_regions):
        lines = (out / f"frame_{t:03d}.pgm").read_text().splitlines()
        assert lines[:3] == ["P2", f"{grid_w} {grid_h}", "255"]
        # the reference raster equals evaluation.risk_map_raster bit for bit
        risk = oracles.risk_map_raster([(Box(*box), score) for box, score in
                                        zip(boxes.tolist(), scores)], grid_w, grid_h)
        assert [[int(v) for v in line.split()] for line in lines[3:]] == \
            np.rint(255.0 * risk).astype(int).tolist()


# Reached only by callers outside the package's own run, each named. The
# record views build, as tuples and frozen records over the array rows, what
# the benchmark's data check compares record by record; read_report stays
# beside write_report because the golden test, which is kept as pinned,
# imports it from there.
CALLED_OUTSIDE_THE_CLI = {
    "riskrnn.data.VideoSample.frames": "bench/workloads.py::sample_mismatch and inspect_data",
    "riskrnn.data.VideoSample.proposals": "bench/workloads.py::sample_mismatch and inspect_data",
    "riskrnn.data.VideoSample.region_classes": "bench/workloads.py::sample_mismatch",
    "riskrnn.data.VideoSample.targets": "bench/workloads.py::sample_mismatch",
    "riskrnn.data._boxes": "the record views above",
    "riskrnn.model.AgentTracks.__len__": "bench/tracing.py::_forward",
    "riskrnn.synthworld.verify_collision_predicate": "bench/workloads.py::inspect_data",
    "riskrnn.evaluation.read_report": "tests/test_golden.py",
}


def package_functions() -> dict:
    """The code of every function of the package's modules and of every
    method and property of their classes, each with its dotted name."""
    defined = {}
    for info in pkgutil.iter_modules(riskrnn.__path__):
        module = importlib.import_module(f"riskrnn.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                defined[obj.__code__] = f"{module.__name__}.{name}"
            elif inspect.isclass(obj):
                for attr_name, attr in vars(obj).items():
                    fn = attr.fget if isinstance(attr, property) else getattr(
                        attr, "__func__", attr)
                    # a dataclass's generated methods are compiled from
                    # strings, not from the module's file
                    if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                        defined[fn.__code__] = f"{module.__name__}.{name}.{attr_name}"
    return defined


def test_the_cli_calls_every_autodiff_nn_and_data_function(tmp_path):
    # named for the modules it first covered; it covers every module
    # the package holds only what the program runs; a function, method or
    # property that only tests reach belongs with the tests
    defined = package_functions()
    assert len({name.split(".")[1] for name in defined.values()}) >= 13
    config = tmp_path / "run.cfg"
    config.write_text("[splits]\nn_train = 2\nn_val = 2\nn_test = 4\n[training]\nepochs = 1\n")
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        assert main(["generate", "--out", str(tmp_path), "--config", str(config)]) == 0
        models = []
        for variant in VARIANTS:
            code, model = train(tmp_path, tmp_path, variant)
            assert code == 0
            models += ["--model", str(model)]
        assert main(["eval", "--data", str(tmp_path), *models, "--out",
                     str(tmp_path / "report.txt"), "--riskmap-dir", str(tmp_path / "maps"),
                     *TINY]) == 0
        for command, out in (("infer", tmp_path / "infer.csv"), ("riskmap", tmp_path / "map")):
            assert main([command, "--data", str(tmp_path), "--model", models[-1],
                         "--out", str(out), *TINY]) == 0
    finally:
        sys.setprofile(previous)
    unreached = sorted(name for code, name in defined.items() if code not in called)
    assert unreached == sorted(CALLED_OUTSIDE_THE_CLI)
