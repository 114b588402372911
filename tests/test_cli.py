import csv
import importlib
import inspect
import pkgutil
import re
import sys

import numpy as np
import pytest

import riskrnn
from riskrnn import pipeline
from riskrnn.cli import main
from riskrnn.config import RunConfig
from riskrnn.evaluation import read_report
from riskrnn.geometry import Box
from riskrnn.model import VARIANTS, RiskModel
from riskrnn.pipeline import eval_video
from riskrnn.synthworld import read_dataset, write_dataset
from riskrnn.training import detected_tracks

import oracles

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
def test_unreadable_dataset_is_a_runtime_failure_naming_it(data_dir, tmp_path, capsys, cut):
    bad = tmp_path / "test.dat"
    bad.write_bytes((data_dir / "test.dat").read_bytes()[:cut])
    assert main(["eval", "--data", str(bad), "--model", str(tmp_path / "m.rrm"),
                 "--out", str(tmp_path / "report.txt"), *TINY]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not a ")


def test_inconsistent_accident_labels_are_a_runtime_failure_naming_the_file(
        data_dir, tmp_path, capsys):
    with np.load(data_dir / "test.dat", allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    assert arrays["positive"].any()
    arrays["t_accident"][arrays["positive"].argmax()] = -1
    bad = tmp_path / "test.dat"
    with open(bad, "wb") as fh:
        np.savez(fh, **arrays)
    assert main(["eval", "--data", str(bad), "--model", str(tmp_path / "m.rrm"),
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


@pytest.fixture(scope="module")
def untrained_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "L-RAI.rrm"
    RiskModel.create(RunConfig().model_config("L-RAI"), seed=3).save(path)
    return path


def eval_result(data_dir, model_path, video):
    """eval_video's result for the test split's ``video``-th video under the
    default tracking settings, as the CLI's single-video commands run it."""
    sample = read_dataset(data_dir / "test.dat")[video]
    tracks = detected_tracks([sample], RunConfig())[0]
    return sample, eval_video(RiskModel.load(model_path), sample, tracks)


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
# record views rebuild what the benchmark's data check compares record by
# record; read_report stays beside write_report because the golden test,
# which is kept as pinned, imports it from there.
CALLED_OUTSIDE_THE_CLI = {
    "riskrnn.data.ProposalSet.__getitem__": "bench/workloads.py::sample_mismatch",
    "riskrnn.data.ProposalSet.__len__": "bench/workloads.py::sample_mismatch",
    "riskrnn.data.VideoSample.frames": "bench/workloads.py::sample_mismatch and inspect_data",
    "riskrnn.data.VideoSample.proposals": "bench/workloads.py::sample_mismatch and inspect_data",
    "riskrnn.data.VideoSample.region_classes": "bench/workloads.py::sample_mismatch",
    "riskrnn.data.VideoSample.targets": "bench/workloads.py::sample_mismatch",
    "riskrnn.data._boxes": "the record views above",
    "riskrnn.geometry.Box.__post_init__": "the record views above",
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
