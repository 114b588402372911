import importlib
import inspect
import pkgutil
import sys

import numpy as np
import pytest

import riskrnn
from riskrnn import pipeline
from riskrnn.cli import main
from riskrnn.config import RunConfig
from riskrnn.evaluation import read_report
from riskrnn.model import VARIANTS, RiskModel
from riskrnn.synthworld import read_dataset, write_dataset

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
    ("n_classes", "1"),
])
def test_out_of_range_value_is_a_configuration_error(tmp_path, capsys, key, value):
    assert main(["generate", "--out", str(tmp_path), f"--{key}", value, *TINY]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not any(tmp_path.iterdir())


def test_missing_dataset_is_a_runtime_failure(tmp_path):
    assert main(["train", "--data", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "m.rrm"), *TINY]) == 1


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
