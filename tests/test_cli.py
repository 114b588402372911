import pytest

from riskrnn.cli import main
from riskrnn.evaluation import read_report

TINY = ["--n_train", "2", "--n_val", "2", "--n_test", "4", "--epochs", "1"]

IMAGINATION_BROKEN = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 0: forward_video leaves box_vec undefined")


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


@pytest.mark.parametrize("variant", [
    "RA", "L-RA",
    pytest.param("RAI", marks=IMAGINATION_BROKEN),
    pytest.param("L-RAI", marks=IMAGINATION_BROKEN),
])
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
