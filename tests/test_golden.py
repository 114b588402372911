"""A golden end-to-end run: ``generate``, ``train`` for each variant and
``eval`` through ``cli.main`` on a tiny seeded configuration, compared with
pinned training logs and report fields. Refactors of the model, training or
eval must keep these numbers; re-pin only for a change meant to alter them."""
import numpy as np
import pytest

from riskrnn.cli import main
from riskrnn.evaluation import read_report
from riskrnn.model import VARIANTS

TINY = ["--n_train", "3", "--n_val", "2", "--n_test", "8", "--epochs", "2",
        "--patience", "3", "--seed", "9"]
RTOL = 1e-12

# (epoch, train_loss, val_loss, val_map) rows of each variant's training log
PINNED_LOGS = {
    "RA": [(1, 65.870667957335286, 91.034711234640582, 0.5),
           (2, 62.686056094508082, 90.933905682980338, 0.5)],
    "RAI": [(1, 76.541655280126136, 110.45709872663464, 1.0),
            (2, 72.577267803181243, 110.2983513079555, 1.0)],
    "L-RA": [(1, 63.083585672518929, 56.924751213148511, 0.5),
             (2, 66.10324827368882, 56.807166906713867, 0.5)],
    "L-RAI": [(1, 70.483440431924777, 63.837164976385459, 0.5),
              (2, 73.385738507656953, 63.749088332834447, 0.5)],
}

# (anticipation_map, atta_frames, atta_seconds, region_map, oracle_region_map)
PINNED_REPORT = {
    "RA": (0.60416666666666663, 4.645833333333333, 0.23229166666666665,
           0.080602734257761419, 1.0),
    "RAI": (0.60416666666666663, 4.8125, 0.24062500000000001,
            0.078683145031975071, 1.0),
    "L-RA": (0.50119047619047619, 5.6875, 0.28437499999999999,
             0.087010652672561764, 1.0),
    "L-RAI": (0.68452380952380953, 7.458333333333333, 0.37291666666666667,
              0.054850607356693996, 1.0),
}
FLOAT_FIELDS = ("anticipation_map", "atta_frames", "atta_seconds", "region_map",
                "oracle_region_map")


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert main(["generate", "--out", str(out), *TINY]) == 0
    models = []
    for variant in VARIANTS:
        model = out / f"{variant}.rrm"
        assert main(["train", "--data", str(out), "--variant", variant,
                     "--out", str(model), "--quiet", *TINY]) == 0
        models += ["--model", str(model)]
    report = out / "report.txt"
    assert main(["eval", "--data", str(out), *models, "--out", str(report), *TINY]) == 0
    return out, read_report(report)


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_logs_match_the_pinned_run(golden_run, variant):
    out, _ = golden_run
    header, *rows = (out / f"{variant}.rrm.log.csv").read_text().split()
    assert header == "epoch,train_loss,val_loss,val_map"
    got = np.array([[float(v) for v in row.split(",")] for row in rows])
    np.testing.assert_allclose(got, PINNED_LOGS[variant], rtol=RTOL, atol=0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_report_fields_match_the_pinned_run(golden_run, variant):
    _, report = golden_run
    fields = report[variant]
    assert list(fields) == [*FLOAT_FIELDS, "n_videos", "n_positive"]
    assert (fields["n_videos"], fields["n_positive"]) == ("8", "4")
    got = [float(fields[name]) for name in FLOAT_FIELDS]
    np.testing.assert_allclose(got, PINNED_REPORT[variant], rtol=RTOL, atol=0)
