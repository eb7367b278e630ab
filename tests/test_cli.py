import warnings

import numpy as np
import pytest

from pathsgd import cli, config, graph, pathnorm

# A tiny addition model, small enough for every CLI training test.
TINY = ["--set", "task=addition", "--set", "seq_len=4", "--set", "hidden=2",
        "--set", "eval_size=16"]


def run_cli(*argv):
    return cli.main(list(argv))


def test_train_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("train", *TINY, "--set", "steps=60",
                   "--set", "eval_interval=20", "--set", "optimizer=path_sgd",
                   "--set", "lr=0.2", "--set", "init_range=0.5",
                   "--set", f"out_dir={out}")
    assert code == 0
    for name in ("config.txt", "metrics.csv", "checkpoint.txt", "status.txt"):
        assert (out / name).exists(), name
    assert not list(out.glob("*.tmp"))
    printed = capsys.readouterr().out
    lines = printed.splitlines()
    assert lines[0].startswith("step,train_loss")
    csv = (out / "metrics.csv").read_text().splitlines()
    assert csv[0] == lines[0]
    assert csv[1] == lines[1]
    assert (out / "status.txt").read_text().strip() in ("budget_exhausted", "converged")


@pytest.mark.parametrize("data", [
    ["--set", "eval_size=0"],
    ["--set", "task=seqclass", "--set", "image_size=3", "--set", "data_size=1"],
])
def test_train_rejects_empty_split_before_writing(tmp_path, capsys, data):
    """A data setting that leaves a split empty exits 1 before out_dir exists."""
    out = tmp_path / "run"
    assert run_cli("train", *TINY, *data, "--set", f"out_dir={out}") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and not captured.out
    assert not out.exists()


@pytest.mark.parametrize("task", [
    ["--set", "task=addition", "--set", "seq_len=5", "--set", "eval_size=16"],
    ["--set", "task=seqclass", "--set", "image_size=3", "--set", "data_size=64"],
    ["--set", "task=charlm", "--set", "seq_len=5"],
])
def test_train_builds_no_dag(tmp_path, monkeypatch, task):
    def refuse(spec):
        raise AssertionError("training must not unroll the DAG")

    monkeypatch.setattr(graph, "build_rnn", refuse)
    monkeypatch.setattr(cli, "build_rnn", refuse)
    out = tmp_path / "run"
    assert run_cli("train", *task, "--set", "hidden=3", "--set", "steps=4",
                   "--set", "eval_interval=2",
                   "--set", "kappa_mode=k1_plus_k2", "--set", f"out_dir={out}") == 0
    assert (out / "status.txt").read_text() == "budget_exhausted\n"


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("key, value", [("kappa_mode", "k1_plus_k2"), ("epsilon", "0.5")])
def test_train_rejects_kappa_keys_for_plain_optimizers(tmp_path, capsys, optimizer,
                                                       key, value):
    """A kappa setting that sgd or adam would ignore exits 1 and names the
    key; the path optimizers accept it."""
    out = tmp_path / "run"
    assert run_cli("train", *TINY, "--set", f"optimizer={optimizer}",
                   "--set", f"{key}={value}", "--set", f"out_dir={out}") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} = " in err
    assert not out.exists()
    assert run_cli("train", *TINY, "--set", f"optimizer=path_{optimizer}",
                   "--set", f"{key}={value}", "--set", "steps=2",
                   "--set", f"out_dir={out}") == 0


@pytest.mark.parametrize("settings, key", [
    (["task=seqclass", "seq_len=999", "eval_size=3"], "seq_len"),
    (["task=charlm", "eval_size=5", "num_classes=9"], "num_classes"),
    (["task=addition", "image_size=3", "corpus=nope.txt"], "corpus"),
])
def test_train_rejects_keys_the_task_never_reads(tmp_path, capsys, settings, key):
    """A data key that the chosen task would ignore exits 1, names the key
    and writes nothing."""
    out = tmp_path / "run"
    argv = [arg for kv in settings for arg in ("--set", kv)]
    assert run_cli("train", *argv, "--set", "hidden=2", "--set", "steps=1",
                   "--set", f"out_dir={out}") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} = ")
    assert not out.exists()


@pytest.mark.parametrize("setting", ["lr=nan", "init_range=inf", "target_loss=nan"])
def test_train_rejects_non_finite_settings(tmp_path, capsys, setting):
    """A non-finite float setting exits 1, names the key and writes
    nothing, instead of a diverged run, a traceback or a target that never
    fires."""
    out = tmp_path / "run"
    assert run_cli("train", *TINY, "--set", setting, "--set", "steps=1",
                   "--set", f"out_dir={out}") == 1
    key = setting.split("=")[0]
    assert capsys.readouterr().err.startswith(f"error: {key} = ")
    assert not out.exists()


def test_train_divergence_exit_code(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("train", *TINY, "--set", "hidden=4", "--set", "steps=200",
                   "--set", "eval_interval=10", "--set", "optimizer=sgd",
                   "--set", "lr=10.0", "--set", "init_range=1.0",
                   "--set", f"out_dir={out}")
    assert code == 3
    assert (out / "status.txt").read_text().strip() == "diverged"
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert rows
    for line in rows:
        assert "nan" not in line and "inf" not in line


def test_train_non_finite_kappa_exits_diverged(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pathnorm, "preconditioner",
                        lambda layout, p, mode: np.full(layout.m, np.inf))
    out = tmp_path / "run"
    code = run_cli("train", "--set", "task=addition", "--set", "seq_len=6",
                   "--set", "hidden=3", "--set", "eval_size=16",
                   "--set", "optimizer=path_sgd", "--set", "steps=5",
                   "--set", f"out_dir={out}")
    assert code == 3
    assert (out / "status.txt").read_text() == "diverged\n"
    assert len((out / "metrics.csv").read_text().splitlines()) == 2
    assert config.load_checkpoint(out / "checkpoint.txt")[0] == 0
    assert "status: diverged (non-finite kappa) after 0 steps" in capsys.readouterr().out


def test_train_kappa_overflow_skips_kappa2_quietly(tmp_path, capsys, monkeypatch):
    """Large recurrent weights at T = 400 overflow the squared net while the
    tiny readout keeps the loss finite: the run ends on the non-finite
    kappa1, kappa2 never runs, and numpy prints no warning."""
    calls = []
    real = pathnorm.kappa2
    monkeypatch.setattr(pathnorm, "kappa2",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("train", "--set", "task=addition", "--set", "seq_len=400",
                       "--set", "hidden=8", "--set", "kappa_mode=k1_plus_k2",
                       "--set", "init_range=2", "--set", "init_ranges=out:1e-120",
                       "--set", "eval_size=16", "--set", "batch_size=4",
                       "--set", "steps=5", "--set", f"out_dir={out}")
    assert code == 3
    assert calls == []
    assert "status: diverged (non-finite kappa) after 0 steps" in capsys.readouterr().out


RESUME_BASE = [*TINY, "--set", "optimizer=path_adam", "--set", "lr=0.05",
               "--set", "eval_interval=10", "--set", "checkpoint_interval=20",
               "--set", "init_range=0.5"]


def test_train_resume_is_exact(tmp_path):
    base = RESUME_BASE
    full = tmp_path / "full"
    half = tmp_path / "half"
    assert run_cli("train", *base, "--set", "steps=40",
                   "--set", f"out_dir={full}") == 0
    assert run_cli("train", *base, "--set", "steps=20",
                   "--set", f"out_dir={half}") == 0
    resumed = tmp_path / "resumed"
    assert run_cli("train", *base, "--set", "steps=40",
                   "--set", f"out_dir={resumed}",
                   "--resume", str(half / "checkpoint.txt")) == 0
    assert ((resumed / "checkpoint.txt").read_bytes()
            == (full / "checkpoint.txt").read_bytes())
    full_rows = (full / "metrics.csv").read_text().splitlines()
    res_rows = (resumed / "metrics.csv").read_text().splitlines()
    assert res_rows[1:] == full_rows[3:]


def test_train_resume_in_place_keeps_earlier_rows(tmp_path):
    full = tmp_path / "full"
    run = tmp_path / "run"
    assert run_cli("train", *RESUME_BASE, "--set", "steps=40",
                   "--set", f"out_dir={full}") == 0
    assert run_cli("train", *RESUME_BASE, "--set", "steps=20",
                   "--set", f"out_dir={run}") == 0
    assert run_cli("train", "--config", str(run / "config.txt"), "--set", "steps=40",
                   "--resume", str(run / "checkpoint.txt")) == 0
    for name in ("metrics.csv", "checkpoint.txt", "checkpoint_20.txt", "checkpoint_40.txt"):
        assert (run / name).read_bytes() == (full / name).read_bytes(), name


def test_train_records_kappa_ratio(tmp_path):
    """record_kappa_ratio adds a kappa_ratio column whose step-0 value is
    pathnorm.kappa_ratio at the init parameters, and a run resumed into its
    own out_dir keeps the rows before the checkpoint."""
    base = [*RESUME_BASE, "--set", "record_kappa_ratio=true"]
    full = tmp_path / "full"
    run = tmp_path / "run"
    assert run_cli("train", *base, "--set", "steps=40", "--set", f"out_dir={full}") == 0
    assert run_cli("train", *base, "--set", "steps=20", "--set", f"out_dir={run}") == 0
    assert run_cli("train", "--config", str(run / "config.txt"), "--set", "steps=40",
                   "--resume", str(run / "checkpoint.txt")) == 0
    rows = (run / "metrics.csv").read_text().splitlines()
    assert rows == (full / "metrics.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "10", "20", "30", "40"]
    header = rows[0].split(",")
    assert "kappa_ratio" in header
    step0 = dict(zip(header, rows[1].split(",")))
    cfg = config.load_config(run / "config.txt")
    layout = cli.make_net(cfg, cli.make_task(cfg))
    assert step0["step"] == "0"
    assert float(step0["kappa_ratio"]) == pathnorm.kappa_ratio(layout,
                                                               cli.init_params(cfg, layout))


def test_train_resume_rejects_override(tmp_path, capsys):
    half = tmp_path / "half"
    assert run_cli("train", *RESUME_BASE, "--set", "steps=20",
                   "--set", f"out_dir={half}") == 0
    capsys.readouterr()
    config_before = (half / "config.txt").read_bytes()
    code = run_cli("train", "--config", str(half / "config.txt"), "--set", "lr=5",
                   "--set", "steps=40", "--resume", str(half / "checkpoint.txt"))
    assert code == 1
    assert "lr = 5.0 cannot take effect on resume" in capsys.readouterr().err
    assert (half / "config.txt").read_bytes() == config_before


def test_train_resume_rejects_past_budget(tmp_path, capsys):
    """A checkpoint past the step budget is rejected before anything in
    out_dir is written; one exactly at the budget still records its row."""
    run = tmp_path / "run"
    assert run_cli("train", *RESUME_BASE, "--set", "steps=40",
                   "--set", f"out_dir={run}") == 0
    capsys.readouterr()
    before = {f.name: f.read_bytes() for f in run.iterdir()}
    resume = ["--config", str(run / "config.txt"),
              "--resume", str(run / "checkpoint_40.txt")]
    assert run_cli("train", *resume, "--set", "steps=20") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("steps = 20 cannot take effect on resume: the checkpoint is "
            "already at step 40") in captured.err
    assert {f.name: f.read_bytes() for f in run.iterdir()} == before
    assert run_cli("train", *resume) == 0
    assert (run / "metrics.csv").read_bytes() == before["metrics.csv"]


def test_train_periodic_checkpoints(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", *TINY, "--set", "steps=40",
                   "--set", "eval_interval=10", "--set", "checkpoint_interval=20",
                   "--set", "lr=0.05", "--set", f"out_dir={out}") == 0
    assert (out / "checkpoint_20.txt").exists()
    assert (out / "checkpoint_40.txt").exists()


def test_train_resume_net_mismatch(tmp_path, capsys):
    half = tmp_path / "half"
    assert run_cli("train", "--set", "task=addition", "--set", "seq_len=4",
                   "--set", "hidden=2", "--set", "steps=2",
                   "--set", "eval_interval=1",
                   "--set", f"out_dir={half}") == 0
    code = run_cli("train", "--set", "task=addition", "--set", "seq_len=4",
                   "--set", "hidden=3", "--set", "steps=4",
                   "--set", "eval_interval=1",
                   "--set", f"out_dir={tmp_path / 'other'}",
                   "--resume", str(half / "checkpoint.txt"))
    assert code == 1
    assert "checkpoint is for net" in capsys.readouterr().err


def test_train_bad_override(tmp_path, capsys):
    assert run_cli("train", "--set", "nope=1",
                   "--set", f"out_dir={tmp_path}") == 1
    assert "error:" in capsys.readouterr().err


def test_train_set_without_equals(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--set", "steps", "--set", f"out_dir={out}") == 1
    assert "--set expects KEY=VALUE, got 'steps'" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_kappa_every(tmp_path, capsys):
    old = tmp_path / "config.txt"
    old.write_text("task = addition\nkappa_every = 1\n")
    assert run_cli("train", "--config", str(old), "--set", f"out_dir={tmp_path}") == 1
    assert "unknown config key 'kappa_every'" in capsys.readouterr().err


def test_env_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PATHSGD_OUT_DIR", str(tmp_path / "envrun"))
    assert run_cli("train", *TINY, "--set", "steps=5",
                   "--set", "eval_interval=5", "--set", "lr=0.1") == 0
    assert (tmp_path / "envrun" / "metrics.csv").exists()


def test_verify_quick(capsys):
    assert run_cli("verify", "--level", "quick") == 0
    out = capsys.readouterr().out
    assert "8/8 properties passed" in out


def test_verify_tamper_detected(monkeypatch, capsys):
    real = pathnorm.kappa1
    monkeypatch.setattr(pathnorm, "kappa1", lambda layout, p: 3.0 * real(layout, p))
    assert run_cli("verify", "--level", "quick") == 2
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_kappa_ratio_crosscheck(tmp_path, capsys):
    csv = tmp_path / "ratios.csv"
    code = run_cli("kappa-ratio", "--hidden", "3,5", "--lengths", "3,4",
                   "--input-dim", "2", "--output-dim", "2", "--seeds", "2",
                   "--crosscheck", "--csv", str(csv))
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "hidden,length,mean_ratio,sd_ratio"
    assert len(out) == 5
    assert csv.read_text().splitlines() == out
    for line in out[1:]:
        h, t, mean, sd = line.split(",")
        assert float(mean) >= 0.0


def test_kappa_ratio_bad_sizes(capsys):
    assert run_cli("kappa-ratio", "--hidden", "0", "--lengths", "3") == 1
    assert "error:" in capsys.readouterr().err
    assert run_cli("kappa-ratio", "--hidden", "2", "--lengths", "3", "--seeds", "0") == 1
    captured = capsys.readouterr()
    assert "seeds must be positive" in captured.err and not captured.out


@pytest.mark.parametrize("flag, value", [
    ("--init-range", "nan"), ("--init-range", "inf"), ("--init-range", "-inf"),
    ("--init-range", "-0.1"), ("--input-dim", "0"), ("--output-dim", "0"),
    ("--output-dim", "-1"),
])
def test_kappa_ratio_rejects_bad_flag_before_output(tmp_path, capsys, flag, value):
    """A non-finite or negative init range and a dimension below 1 exit 1,
    name the flag, and print nothing, not even the table header."""
    csv = tmp_path / "ratios.csv"
    assert run_cli("kappa-ratio", "--hidden", "2", "--lengths", "3", f"{flag}={value}",
                   "--csv", str(csv)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and flag in captured.err
    assert captured.out == ""
    assert not csv.exists()


def test_kappa_ratio_zero_init(capsys):
    assert run_cli("kappa-ratio", "--hidden", "2", "--lengths", "3",
                   "--init-range", "0") == 1
    captured = capsys.readouterr()
    assert "kappa1 is identically zero" in captured.err
    assert captured.out == ""
