import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pathsgd import cli, config, graph, optim, pathnorm

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


def test_train_timing_fills_only_wall_ms(tmp_path):
    """timing = true fills wall_ms with the elapsed time, positive and
    nondecreasing; every other column is that of a timing = false run."""
    rows = {}
    for timing in ("false", "true"):
        out = tmp_path / timing
        assert run_cli("train", *TINY, "--set", "steps=40", "--set", "eval_interval=10",
                       "--set", f"timing={timing}", "--set", f"out_dir={out}") == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].endswith(",wall_ms")
        rows[timing] = [line.rsplit(",", 1) for line in lines[1:]]
    assert len(rows["true"]) == 5
    assert [r[0] for r in rows["true"]] == [r[0] for r in rows["false"]]
    assert {r[1] for r in rows["false"]} == {"0.0"}
    wall = [float(r[1]) for r in rows["true"]]
    assert wall[0] > 0 and wall == sorted(wall)


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


def test_train_rejects_addition_seq_len_1_before_writing(tmp_path, capsys):
    """Addition marks one step in each half of the sequence, so seq_len = 1
    exits 1, names the key, prints nothing and writes nothing."""
    out = tmp_path / "run"
    assert run_cli("train", "--set", "task=addition", "--set", "seq_len=1",
                   "--set", f"out_dir={out}") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: seq_len = 1") and not captured.out
    assert not out.exists()


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


# A UTF-8 corpus beyond ASCII (Latin-1, CJK and astral characters), and a
# locale whose encoding is ASCII: Python's coercion of the C locale to
# UTF-8 and its UTF-8 mode are both off.
UTF8_CORPUS = "café naïve 日本 🙂 déjà vu.\n" * 40
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


@pytest.mark.parametrize("locale", [{}, ASCII_LOCALE], ids=["default", "ascii"])
def test_train_reads_the_corpus_as_utf8(tmp_path, locale):
    """A charlm run on a UTF-8 corpus, in a fresh process under the given
    locale, exits 0 with one input per distinct character, and writes the
    same metrics and checkpoint as the run in this process."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(UTF8_CORPUS, encoding="utf-8")
    settings = ["--set", "task=charlm", "--set", f"corpus={corpus}", "--set", "steps=2",
                "--set", "seq_len=5", "--set", "hidden=4"]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **locale, "PYTHONPATH": src}
    out = tmp_path / "run"
    proc = subprocess.run([sys.executable, "-m", "pathsgd.cli", "train", *settings,
                           "--set", f"out_dir={out}"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    checkpoint = (out / "checkpoint.txt").read_bytes()
    assert f" in={len(set(UTF8_CORPUS))} ".encode() in checkpoint.split(b"\n")[1]
    ref = tmp_path / "ref"
    assert run_cli("train", *settings, "--set", f"out_dir={ref}") == 0
    assert checkpoint == (ref / "checkpoint.txt").read_bytes()
    assert (out / "metrics.csv").read_bytes() == (ref / "metrics.csv").read_bytes()


@pytest.mark.parametrize("setting", ["lr=nan", "init_range=inf", "target_test_metric=nan"])
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
    code = run_cli("train", "--set", "task=addition", "--set", "seq_len=4",
                   "--set", "hidden=4", "--set", "eval_size=16", "--set", "steps=200",
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
    kappa1, kappa2 never runs, and numpy prints no warning.  The weights
    (init_range = 2, the out block at +-1e-120) start the run as a step-0
    checkpoint."""
    layout = graph.RnnLayout(2, (8,), 1, 400)
    p = optim.init_uniform(layout, optim.rng_for(0, optim.STREAM_INIT), 2.0)
    out_block = layout.slices["out"][0]
    p[out_block] = optim.init_uniform(layout, optim.rng_for(0, optim.STREAM_INIT),
                                      1e-120)[out_block]
    start = tmp_path / "start.txt"
    config.save_checkpoint(start, 0, layout, p, optim.OptimizerState(
        kind="path_sgd", eta=1e-3, kappa_mode="k1_plus_k2", eps=optim.DEFAULT_EPS))
    calls = []
    real = pathnorm.kappa2
    monkeypatch.setattr(pathnorm, "kappa2",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("train", "--set", "task=addition", "--set", "seq_len=400",
                       "--set", "hidden=8", "--set", "kappa_mode=k1_plus_k2",
                       "--set", "eval_size=16", "--set", "batch_size=4",
                       "--set", "steps=5", "--set", f"out_dir={out}",
                       "--resume", str(start))
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


def test_train_records_nan_kappa_ratio_when_kappa1_is_zero(tmp_path):
    """At init_range = 1e-200 every p^2 underflows to 0, so kappa1 is
    identically zero: the run completes and its kappa_ratio reads nan."""
    out = tmp_path / "run"
    assert run_cli("train", *TINY, "--set", "steps=2", "--set", "eval_interval=1",
                   "--set", "record_kappa_ratio=true", "--set", "init_range=1e-200",
                   "--set", f"out_dir={out}") == 0
    header, *rows = (out / "metrics.csv").read_text().splitlines()
    col = header.split(",").index("kappa_ratio")
    assert [row.split(",")[col] for row in rows] == ["nan"] * 3


def test_train_crash_keeps_rows_before_the_checkpoint(tmp_path, monkeypatch):
    """A run that dies between two periodic checkpoints and is resumed in
    place from the older one writes the metrics.csv and checkpoint of a
    run that never stopped: each periodic checkpoint is written after the
    metrics rows up to its step."""
    full = tmp_path / "full"
    run = tmp_path / "run"
    base = [*RESUME_BASE, "--set", "steps=40"]
    assert run_cli("train", *base, "--set", f"out_dir={full}") == 0

    class Crash(Exception):
        pass

    real = optim.apply_update
    calls = []

    def crash_at_step_25(*args, **kwargs):
        calls.append(None)
        if len(calls) == 26:  # the update of step 25
            raise Crash
        return real(*args, **kwargs)

    monkeypatch.setattr(optim, "apply_update", crash_at_step_25)
    with pytest.raises(Crash):
        run_cli("train", *base, "--set", f"out_dir={run}")
    monkeypatch.setattr(optim, "apply_update", real)
    assert not (run / "checkpoint.txt").exists()
    assert run_cli("train", "--config", str(run / "config.txt"),
                   "--resume", str(run / "checkpoint_20.txt")) == 0
    for name in ("metrics.csv", "checkpoint.txt", "checkpoint_40.txt"):
        assert (run / name).read_bytes() == (full / name).read_bytes(), name


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


def four_step_run(out, optimizer):
    """A 4-step run with checkpoints at steps 2 and 4; returns its files."""
    assert run_cli("train", "--set", "task=addition", "--set", "seq_len=5",
                   "--set", "hidden=3", "--set", f"optimizer={optimizer}",
                   "--set", "steps=4", "--set", "eval_interval=2",
                   "--set", "checkpoint_interval=2", "--set", f"out_dir={out}") == 0
    return {f.name: f.read_bytes() for f in out.iterdir()}


def test_train_resume_rejects_adam_checkpoint_without_moments(tmp_path, capsys):
    """An Adam checkpoint past t = 0 whose moment block is gone would resume
    with zero moments; it exits 1 and writes nothing."""
    run = tmp_path / "run"
    four_step_run(run, "path_adam")
    lines = (run / "checkpoint_2.txt").read_text().splitlines()
    assert "t 2" in lines
    at = lines.index("moments")
    m = int(next(line for line in lines if line.startswith("m "))[2:])
    del lines[at:at + 1 + 2 * m]
    (run / "checkpoint_2.txt").write_text("\n".join(lines) + "\n")
    before = {f.name: f.read_bytes() for f in run.iterdir()}
    capsys.readouterr()
    other = tmp_path / "other"
    assert run_cli("train", "--config", str(run / "config.txt"),
                   "--set", f"out_dir={other}",
                   "--resume", str(run / "checkpoint_2.txt")) == 1
    captured = capsys.readouterr()
    assert "kind path_adam at t 2 lacks its moment block" in captured.err
    assert not captured.out and not other.exists()
    assert {f.name: f.read_bytes() for f in run.iterdir()} == before


def test_train_resume_names_a_malformed_checkpoint(tmp_path, capsys):
    """A checkpoint with a parameter line dropped exits 1 with an error that
    names the file and the block, and prints nothing on stdout."""
    run = tmp_path / "run"
    four_step_run(run, "path_sgd")
    lines = (run / "checkpoint_2.txt").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("m ")) + 1
    short = tmp_path / "short.txt"
    short.write_text("\n".join(lines[:at] + lines[at + 1:]) + "\n")
    capsys.readouterr()
    other = tmp_path / "other"
    assert run_cli("train", "--config", str(run / "config.txt"),
                   "--set", f"out_dir={other}", "--resume", str(short)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {short}: bad parameter block")
    assert not captured.out and not other.exists()


def test_train_resume_in_place_rejects_other_columns(tmp_path, capsys):
    """Resuming into the run's own out_dir with other metrics columns would
    drop the earlier rows; it exits 1, names both headers and leaves every
    file in out_dir as it was."""
    run = tmp_path / "run"
    before = four_step_run(run, "path_sgd")
    capsys.readouterr()
    assert run_cli("train", "--config", str(run / "config.txt"),
                   "--set", "record_kappa_ratio=true",
                   "--resume", str(run / "checkpoint_2.txt")) == 1
    captured = capsys.readouterr()
    assert ("has columns [step,train_loss,train_metric,test_metric,wall_ms]; this "
            "run writes [step,train_loss,train_metric,test_metric,kappa_ratio,"
            "wall_ms]") in captured.err
    assert not captured.out
    assert {f.name: f.read_bytes() for f in run.iterdir()} == before


def test_train_resume_in_place_names_a_bad_metrics_row(tmp_path, capsys):
    """A metrics.csv row whose step is not an integer exits 1 with an error
    that names the file and the line, and leaves out_dir as it was."""
    run = tmp_path / "run"
    four_step_run(run, "path_sgd")
    metrics = run / "metrics.csv"
    lines = metrics.read_text().splitlines()
    lines[2] = "x" + lines[2][1:]
    metrics.write_text("\n".join(lines) + "\n")
    before = {f.name: f.read_bytes() for f in run.iterdir()}
    capsys.readouterr()
    assert run_cli("train", "--config", str(run / "config.txt"),
                   "--resume", str(run / "checkpoint_2.txt")) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {metrics}: line 3: step 'x' is not an integer\n"
    assert not captured.out
    assert {f.name: f.read_bytes() for f in run.iterdir()} == before


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
    """A config.txt that lists a removed key is rejected by the key's name:
    kappa_every, and target_loss, which config.txt listed as
    target_loss = none."""
    for line in ("kappa_every = 1", "target_loss = none"):
        old = tmp_path / "config.txt"
        old.write_text(f"task = addition\n{line}\n")
        assert run_cli("train", "--config", str(old), "--set", f"out_dir={tmp_path}") == 1
        key = line.split(" ")[0]
        assert f"unknown config key '{key}'" in capsys.readouterr().err


def test_train_rejects_a_set_key_given_twice(tmp_path, capsys):
    """Two --set values for one key are rejected with both, before out_dir
    is made; a --set over the config file's value stays legal."""
    out = tmp_path / "run"
    assert run_cli("train", *TINY, "--set", "steps=2", "--set", "steps=0",
                   "--set", f"out_dir={out}") == 1
    assert ("--set gives 'steps' twice: steps=2 and steps=0"
            in capsys.readouterr().err)
    assert not out.exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 5\n")
    assert run_cli("train", "--config", str(cfg), *TINY, "--set", "steps=0",
                   "--set", f"out_dir={out}") == 0
    assert (out / "status.txt").exists()


def test_train_rejects_init_ranges(tmp_path, capsys):
    """Every config.txt of earlier versions lists init_ranges, if only as
    `init_ranges = `; such a file is rejected by name before out_dir exists."""
    lines = config.config_text(config.RunConfig()).splitlines()
    lines.insert(lines.index("init_range = 0.1") + 1, "init_ranges = ")
    old = tmp_path / "config.txt"
    old.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(old), "--set", f"out_dir={out}") == 1
    captured = capsys.readouterr()
    assert "unknown config key 'init_ranges'" in captured.err and not captured.out
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("seed", "-1"), ("data_seed", "-3")])
def test_train_rejects_negative_seed_by_name(tmp_path, capsys, key, value):
    out = tmp_path / "run"
    assert run_cli("train", *TINY, "--set", f"{key}={value}",
                   "--set", f"out_dir={out}") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key} = {value}") and not captured.out
    assert not out.exists()


def test_resume_with_negative_seed_writes_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    base = ["train", *TINY, "--set", "steps=4", "--set", "eval_interval=2",
            "--set", "checkpoint_interval=2", "--set", f"out_dir={out}"]
    assert run_cli(*base) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    capsys.readouterr()
    assert run_cli(*base, "--set", "seed=-1",
                   "--resume", str(out / "checkpoint_2.txt")) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: seed = -1") and not captured.out
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


def test_env_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PATHSGD_OUT_DIR", str(tmp_path / "envrun"))
    assert run_cli("train", *TINY, "--set", "steps=5",
                   "--set", "eval_interval=5", "--set", "lr=0.1") == 0
    assert (tmp_path / "envrun" / "metrics.csv").exists()


def test_verify_quick(capsys):
    assert run_cli("verify", "--level", "quick") == 0
    out = capsys.readouterr().out
    assert "11/11 properties passed" in out


def test_verify_rejects_negative_seed_by_name(capsys):
    assert run_cli("verify", "--seed", "-1") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0, got -1\n" and not captured.out


def test_verify_tamper_detected(monkeypatch, capsys):
    real = pathnorm.kappa1
    monkeypatch.setattr(pathnorm, "kappa1", lambda layout, p: 3.0 * real(layout, p))
    assert run_cli("verify", "--level", "quick") == 2
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_kappa_ratio_table(tmp_path, capsys):
    csv = tmp_path / "ratios.csv"
    code = run_cli("kappa-ratio", "--hidden", "3,5", "--lengths", "3,4",
                   "--input-dim", "2", "--output-dim", "2", "--seeds", "2",
                   "--csv", str(csv))
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "hidden,length,mean_ratio,sd_ratio"
    assert len(out) == 5
    assert csv.read_text().splitlines() == out
    for line in out[1:]:
        h, t, mean, sd = line.split(",")
        assert float(mean) >= 0.0


def test_kappa_ratio_crosscheck_is_a_usage_error(capsys):
    """The brute-force crosscheck flag is gone (verify's kappa2-closed-form
    checks the same); passing it exits 1 before any output."""
    assert run_cli("kappa-ratio", "--hidden", "2", "--lengths", "3", "--crosscheck") == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments: --crosscheck" in captured.err and not captured.out


def test_kappa_ratio_bad_sizes(capsys):
    assert run_cli("kappa-ratio", "--hidden", "0", "--lengths", "3") == 1
    assert "error:" in capsys.readouterr().err
    assert run_cli("kappa-ratio", "--hidden", "2", "--lengths", "3", "--seeds", "0") == 1
    captured = capsys.readouterr()
    assert "seeds must be positive" in captured.err and not captured.out


@pytest.mark.parametrize("flag, value", [
    ("--hidden", "20,,100"), ("--hidden", "x"), ("--lengths", "10,"),
])
def test_kappa_ratio_names_a_bad_comma_list(capsys, flag, value):
    """An entry of a comma list that is no integer exits 1, names the flag
    and prints nothing on stdout."""
    assert run_cli("kappa-ratio", f"{flag}={value}") == 1
    captured = capsys.readouterr()
    assert f"argument {flag}: invalid" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, value", [
    ("--init-range", "nan"), ("--init-range", "inf"), ("--init-range", "-inf"),
    ("--init-range", "-0.1"), ("--input-dim", "0"), ("--output-dim", "0"),
    ("--output-dim", "-1"), ("--seed", "-1"),
])
def test_kappa_ratio_rejects_bad_flag_before_output(tmp_path, capsys, flag, value):
    """A non-finite or negative init range, a dimension below 1 and a
    negative seed exit 1, name the flag, and print nothing, not even the
    table header."""
    csv = tmp_path / "ratios.csv"
    assert run_cli("kappa-ratio", "--hidden", "2", "--lengths", "3", f"{flag}={value}",
                   "--csv", str(csv)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and flag in captured.err
    assert captured.out == ""
    assert not csv.exists()


def test_kappa_ratio_zero_init(capsys):
    """An init range of 0, or one whose square underflows to 0, would make
    kappa1 identically zero."""
    for init_range in ("0", "1e-200"):
        assert run_cli("kappa-ratio", "--hidden", "2", "--lengths", "3",
                       "--init-range", init_range) == 1
        captured = capsys.readouterr()
        assert "kappa1 is identically zero" in captured.err
        assert captured.out == ""


def test_kappa_ratio_rejects_a_non_finite_ratio(capsys):
    """At init range 1e100 kappa1 overflows: the command exits 1 naming the
    flag and the cell.  At 1e30 kappa1 is finite but past the range where
    squaring its entries would overflow, and the ratio prints."""
    cell = ["--hidden", "2", "--lengths", "3", "--input-dim", "2", "--output-dim", "2",
            "--seeds", "1"]
    assert run_cli("kappa-ratio", *cell, "--init-range", "1e100") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --init-range") and "hidden 2, length 3" in err
    assert run_cli("kappa-ratio", *cell, "--init-range", "1e30") == 0
    assert capsys.readouterr().out.splitlines()[1] == "2,3,0.765101,0"


def test_kappa_ratio_rejects_an_underflowed_ratio(capsys):
    """At init range 1e-100 kappa2 underflows to 0 at length 3, where it
    cannot be 0: the command exits 1 naming the flag and the cell.  At
    1e-40 the ratio, near 2.4e-161, prints."""
    cell = ["--hidden", "2", "--lengths", "3", "--input-dim", "2", "--output-dim", "2",
            "--seeds", "1"]
    assert run_cli("kappa-ratio", *cell, "--init-range", "1e-100") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --init-range") and "hidden 2, length 3" in err
    assert run_cli("kappa-ratio", *cell, "--init-range", "1e-40") == 0
    ratio = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
    assert np.isfinite(ratio) and ratio > 0.0
