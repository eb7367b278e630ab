import re

import numpy as np
import pytest

from pathsgd import config as cfgmod
from pathsgd.config import (
    ConfigError,
    RunConfig,
    config_text,
    load_checkpoint,
    load_config,
    metrics_header,
    metrics_row,
    parse_kv_text,
    save_checkpoint,
    write_metrics,
)
from pathsgd.graph import RnnLayout
from pathsgd.optim import OptimizerState


def test_defaults_validate():
    cfg = load_config()
    assert cfg == RunConfig()
    assert cfg.task == "addition"
    assert cfg.hidden == (32,)


def test_parse_kv_text():
    text = "\n".join([
        "# comment",
        "task = charlm   # trailing comment",
        "",
        "hidden = 64,32",
        "lr=0.5",
    ])
    kv = parse_kv_text(text)
    assert kv == {"task": "charlm", "hidden": "64,32", "lr": "0.5"}
    with pytest.raises(ConfigError):
        parse_kv_text("just words")


def test_parse_kv_text_rejects_a_key_given_twice():
    """Only one of two lines for a key could take effect, so the file is
    rejected with both line numbers; a file value that --set overrides
    stays legal (test_precedence_file_env_override)."""
    with pytest.raises(ConfigError, match=r"^line 3: 'lr' is already set on line 1$"):
        parse_kv_text("lr = 1e-2\nsteps = 5\n lr=1e-3  # again\n")


def test_load_config_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("task = seqclass\nlr = 0.5\nhidden = 8 4\n"
                 "target_test_metric = none\nbias = true\ntiming = off\n")
    cfg = load_config(f)
    assert cfg.task == "seqclass"
    assert cfg.lr == 0.5
    assert cfg.hidden == (8, 4)
    assert cfg.target_test_metric is None
    assert cfg.bias is True
    assert cfg.timing is False


def test_precedence_file_env_override(tmp_path, monkeypatch):
    f = tmp_path / "run.cfg"
    f.write_text("lr = 0.5\nout_dir = from_file\n")
    monkeypatch.setenv(cfgmod.OUT_DIR_ENV, "from_env")
    cfg = load_config(f)
    assert cfg.out_dir == "from_env"
    cfg = load_config(f, {"lr": "0.25", "out_dir": "from_flag"})
    assert cfg.lr == 0.25
    assert cfg.out_dir == "from_flag"


def test_bad_keys_and_values(tmp_path):
    with pytest.raises(ConfigError):
        load_config(None, {"nope": "1"})
    with pytest.raises(ConfigError):
        load_config(None, {"lr": "fast"})
    with pytest.raises(ConfigError):
        load_config(None, {"bias": "maybe"})
    with pytest.raises(ConfigError):
        load_config(None, {"hidden": "a,b"})


def test_validate_rejections():
    cases = [
        {"task": "sorting"},
        {"optimizer": "adagrad"},
        {"kappa_mode": "k9"},
        {"init": "orthogonal"},
        {"hidden": ""},
        {"seq_len": "0"},
        {"steps": "-5"},
        {"lr": "0"},
        {"kappa_every": "0"},
        {"init_ranges": "rec1:0.3"},
        {"checkpoint_interval": "-1"},
        {"checkpoint_interval": "150", "eval_interval": "100"},
        {"task": "linreg"},
        {"eval_size": "0"},
        {"data_size": "0"},
        {"image_size": "0"},
        {"num_classes": "0"},
        {"test_frac": "0"},
        {"test_frac": "1"},
        {"test_frac": "-0.25"},
        # kappa keys that a plain optimizer would ignore
        {"optimizer": "sgd", "kappa_mode": "k1_plus_k2"},
        {"optimizer": "adam", "kappa_mode": "k1_plus_k2"},
        {"optimizer": "sgd", "epsilon": "0.5"},
        {"optimizer": "adam", "epsilon": "1e-6"},
        # data keys that the chosen task never reads
        {"task": "addition", "corpus": "nope.txt"},
        {"task": "addition", "num_classes": "9"},
        {"task": "addition", "image_size": "3"},
        {"task": "addition", "data_size": "64"},
        {"task": "addition", "test_frac": "0.5"},
        {"task": "seqclass", "seq_len": "999"},
        {"task": "seqclass", "eval_size": "3"},
        {"task": "seqclass", "corpus": "nope.txt"},
        {"task": "charlm", "eval_size": "5"},
        {"task": "charlm", "num_classes": "9"},
        {"task": "charlm", "image_size": "3"},
        {"task": "charlm", "data_size": "64"},
        {"task": "charlm", "test_frac": "0.5"},
        {"task": "charlm", "data_seed": "2"},
    ]
    for overrides in cases:
        with pytest.raises(ConfigError):
            load_config(None, overrides)
    # Non-finite floats are named: NaN passes every <= 0 check, inf or 1e400
    # diverges or overflows the init, and a NaN target never fires.
    for key, raw in [("lr", "nan"), ("lr", "inf"), ("lr", "-inf"), ("lr", "1e400"),
                     ("epsilon", "nan"), ("epsilon", "inf"),
                     ("init_range", "nan"), ("init_range", "inf"),
                     ("target_test_metric", "nan"), ("target_test_metric", "inf"),
                     ("target_test_metric", "-inf"),
                     # a negative seed has no SeedSequence
                     ("seed", "-1"), ("data_seed", "-3")]:
        with pytest.raises(ConfigError, match=f"^{key} = "):
            load_config(None, {key: raw})


@pytest.mark.parametrize("raw", ["-1", "-1e-9"])
def test_negative_target_test_metric_is_rejected(raw):
    """mse, error_rate and bpc are all >= 0, so a negative target could
    never be met and the run would spend every step; 0 is reachable."""
    with pytest.raises(ConfigError, match=f"^target_test_metric = {float(raw)} must be >= 0"):
        load_config(None, {"target_test_metric": raw})
    assert load_config(None, {"target_test_metric": "0"}).target_test_metric == 0.0


@pytest.mark.parametrize("task", cfgmod.TASKS)
def test_each_task_takes_the_data_keys_it_reads(task):
    """Defaults pass for every task, and so does a non-default value of
    each data key the task reads; any other data key is named when set."""
    load_config(None, {"task": task})
    values = {"seq_len": "7", "corpus": "x.txt", "num_classes": "3", "image_size": "5",
              "data_size": "64", "test_frac": "0.5", "eval_size": "9", "data_seed": "4"}
    for key in cfgmod.DATA_KEYS:
        if key in cfgmod.TASK_KEYS[task]:
            load_config(None, {"task": task, key: values[key]})
        else:
            with pytest.raises(ConfigError, match=f"^{key} = .*task = {task}"):
                load_config(None, {"task": task, key: values[key]})


def test_config_text_roundtrip(tmp_path):
    cfg = load_config(None, {"task": "charlm", "hidden": "16,8", "bias": "true",
                             "target_test_metric": "1.5"})
    f = tmp_path / "echo.cfg"
    f.write_text(config_text(cfg))
    assert load_config(f) == cfg


def test_checkpoint_roundtrip_exact(tmp_path, rng):
    layout = RnnLayout(2, (3,), 1, 4)
    p = rng.uniform(-1, 1, layout.m) * np.logspace(-12, 3, layout.m)
    opt = OptimizerState(kind="path_adam", eta=0.01, t=17,
                         m1=rng.uniform(-1, 1, layout.m),
                         m2=rng.uniform(0, 1, layout.m))
    path = tmp_path / "ck.txt"
    save_checkpoint(path, 1200, layout, p, opt)
    step, q, opt2 = load_checkpoint(path, layout)
    assert step == 1200
    assert np.array_equal(q, p)
    assert opt2.kind == "path_adam" and opt2.t == 17
    assert np.array_equal(opt2.m1, opt.m1)
    assert np.array_equal(opt2.m2, opt.m2)


def test_checkpoint_number_text(tmp_path):
    """Parameters and moments are written as %.17g text, pinned byte for
    byte on values whose shortest repr differs, on -0 and on subnormals."""
    layout = RnnLayout(1, (1,), 1, 2)  # m = 4
    awkward = [0.1, 1 / 3, 1e-300, -0.0, 5e-324]
    text = ["0.10000000000000001", "0.33333333333333331", "1e-300", "-0",
            "4.9406564584124654e-324"]
    p = np.array(awkward[:4])
    opt = OptimizerState(kind="path_adam", t=1, m1=np.array(awkward[1:]),
                         m2=np.array(awkward[:2] + awkward[3:]))
    save_checkpoint(tmp_path / "ck.txt", 3, layout, p, opt)
    lines = (tmp_path / "ck.txt").read_text().splitlines()
    at = lines.index("m 4") + 1
    assert lines[at:] == (text[:4] + ["moments"] + text[1:] + text[:2] + text[3:]
                          + ["end"])
    _, q, opt2 = load_checkpoint(tmp_path / "ck.txt", layout)
    assert q.tobytes() == p.tobytes() and opt2.m1.tobytes() == opt.m1.tobytes()


def test_fmt_array_blocks_are_the_per_entry_text(rng):
    """_fmt_array yields at most FMT_BLOCK lines per string, and its lines
    are _fmt of each entry, across block boundaries and on values whose
    text is awkward."""
    n = 2 * cfgmod.FMT_BLOCK + 5
    a = rng.standard_normal(n) * np.logspace(-300, 300, n)
    a[[0, cfgmod.FMT_BLOCK - 1, cfgmod.FMT_BLOCK, n - 1]] = [-0.0, np.inf, np.nan, 5e-324]
    blocks = list(cfgmod._fmt_array(a))
    assert [b.count("\n") + 1 for b in blocks] == [cfgmod.FMT_BLOCK] * 2 + [5]
    assert "\n".join(blocks).split("\n") == [cfgmod._fmt(x) for x in a]
    assert list(cfgmod._fmt_array(np.zeros(0))) == []


def test_checkpoint_without_moments(tmp_path):
    layout = RnnLayout(1, (2,), 1, 2)
    p = np.linspace(-1, 1, layout.m)
    save_checkpoint(tmp_path / "ck.txt", 5, layout, p, OptimizerState(kind="path_sgd"))
    step, q, opt = load_checkpoint(tmp_path / "ck.txt")
    assert step == 5 and opt.kind == "path_sgd"
    assert opt.m1 is None and opt.m2 is None
    assert np.array_equal(q, p)


def test_checkpoint_error_cases(tmp_path):
    layout = RnnLayout(1, (2,), 1, 2)
    other = RnnLayout(1, (3,), 1, 2)
    path = tmp_path / "ck.txt"
    save_checkpoint(path, 5, layout, np.zeros(layout.m), OptimizerState())

    with pytest.raises(ConfigError):
        load_checkpoint(path, other)

    bad = tmp_path / "bad.txt"
    bad.write_text("hello\n")
    with pytest.raises(ConfigError):
        load_checkpoint(bad)

    lines = path.read_text().splitlines()
    trunc = tmp_path / "trunc.txt"
    trunc.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ConfigError):
        load_checkpoint(trunc)


@pytest.mark.parametrize("old, new, error", [
    ("0.5", None, "bad parameter block (could not convert string to float: 'end')"),
    ("m 8", "m 9", "bad parameter block (could not convert string to float: 'end')"),
    ("0.5", "0.5x", "bad parameter block (could not convert string to float: '0.5x')"),
    ("step 5", "step five", "bad header field step 'five', not an integer >= 0"),
    ("step 5", "step -6", "bad header field step '-6', not an integer >= 0"),
], ids=["dropped-parameter-line", "m-past-the-entries", "garbled-number", "step-five",
        "negative-step"])
def test_malformed_checkpoint_names_the_file_and_field(tmp_path, old, new, error):
    """A dropped parameter line, an m past the entries, a garbled number and
    a step that is not an integer >= 0 each raise ConfigError naming the
    file and the block or header key."""
    layout = RnnLayout(1, (2,), 1, 2)
    path = tmp_path / "ck.txt"
    save_checkpoint(path, 5, layout, np.full(layout.m, 0.5), OptimizerState())
    lines = path.read_text().splitlines()
    assert layout.m == 8 and lines.count("0.5") == 8
    at = lines.index(old)
    lines[at:at + 1] = [] if new is None else [new]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {error}")):
        load_checkpoint(path, layout)


@pytest.mark.parametrize("kind, t, moments, error", [
    ("path_adam", 2, False, "kind path_adam at t 2 lacks its moment block"),
    ("adam", 1, False, "kind adam at t 1 lacks its moment block"),
    ("adam", 0, True, "kind adam at t 0 has a moment block"),
    ("sgd", 0, True, "kind sgd at t 0 has a moment block"),
    ("path_sgd", 3, False, "kind path_sgd at t 3; t must be 0"),
    ("adam", -1, False, "kind adam at t -1; t must be >= 0"),
])
def test_checkpoint_moments_match_kind_and_t(tmp_path, kind, t, moments, error):
    """Adam kinds carry moments exactly when t >= 1, and the sgd kinds stay
    at t = 0 with none; any other pairing is rejected by kind and t, where
    loading it would restart or invent the Adam moments."""
    layout = RnnLayout(1, (2,), 1, 2)
    m1 = m2 = np.full(layout.m, 0.5) if moments else None
    path = tmp_path / "ck.txt"
    save_checkpoint(path, 4, layout, np.zeros(layout.m),
                    OptimizerState(kind=kind, t=t, m1=m1, m2=m2))
    with pytest.raises(ConfigError, match=re.escape(error)):
        load_checkpoint(path, layout)


def test_checkpoint_rejects_other_adam_settings(tmp_path):
    """The Adam header lines are written as they always were, and a
    checkpoint whose value differs from the fixed one is rejected by key."""
    layout = RnnLayout(1, (2,), 1, 2)
    path = tmp_path / "ck.txt"
    save_checkpoint(path, 5, layout, np.zeros(layout.m), OptimizerState(kind="adam"))
    lines = path.read_text().splitlines()
    assert lines[7:10] == ["beta1 0.90000000000000002", "beta2 0.999", "eps_adam 1e-08"]
    for at, key in ((7, "beta1"), (8, "beta2"), (9, "eps_adam")):
        bad = tmp_path / f"{key}.txt"
        bad.write_text("\n".join(lines[:at] + [f"{key} 0.5"] + lines[at + 1:]) + "\n")
        with pytest.raises(ConfigError, match=rf"header \({key} 0.5, fixed at"):
            load_checkpoint(bad, layout)
    missing = tmp_path / "missing.txt"
    missing.write_text("\n".join(lines[:9] + lines[10:]) + "\n")
    with pytest.raises(ConfigError, match=r"header \('eps_adam'\)"):
        load_checkpoint(missing, layout)


def test_checkpoint_header_names_the_rnn(tmp_path):
    """The header line that resume checks; checkpoints of earlier versions
    carry the same one."""
    layout = RnnLayout(2, (4, 3), 1, 6, True)
    save_checkpoint(tmp_path / "ck.txt", 0, layout, np.zeros(layout.m), OptimizerState())
    lines = (tmp_path / "ck.txt").read_text().splitlines()
    assert lines[1] == "net rnn in=2 hidden=4,3 out=1 T=6 bias=1"


def test_failed_checkpoint_write_keeps_previous(tmp_path, monkeypatch):
    layout = RnnLayout(2, (3,), 1, 4)
    path = tmp_path / "checkpoint.txt"
    p = np.linspace(-1, 1, layout.m)
    save_checkpoint(path, 7, layout, p, OptimizerState(kind="path_sgd"))
    before = path.read_bytes()

    calls = []
    real_fmt_array = cfgmod._fmt_array

    def fail_midway(a):
        for text in real_fmt_array(a):
            calls.append(1)
            if len(calls) > 2:
                raise OSError("disk full")
            yield text

    # blocks of 4 values, so the write fails inside the parameter array
    monkeypatch.setattr(cfgmod, "FMT_BLOCK", 4)
    monkeypatch.setattr(cfgmod, "_fmt_array", fail_midway)
    with pytest.raises(OSError):
        save_checkpoint(path, 8, layout, -p, OptimizerState(kind="path_sgd"))
    assert len(calls) > 2
    assert path.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["checkpoint.txt"]
    step, q, _ = load_checkpoint(path, layout)
    assert step == 7 and np.array_equal(q, p)


def test_metrics_rows_before(tmp_path):
    rows = [{"step": s, "train_loss": 0.5, "train_metric": 0.5,
             "test_metric": 0.25, "wall_ms": 0.0} for s in (0, 10, 20)]
    path = tmp_path / "metrics.csv"
    assert cfgmod.metrics_rows_before(path, 10, False) == []
    write_metrics(path, rows, False)
    kept = cfgmod.metrics_rows_before(path, 20, False)
    assert kept == [metrics_row(r, False) for r in rows[:2]]
    with pytest.raises(ConfigError, match=re.escape(
            "has columns [step,train_loss,train_metric,test_metric,wall_ms]; this run "
            "writes [step,train_loss,train_metric,test_metric,kappa_ratio,wall_ms]")):
        cfgmod.metrics_rows_before(path, 20, True)
    path.write_text("")
    assert cfgmod.metrics_rows_before(path, 20, True) == []


def test_metrics_format(tmp_path):
    assert metrics_header(False) == "step,train_loss,train_metric,test_metric,wall_ms"
    assert metrics_header(True) == ("step,train_loss,train_metric,test_metric,"
                                    "kappa_ratio,wall_ms")
    row = {"step": 3, "train_loss": 0.1, "train_metric": 0.1,
           "test_metric": 1 / 3, "wall_ms": 0.0}
    line = metrics_row(row, False)
    assert line.split(",")[0] == "3"
    # repr round-trips doubles exactly
    assert float(line.split(",")[3]) == 1 / 3

    out = tmp_path / "metrics.csv"
    write_metrics(out, [row], False)
    text = out.read_text()
    assert text.splitlines()[0] == metrics_header(False)
    assert text.splitlines()[1] == line
