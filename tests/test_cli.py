import numpy as np
import pytest

from pathsgd import cli


def run_cli(*argv):
    return cli.main(list(argv))


def test_gen_data_addition_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    assert run_cli("gen-data", "--task", "addition", "--out", str(a),
                   "--seed", "3", "-n", "32", "--seq-len", "10") == 0
    assert run_cli("gen-data", "--task", "addition", "--out", str(b),
                   "--seed", "3", "-n", "32", "--seq-len", "10") == 0
    assert run_cli("gen-data", "--task", "addition", "--out", str(c),
                   "--seed", "4", "-n", "32", "--seq-len", "10") == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_data_bad_length(tmp_path, capsys):
    code = run_cli("gen-data", "--task", "addition",
                   "--out", str(tmp_path / "x.jsonl"), "--seq-len", "1")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_gen_data_corpus(tmp_path):
    out = tmp_path / "corpus.txt"
    assert run_cli("gen-data", "--task", "corpus", "--out", str(out),
                   "--chars", "5000", "--seed", "7") == 0
    assert len(out.read_text()) == 5000


def test_gen_data_seqclass(tmp_path):
    out = tmp_path / "glyphs.jsonl"
    assert run_cli("gen-data", "--task", "seqclass", "--out", str(out),
                   "-n", "20", "--image-size", "3", "--num-classes", "2") == 0
    assert len(out.read_text().splitlines()) == 20


def test_train_linreg_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("train", "--set", "task=linreg", "--set", "steps=60",
                   "--set", "eval_interval=20", "--set", "optimizer=path_sgd",
                   "--set", "lr=0.2", "--set", "init_range=0.5",
                   "--set", f"out_dir={out}")
    assert code == 0
    for name in ("config.txt", "metrics.csv", "checkpoint.txt", "status.txt"):
        assert (out / name).exists(), name
    printed = capsys.readouterr().out
    lines = printed.splitlines()
    assert lines[0].startswith("step,train_loss")
    csv = (out / "metrics.csv").read_text().splitlines()
    assert csv[0] == lines[0]
    assert csv[1] == lines[1]
    assert (out / "status.txt").read_text().strip() in ("budget_exhausted", "converged")


def test_train_divergence_exit_code(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("train", "--set", "task=linreg", "--set", "steps=200",
                   "--set", "optimizer=sgd", "--set", "lr=10.0",
                   "--set", "init_range=1.0", "--set", f"out_dir={out}")
    assert code == 3
    assert (out / "status.txt").read_text().strip() == "diverged"
    for line in (out / "metrics.csv").read_text().splitlines()[1:]:
        assert "nan" not in line and "inf" not in line


def test_train_non_finite_kappa_exits_diverged(tmp_path, capsys, monkeypatch):
    from pathsgd import config, pathnorm
    monkeypatch.setattr(pathnorm, "preconditioner",
                        lambda net, p, mode: np.full(net.num_params, np.inf))
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


def test_train_resume_is_exact(tmp_path):
    base = ["--set", "task=linreg", "--set", "optimizer=path_adam",
            "--set", "lr=0.05", "--set", "eval_interval=10",
            "--set", "checkpoint_interval=20", "--set", "init_range=0.5"]
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


def test_train_periodic_checkpoints(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", "--set", "task=linreg", "--set", "steps=40",
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


def test_env_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PATHSGD_OUT_DIR", str(tmp_path / "envrun"))
    assert run_cli("train", "--set", "task=linreg", "--set", "steps=5",
                   "--set", "eval_interval=5", "--set", "lr=0.1") == 0
    assert (tmp_path / "envrun" / "metrics.csv").exists()


def test_verify_quick(capsys):
    assert run_cli("verify", "--level", "quick") == 0
    out = capsys.readouterr().out
    assert "8/8 properties passed" in out


def test_verify_tamper_detected(capsys):
    assert run_cli("verify", "--level", "quick", "--tamper-kappa", "3.0") == 2
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
