"""Golden outputs: short runs of the three benchmark workloads must keep
the bits recorded in tests/golden/.

Each golden file holds one `pathsgd train` command: a workload of
perfbench/run.py with a shorter step budget.  It stores every metrics.csv
value as repr, the SHA-256 of metrics.csv and of the final checkpoint,
GOLDEN_COORDS fixed coordinates of the checkpoint's parameters, and the
fingerprint of the environment that wrote it.  The test checks one of two
tiers:

* exact, where the fingerprint matches the recorded one: both SHA-256
  digests must match;
* close, everywhere else: the same steps and columns, and every stored
  value within CLOSE_RTOL of the recorded one, relative to the largest
  magnitude of its column or of the coordinates.

The fingerprint is the NumPy version, the BLAS library's name and version,
the CPU features NumPy found and the BLAS thread count.  The files were
written with NumPy 2.4.6 and its bundled OpenBLAS 0.3.31 on one BLAS
thread.  Run there on two BLAS threads, add-T40-k1 and charlm-H128-adam
kept their bits, and add-T750-k12 moved 44 of its 10,300 parameters by
at most 1.4e-16 of the largest, none of them a stored coordinate.  A
regrouping of the gradient sums once moved that checkpoint by 8.7e-15
relative, so CLOSE_RTOL is 1e-12.  Other wheels, such as the older NumPy
that CI installs on Python 3.10, are unverified against it.

Rewriting a golden file is a change to a check: say which bits moved and
why.  To rewrite them all, with src on the path and one BLAS thread:

    OPENBLAS_NUM_THREADS=1 python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import runpy
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pathsgd import cli, config

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# Each workload's step budget here: about 1.5 s of training in all.
GOLDEN_STEPS = {"add-T40-k1": 200, "charlm-H128-adam": 20, "add-T750-k12": 3}
GOLDEN_COORDS = 256
CLOSE_RTOL = 1e-12


def blas_threads() -> int | None:
    """The thread count of NumPy's bundled OpenBLAS, or None when it
    cannot be read."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), name, None)
            if fn is not None:
                return int(fn())
    return None


def fingerprint() -> dict:
    """Empty, so matching no golden file, where NumPy (before 2.0) does not
    report these in this form."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (ImportError, TypeError):
        return {}
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_features": ",".join(sorted(k for k, on in __cpu_features__.items() if on)),
        "blas_threads": blas_threads(),
    }


def run(args: list[str], out: Path) -> dict:
    """Run `pathsgd train` in this process; what a golden file stores."""
    assert cli.main(["train", *args, "--set", f"out_dir={out}"]) == 0
    metrics = (out / "metrics.csv").read_bytes()
    checkpoint = (out / "checkpoint.txt").read_bytes()
    _, p, _ = config.load_checkpoint(out / "checkpoint.txt")
    idx = np.unique(np.linspace(0, p.size - 1, GOLDEN_COORDS).round().astype(int))
    lines = metrics.decode().splitlines()
    return {
        "args": args,
        "metrics_sha256": hashlib.sha256(metrics).hexdigest(),
        "checkpoint_sha256": hashlib.sha256(checkpoint).hexdigest(),
        "header": lines[0].split(","),
        "rows": [[repr(float(x)) for x in line.split(",")] for line in lines[1:]],
        "coords": {"index": idx.tolist(), "value": [repr(float(x)) for x in p[idx]]},
    }


def close_gap(got: dict, want: dict) -> float:
    """The largest gap between stored values, relative to the largest
    magnitude of the column or of the coordinates."""
    gaps = []
    for a, b in ((np.array(got["rows"], float).T, np.array(want["rows"], float).T),
                 (np.array([got["coords"]["value"]], float),
                  np.array([want["coords"]["value"]], float))):
        scale = np.maximum(np.max(np.abs(b), axis=1, keepdims=True), np.finfo(float).tiny)
        gaps.append(float(np.max(np.abs(a - b) / scale)))
    return max(gaps)


@pytest.mark.parametrize("name", sorted(GOLDEN_STEPS))
def test_golden_run(name, tmp_path, capsys):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = run(want["args"], tmp_path / "run")
    capsys.readouterr()
    assert got["header"] == want["header"]
    assert [r[0] for r in got["rows"]] == [r[0] for r in want["rows"]]
    assert got["coords"]["index"] == want["coords"]["index"]
    if fingerprint() == want["fingerprint"]:
        assert (got["metrics_sha256"], got["checkpoint_sha256"]) == (
            want["metrics_sha256"], want["checkpoint_sha256"])
    else:
        assert close_gap(got, want) <= CLOSE_RTOL


def write_golden(out_root: Path) -> None:
    workloads = runpy.run_path(str(ROOT / "perfbench" / "run.py"))["WORKLOADS"]
    GOLDEN.mkdir(exist_ok=True)
    for name, steps in GOLDEN_STEPS.items():
        settings = [s if not s.startswith("steps=") else f"steps={steps}"
                    for s in workloads[name]] + ["seed=0"]
        args = [tok for s in settings for tok in ("--set", s)]
        record = {"fingerprint": fingerprint(), **run(args, out_root / name)}
        (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null, \
            contextlib.redirect_stdout(null):
        write_golden(Path(tmp))
