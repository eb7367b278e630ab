"""Run one `pathsgd train` command in this process and record how it went.

    python3 perfbench/probe.py RESULT.json TRACE -- TRAIN_ARGS...

The parent (`perfbench/run.py`) starts one fresh process per training run,
with `src` on PYTHONPATH and the BLAS thread count set.  This file wraps
functions of the package from the outside; it edits no source file.

TRACE 0 times only the whole command and the entry and exit of
`optim.train_loop`.  TRACE 1 also records a span around each public
function listed in TRACED, installed where the caller looks the name up:
`cli` imports `build_rnn` and `save_checkpoint` by name, so those are
wrapped on `pathsgd.cli`, not on their home modules.

RESULT.json receives the timings, the spans summarised per function, the
peak resident set and the kappa checks.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import sys
import time

import numpy as np

from pathsgd import cli, compute, optim, pathnorm

# (owner, attribute, span name); the owner is the module or object whose
# attribute the caller reads at call time.
TRACED = (
    (cli, "build_rnn", "graph.build_rnn"),
    (cli, "make_task", "tasks.make_task"),
    (cli, "save_checkpoint", "config.save_checkpoint"),
    (compute, "rnn_forward", "compute.rnn_forward"),
    (compute, "rnn_backward", "compute.rnn_backward"),
    (pathnorm, "preconditioner", "pathnorm.preconditioner"),
    (pathnorm, "kappa1", "pathnorm.kappa1"),
    (pathnorm, "kappa2", "pathnorm.kappa2"),
    (optim, "init_uniform", "optim.init"),
    (optim, "init_identity", "optim.init"),
    (optim, "apply_update", "optim.apply_update"),
)
TASK_METHODS = ("train_batch", "loss_and_grad", "evaluate")


class Tracer:
    """Spans kept in memory: (name, parent index or -1, start, end)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.kappa_bad = 0          # kappa arrays with a non-finite or negative entry
        self.kappa_checked = 0
        self.last_kappa = None
        self.edges = 0

    def wrap(self, fn, name, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            span = [name, parent, time.perf_counter(), 0.0]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def check_kappa(self, kappa, strict):
        kappa = np.asarray(kappa)
        self.kappa_checked += 1
        ok = np.all(np.isfinite(kappa)) and (np.all(kappa > 0) if strict
                                             else np.all(kappa >= 0))
        if not ok:
            self.kappa_bad += 1

    def install(self):
        on_result = {
            "graph.build_rnn": self._count_edges,
            "pathnorm.preconditioner": self._keep_kappa,
            "pathnorm.kappa1": lambda k: self.check_kappa(k, strict=True),
            # kappa2 is zero off the recurrent blocks, so only >= 0 holds there.
            "pathnorm.kappa2": lambda k: self.check_kappa(k, strict=False),
            "tasks.make_task": self._wrap_task,
        }
        for owner, attr, name in TRACED:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name,
                                           on_result.get(name)))

    def _count_edges(self, net):
        self.edges = net.num_edges

    def _keep_kappa(self, kappa):
        self.check_kappa(kappa, strict=True)
        self.last_kappa = kappa

    def _wrap_task(self, task):
        # train_loop calls these through the task instance.
        for meth in TASK_METHODS:
            setattr(task, meth, self.wrap(getattr(task, meth), f"tasks.{meth}"))

    def summary(self, loop_idx: int, steps: int, eps: float) -> dict:
        """Per-function medians, call counts and self times."""
        child_time = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        durs: dict[str, list[float]] = {}
        selfs: dict[str, list[float]] = {}
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            if name == "compute.rnn_forward" and (
                    parent < 0 or self.spans[parent][0] != "tasks.loss_and_grad"):
                continue  # eval forwards sit inside tasks.evaluate
            durs.setdefault(name, []).append(t1 - t0)
            selfs.setdefault(name, []).append(t1 - t0 - child_time[i])

        def p50_ms(name):
            return 1e3 * statistics.median(durs[name]) if name in durs else 0.0

        def calls(name):
            return len(durs.get(name, ()))

        def total_s(name):
            return sum(durs.get(name, ()))

        loop_self_ms = 0.0
        if loop_idx >= 0 and steps > 0:
            _, _, t0, t1 = self.spans[loop_idx]
            loop_self_ms = 1e3 * (t1 - t0 - child_time[loop_idx]) / steps
        floor = 0.0
        if self.last_kappa is not None:
            floor = float(np.mean(np.asarray(self.last_kappa) < eps))
        lg_self = selfs.get("tasks.loss_and_grad", [])
        return {
            "graph.build_rnn.s": total_s("graph.build_rnn"),
            "graph.edges": self.edges,
            "tasks.make_task.s": total_s("tasks.make_task"),
            "tasks.train_batch.ms_p50": p50_ms("tasks.train_batch"),
            "tasks.loss_and_grad.self_ms_p50":
                1e3 * statistics.median(lg_self) if lg_self else 0.0,
            "tasks.evaluate.ms_p50": p50_ms("tasks.evaluate"),
            "tasks.evaluate.calls": calls("tasks.evaluate"),
            "compute.rnn_forward.ms_p50": p50_ms("compute.rnn_forward"),
            "compute.rnn_forward.calls": calls("compute.rnn_forward"),
            "compute.rnn_backward.ms_p50": p50_ms("compute.rnn_backward"),
            "compute.rnn_backward.calls": calls("compute.rnn_backward"),
            "pathnorm.preconditioner.ms_p50": p50_ms("pathnorm.preconditioner"),
            "pathnorm.preconditioner.calls": calls("pathnorm.preconditioner"),
            "pathnorm.kappa1.ms_p50": p50_ms("pathnorm.kappa1"),
            "pathnorm.kappa2.ms_p50": p50_ms("pathnorm.kappa2"),
            "pathnorm.kappa2.calls": calls("pathnorm.kappa2"),
            "pathnorm.kappa_floor_frac": floor,
            "optim.init.s": total_s("optim.init"),
            "optim.apply_update.ms_p50": p50_ms("optim.apply_update"),
            "optim.train_loop.self_ms_per_step": loop_self_ms,
            "config.save_checkpoint.ms_p50": p50_ms("config.save_checkpoint"),
            "config.save_checkpoint.calls": calls("config.save_checkpoint"),
        }


def loop_step_at(exc: BaseException, code) -> int | None:
    """The `step` local of the train_loop frame an exception unwound."""
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code is code:
            return tb.tb_frame.f_locals.get("step")
        tb = tb.tb_next
    return None


def main(argv: list[str]) -> int:
    result_path, trace = argv[0], argv[1] == "1"
    if argv[2] != "--":
        raise SystemExit("usage: probe.py RESULT.json TRACE -- TRAIN_ARGS...")
    train_args = argv[3:]

    tracer = Tracer()
    if trace:
        tracer.install()
    record: dict = {"loop_start": None, "loop_end": None, "steps_done": None,
                    "start_step": 0, "status": None, "eps": None}
    real_loop = optim.train_loop
    loop_span = tracer.wrap(real_loop, "optim.train_loop") if trace else real_loop

    def timed_loop(net, task, config, p, opt, start_step=0, on_eval=None):
        record["start_step"] = start_step
        record["loop_start"] = time.perf_counter()
        try:
            res = loop_span(net, task, config, p, opt, start_step=start_step,
                            on_eval=on_eval)
        except Exception as exc:
            record["loop_end"] = time.perf_counter()
            record["steps_done"] = loop_step_at(exc, real_loop.__code__)
            raise
        record["loop_end"] = time.perf_counter()
        record.update(steps_done=res.steps_done, status=res.status, eps=res.opt.eps)
        return res

    optim.train_loop = timed_loop
    t0 = time.perf_counter()
    code = cli.main(["train", *train_args])
    t1 = time.perf_counter()

    out = {
        "exit": code,
        "run_s": t1 - t0,
        "setup_s": None if record["loop_start"] is None else record["loop_start"] - t0,
        "loop_s": None if record["loop_start"] is None
        else record["loop_end"] - record["loop_start"],
        "steps_done": record["steps_done"],
        "start_step": record["start_step"],
        "status": record["status"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        loop_idx = next((i for i, s in enumerate(tracer.spans)
                         if s[0] == "optim.train_loop"), -1)
        steps = (record["steps_done"] or 0) - record["start_step"]
        out["layers"] = tracer.summary(loop_idx, steps, record["eps"] or 0.0)
        out["kappa_checked"] = tracer.kappa_checked
        out["kappa_bad"] = tracer.kappa_bad
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
