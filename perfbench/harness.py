"""One benchmark run: set-up, timed loop, checks, report.

Workloads are described in ``workloads.py``; the metrics in
``BENCHMARK.json``, and which end-to-end metric each per-layer metric should
move on which workload in ``layer_map.json``.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
splits ``--seconds`` in two: the same untraced loop for the first half, then
the span wrappers of ``spans.py`` are installed on a fresh set-up and the
loop is timed again. The per-layer metrics come from the traced half; the
tracing overhead is the traced minus the untraced ``env_steps_per_s``.
``--smoke`` swaps in a tiny config so the whole path runs in seconds; it is
not a timing gate.

``setup_s`` is the time from process start to the first timed iteration:
imports plus one set-up (trainer, replay pre-fill and warm-up steps, or
``load_checkpoint``). One sample is this process's own; the others come from
child processes (``--setup-only``) started at evenly spaced points of the
untraced loop, with the clock stopped, so the samples are spread over the
run rather than bunched at its start. The median is reported, divided by
the untraced loop's host slowdown (below), which was measured over the same
stretch of time. Child processes keep their memory out of this process's
``peak_rss_mb``.

``env_steps_per_s``, ``iter_ms_p50``, ``setup_s`` and the ``trace.*``
timings are in reference seconds: each iteration's time divided by the host
slowdown that probes interleaved with the loop measured around it
(``hostspeed.py``), and ``setup_s`` by the loop's overall slowdown.
``peak_rss_mb`` and the per-span ``.ms`` figures are raw. The raw end-to-end
figures and the loop's slowdown are in the report and record.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
readable report. The full record (stamp, checks, per-span table) and, when
traced, the spans themselves are written under ``perfbench/out/``.

Only process-local timers are used (``time.perf_counter``,
``resource.getrusage``); whole-machine tracing and hardware perf counters
are off-limits on the shared hosts this benchmark targets.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import hostspeed
import spans
import workloads as wl
from modroute import checkpoint

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 6          # child-process set-ups per untraced run
# the blocking steps of one train iteration; none is nested in another
TRAIN_PHASES = ("sac.Trainer.collect_rollouts",
                "replay.ReplayBuffer.sample_stratified",
                "sac.Trainer.bellman_targets", "sac.Trainer.critic_losses",
                "sac.Trainer.actor_losses", "autodiff.Tape.backward",
                "sac.Adam.step")
# share of a train iteration in none of TRAIN_PHASES: train_step's own work
# (loss sums, maskout, alpha loss, Polyak) plus the harness loop, measured
# at 0.04-0.05 on both train workloads. Below 0 the phases overlap; above
# the top some blocking step is missing from TRAIN_PHASES.
REMAINDER_RANGE = (0.0, 0.2)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description="modroute benchmark run")
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny config; proves the harness runs end to end")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the import and set-up times as "
                        "JSON and exit (the untraced run samples setup_s so)")
    p.add_argument("--checkpoint",
                   help="eval-rollout's checkpoint, with --setup-only")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# stamp


def _git(*args):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # not a git checkout; never search parent directories
    try:
        res = subprocess.run(
            ["git", f"--git-dir={ROOT}/.git", f"--work-tree={ROOT}", *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip()


def _source_digest() -> str:
    """sha256 over src/modroute/*.py: identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "modroute")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args, blas_vars) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in blas_vars},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "timers": "process-local only (time.perf_counter, resource.getrusage); "
                  "whole-machine tracing and perf counters are off-limits on "
                  "a shared host and unused",
        "started_at": time.time(),
    }


# ---------------------------------------------------------------------------
# one run


def builder(args, cfg, ckpt):
    """The workload's set-up: a ready trainer, as its CLI command builds it."""
    if args.workload.startswith("train"):
        return lambda: wl.new_trainer(cfg)
    return lambda: checkpoint.load_checkpoint(ckpt)[0]


def setup_in_child(args, ckpt: str) -> float:
    """One set-up in a fresh process: its imports plus one build, in s."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--setup-only", "--checkpoint", ckpt] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    times = json.loads(proc.stdout.strip().splitlines()[-1])
    return times["import_s"] + times["build_s"]


def run(args, import_s: float) -> dict:
    train = args.workload.startswith("train")
    cfg = wl.make_config(args.workload, args.seed, args.smoke)
    tag = f"{args.workload}-seed{args.seed}"
    ckpt = os.path.join(OUT, f"ckpt-{tag}-{os.getpid()}.npz")
    build = builder(args, cfg, ckpt)
    record = {"checks": {}}
    # a traced run splits its time: untraced half, then traced half
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        if not train:
            wl.write_eval_checkpoint(cfg, ckpt)  # input generation, not set-up
        t0 = time.perf_counter()
        trainer = build()
        setup_times = [import_s + time.perf_counter() - t0]
        # setup_s is reported by untraced runs only
        probes = 0 if args.trace else (2 if args.smoke else SETUP_PROBES)
        breaks = wl.Breaks(seconds, probes,
                           lambda: setup_times.append(setup_in_child(args, ckpt)))
        clock = hostspeed.HostClock(wl.probe(args.workload))
        if train:
            timed = wl.time_train(trainer, seconds, clock, breaks=breaks)
        else:
            ticks = wl.StepTicks(clock)
            try:
                timed = wl.time_eval(trainer, seconds, ticks, breaks)
            finally:
                ticks.remove()
        # read before the twin exists: one set-up in memory, as in the CLI
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        del trainer
        twin = build()
        if train:
            deterministic = wl.check_train_determinism(twin, timed["digest"])
        else:
            deterministic = wl.check_eval_determinism(twin, timed["first_result"])
        del twin

        rate, p50_ms, slowdown = in_reference_time(timed, clock)
        record["untraced"] = {
            "env_steps": timed["env_steps"], "busy_s": timed["busy_s"],
            "iterations": len(timed["latencies"]), "slowdown": slowdown,
            "probes": len(clock.probes),
            "raw_env_steps_per_s": timed["env_steps"] / timed["busy_s"],
            "raw_p50_ms": statistics.median(timed["latencies"]) * 1e3,
            "setup_times_s": setup_times, "actor_digest": timed.get("digest"),
        }
        record["checks"]["determinism"] = deterministic
        failures = list(timed["failures"])
        attempted = timed["attempted"] + 1
        failed = len(timed["failures"]) + (not deterministic)
        metrics = {
            "env_steps_per_s": rate,
            "iter_ms_p50": p50_ms,
            "setup_s": statistics.median(setup_times) / slowdown,
            "peak_rss_mb": peak_rss,
        }

        if args.trace:
            tracer = spans.Tracer()
            record["wrapped"] = spans.install(tracer)
            trainer = build()
            clock = hostspeed.HostClock(wl.probe(args.workload), tracer)
            first, before = tracer.mark(), dict(tracer.counters)
            if train:
                traced = wl.time_train(trainer, seconds, clock, tracer)
            else:
                ticks = wl.StepTicks(clock)  # over the span wrapper
                try:
                    traced = wl.time_eval(trainer, seconds, ticks)
                finally:
                    ticks.remove()
            last = tracer.mark()
            counters = {k: v - before.get(k, 0.0) for k, v in tracer.counters.items()}
            if train:
                checkpoint.save_checkpoint(ckpt, trainer, cfg)
            iterations = traced["attempted"] if train else traced["env_steps"]
            window = spans.summarize(tracer, first, last, iterations)
            whole = spans.summarize(tracer, 0, tracer.mark(), 1)
            traced_rate, traced_p50_ms, _ = in_reference_time(traced, clock)
            per_layer, consistency = layer_metrics(
                window, whole, counters, tracer.counters, traced, train)
            per_layer.update({
                "trace.iter_ms_p50": traced_p50_ms,
                "trace.env_steps_per_s": traced_rate,
                "trace.overhead_env_steps_per_s": traced_rate - rate,
            })
            metrics.update(per_layer)
            record["trace"] = {"window": window, "whole_run": whole,
                               "counters": counters, "consistency": consistency}
            record["checks"]["phases_add_up"] = consistency["ok"]
            failures += traced["failures"]
            attempted += traced["attempted"] + 1
            failed += len(traced["failures"]) + (not consistency["ok"])
            spans_path = os.path.join(OUT, f"spans-{tag}.json.gz")
            tracer.write(spans_path)
            record["spans_file"] = os.path.relpath(spans_path, ROOT)
    finally:
        if os.path.exists(ckpt):
            os.remove(ckpt)

    record["checks"]["failures"] = failures[:20]
    record["attempted"], record["failed"] = attempted, failed
    record["failed_frac"] = failed / attempted
    record["metrics"] = metrics
    return record


def in_reference_time(timed: dict, clock) -> tuple[float, float, float]:
    """env_steps_per_s and iter_ms_p50 of a timed loop, in reference time.

    Each iteration latency is adjusted for the host speed around it; the
    busy time, which on eval-rollout also holds episode resets, is scaled by
    the same overall slowdown. Also returns that slowdown."""
    raw = np.asarray(timed["latencies"])
    ref = clock.adjust(raw, timed["ends"])
    slowdown = raw.sum() / ref.sum()
    rate = timed["env_steps"] / (timed["busy_s"] / slowdown)
    return rate, float(np.median(ref)) * 1e3, slowdown


def layer_metrics(window, whole, counters, all_counters, traced, train):
    """The per-layer metrics of BENCHMARK.json from one traced phase.

    ``.ms`` is the median duration of one call and ``.self_ms`` its median
    self time; ``.calls`` counts calls per iteration (per train step on the
    train workloads, per env step on eval-rollout); ``layer.X.self_ms`` is
    layer X's span self time per iteration. Counters and spans are taken from
    the timed window only, except the checkpoint ones, which happen outside
    it (load in set-up, one save after the train loop).
    """
    s = window["spans"]

    def ms(name, key="median_ms"):
        return s.get(name, {}).get(key, 0.0)

    def calls(name):
        return s.get(name, {}).get("calls_per_iter", 0.0)

    fwd = "network.ModulePolicy.forward"
    n_forwards = sum(s.get(f"{fwd}.{k}", {}).get("calls", 0) for k in ("taped", "numpy"))
    n_train_steps = s.get("sac.Trainer.train_step", {}).get("calls", 0)
    computed = counters.get("forward.cells_computed", 0.0)

    # the root spans of the timed loop: iterations (train) or evaluate calls.
    # On train the remainder is the iteration time in none of TRAIN_PHASES;
    # on eval it is evaluate's self time (its own loop), reported only.
    root = "bench.iteration" if train else "sac.Trainer.evaluate"
    iterations = max(s.get(root, {}).get("calls", 0), 1)
    iter_ms = ms(root, "total_ms") / iterations
    if train:
        phases = {name: ms(name, "total_ms") / iterations for name in TRAIN_PHASES}
        remainder_ms = iter_ms - sum(phases.values())
    else:
        phases, remainder_ms = {}, ms(root, "self_total_ms") / iterations
    remainder = remainder_ms / iter_ms if iter_ms else 1.0
    consistency = {
        "root_span": root,
        "iter_ms": iter_ms,
        "phases_ms_per_iter": phases,
        "untraced_remainder_ms": remainder_ms,
        "untraced_remainder_frac": remainder,
        "ok": not train or REMAINDER_RANGE[0] <= remainder < REMAINDER_RANGE[1],
    }

    def outside(name, key):
        return whole["spans"].get(name, {}).get(key, 0.0)

    v = {
        "autodiff.Tape.backward.ms": ms("autodiff.Tape.backward"),
        "autodiff.Tape.backward.calls": calls("autodiff.Tape.backward"),
        "autodiff.Tape.record.calls": calls("autodiff.Tape.record"),
        "autodiff.Tape.parameter.calls": calls("autodiff.Tape.parameter"),
        "sac.Trainer.bellman_targets.ms": ms("sac.Trainer.bellman_targets"),
        "sac.Trainer.critic_losses.ms": ms("sac.Trainer.critic_losses"),
        "sac.Trainer.actor_losses.ms": ms("sac.Trainer.actor_losses"),
        "sac.Adam.step.ms": ms("sac.Adam.step"),
        "sac.Adam.step.calls": calls("sac.Adam.step"),
        "sac.Trainer.train_step.ms": ms("sac.Trainer.train_step"),
        "sac.Trainer.train_step.self_ms": ms("sac.Trainer.train_step", "self_median_ms"),
        "sac.Trainer.train_step.masked_tasks":
            counters.get("train_step.masked_tasks", 0.0) / max(n_train_steps, 1),
        "sac.Trainer.collect_rollouts.ms": ms("sac.Trainer.collect_rollouts"),
        "sac.Trainer.evaluate.ms": ms("sac.Trainer.evaluate"),
        f"{fwd}.calls": calls(f"{fwd}.taped") + calls(f"{fwd}.numpy"),
        f"{fwd}.taped.ms": ms(f"{fwd}.taped"),
        f"{fwd}.taped.calls": calls(f"{fwd}.taped"),
        f"{fwd}.numpy.ms": ms(f"{fwd}.numpy"),
        f"{fwd}.numpy.calls": calls(f"{fwd}.numpy"),
        "network.forward.modules_evaluated":
            counters.get("forward.modules_evaluated", 0.0) / max(n_forwards, 1),
        "network.forward.useful_frac":
            counters.get("forward.cells_useful", 0.0) / computed if computed else 0.0,
        "network.topk_mask_rows.ms": ms("network.topk_mask_rows"),
        "network.sample_k_mask_rows.ms": ms("network.sample_k_mask_rows"),
        "network.masked_softmax_rows.ms": ms("network.masked_softmax_rows"),
        "network.effective_rows.ms": ms("network.effective_rows"),
        "network.squashed_gaussian.ms": ms("network.squashed_gaussian"),
        "routing.route_balance_temperatures.calls":
            calls("routing.route_balance_temperatures"),
        "routing.topk_mask.calls": calls("routing.topk_mask"),
        "envs.ToyEnv.step.ms": ms("envs.ToyEnv.step"),
        "envs.ToyEnv.step.calls": calls("envs.ToyEnv.step"),
        "envs.ToyEnv.reset.calls": calls("envs.ToyEnv.reset"),
        "replay.ReplayBuffer.add.ms": ms("replay.ReplayBuffer.add"),
        "replay.ReplayBuffer.sample_stratified.ms":
            ms("replay.ReplayBuffer.sample_stratified"),
        "checkpoint.load_checkpoint.ms": outside("checkpoint.load_checkpoint", "median_ms"),
        "checkpoint.save_checkpoint.ms": outside("checkpoint.save_checkpoint", "median_ms"),
        "checkpoint.save_checkpoint.bytes": all_counters.get("save_checkpoint.bytes", 0.0),
        "trace.untraced_remainder_frac": remainder,
    }
    for layer in spans.LAYERS:
        v[f"layer.{layer}.self_ms"] = window["layer_self_ms_per_iter"].get(layer, 0.0)
    return v, consistency


# ---------------------------------------------------------------------------
# output


def report(record: dict, bench: dict, trace_on: bool) -> dict:
    """Print the readable report; return the contract's result object."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wanted = [m["name"] for m in bench["per_layer" if trace_on else "end_to_end"]]
    metrics = {name: {"value": float(record["metrics"][name]), "unit": units[name]}
               for name in wanted}

    s = record["stamp"]
    print(f"# modroute benchmark: workload {s['workload']}, seed {s['seed']}, "
          f"{s['seconds']:g} s timed, trace {s['trace']}"
          f"{', smoke' if s['smoke'] else ''}")
    for key in ("git_sha", "git_dirty", "source_sha256", "python", "numpy", "blas",
                "blas_threads", "nproc", "cpus_usable", "cpu_model", "timers"):
        print(f"# {key}: {s[key]}")
    print("# one process, one thread: a layer's busy time is its span self "
          "time; no layer waits on another, so there is no wait metric")
    print("# config, cli, analysis and seeding are thin wrappers over the "
          "measured layers and are not measured separately")
    u = record["untraced"]
    print(f"# untraced: {u['env_steps']} env steps in {u['busy_s']:.3f} s busy, "
          f"{u['iterations']} iterations; raw {u['raw_env_steps_per_s']:.5g} env "
          f"steps/s, p50 {u['raw_p50_ms']:.4g} ms; host slowdown {u['slowdown']:.3f} "
          f"from {u['probes']} probes")
    print("# env_steps_per_s and iter_ms_p50 are in reference seconds: each "
          "iteration's raw time divided by the host slowdown that the probes "
          "around it measured (see hostspeed.py)")
    print(f"# setup_s is the median of {len(u['setup_times_s'])} set-ups (imports "
          f"+ build), divided by the loop's slowdown; raw: "
          + ", ".join(f"{t:.3f}" for t in u["setup_times_s"]) + " s")
    print(f"# checks: failed {record['failed']} of {record['attempted']} "
          f"(failed_frac {record['failed_frac']:.4g}); same-seed determinism "
          f"{'ok' if record['checks']['determinism'] else 'FAILED'}")
    for where, bad in record["checks"]["failures"]:
        print(f"#   failure at {where}: {'; '.join(bad)}")
    if trace_on:
        t = record["trace"]
        c = t["consistency"]
        if c["phases_ms_per_iter"]:
            parts = [(name.split(".", 1)[1], v) for name, v in c["phases_ms_per_iter"].items()]
            parts.append(("in no phase", c["untraced_remainder_ms"]))
            print(f"# phases of a {c['iter_ms']:.2f} ms iteration: " + ", ".join(
                f"{n} {v:.2f} ms ({100 * v / c['iter_ms']:.1f}%)" for n, v in parts))
            lo, hi = REMAINDER_RANGE
            print(f"# the time in no phase must lie in [{lo:g}, {hi:g}) of the "
                  f"iteration: {'ok' if c['ok'] else 'FAILED, the phases do NOT add up'}")
        else:
            print(f"# trace: {c['untraced_remainder_ms']:.2f} ms of a "
                  f"{c['iter_ms']:.2f} ms {c['root_span']} call "
                  f"({100 * c['untraced_remainder_frac']:.2f}%) is its own loop, "
                  f"in no wrapped call")
        print(f"# {'span':44s} {'calls/iter':>10s} {'median ms':>10s} "
              f"{'self ms/iter':>12s}")
        for name, e in sorted(t["window"]["spans"].items(),
                              key=lambda kv: -kv[1]["self_ms_per_iter"]):
            print(f"# {name:44s} {e['calls_per_iter']:10.3f} {e['median_ms']:10.4f} "
                  f"{e['self_ms_per_iter']:12.4f}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv, import_s: float, blas_vars) -> int:
    args = parse_args(argv)
    if args.setup_only:
        build = builder(args, wl.make_config(args.workload, args.seed, args.smoke),
                        args.checkpoint)
        t0 = time.perf_counter()
        build()
        print(json.dumps({"import_s": import_s, "build_s": time.perf_counter() - t0}))
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    the_stamp = stamp(args, blas_vars)
    record = run(args, import_s)
    record["stamp"] = the_stamp
    result = report(record, bench, bool(args.trace))
    record["result"] = result
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, name + ("-smoke" if args.smoke else "") + ".json"),
              "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0
