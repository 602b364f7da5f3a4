"""groupcodes benchmark: one command, end to end and per layer.

    python3 bench/run.py --workload {block-codes,long-horizon,convolutional}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is taken from ``src/`` beside
this directory; nothing is installed.  Each run:

1. sets up five times, each in a fresh interpreter (import groupcodes,
   generate the seeded specs, write them to one manifest), and reports the
   median as ``setup_s``; the five spec sets must be identical;
2. runs the workload in a fresh interpreter with one client in a closed
   loop for S seconds: an op is every CLI command of the workload on one
   spec, driven in-process through ``groupcodes.cli.main`` with stdout
   captured and checked after the op's timer stops;
3. runs the correctness gate in another fresh interpreter (seeded re-runs
   that must print identical bytes, |C|·|C⊥| = |ambient|, and the
   brute-force ``oracle`` subcommand on a seeded sample).  The gate also
   tries one spec that hits a known defect of the program (see
   ``workloads.probe``); that spec is not an op of the workload, whose ops
   are chosen so that none fails, and its status is in the provenance.

Times are CPU time scaled by a calibration kernel to a fixed reference
machine speed (see CAL_REF_S), so that a shared machine's drifting speed
does not read as a change in the program.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
traces the public functions of each module from outside for S/2 seconds,
replays the same ops untraced in a fresh interpreter for the overhead
ratio, and prints the per-layer metrics.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it holds the provenance (git SHA, Python, CPUs, seed and
the workload composition).  Full results and the trace spans are written
under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")

WORKLOADS = ("block-codes", "long-horizon", "convolutional")
SETUP_REPEATS = 5
# Specs per second of run the pool is sized for: a few times the rate at
# the seed, so the loop does not run dry when the program gets faster.
# Generation cost (part of setup_s) grows with these, so they are fixed.
POOL_RATE = {"block-codes": 4, "long-horizon": 4, "convolutional": 12}
ROUND_SIZE = {"block-codes": 8, "long-horizon": 8, "convolutional": 1}
# Reported times are scaled to a machine on which the worker's calibration
# kernel takes CAL_REF_S of CPU time, using the median kernel time of the
# CAL_WINDOW ops on either side of each op (see worker.py).  Raw CPU times
# are kept in the provenance.
CAL_REF_S = 0.0022
CAL_WINDOW = 10
# Every run ends within this many seconds, worker time included.
RUN_BUDGET_S = 170


class BenchError(RuntimeError):
    pass


class Workers:
    """Starts worker modes in fresh interpreters, within one deadline for
    the whole run, and keeps the wall time spent in each mode."""

    def __init__(self, budget_s: float) -> None:
        self.deadline = time.perf_counter() + budget_s
        self.walls: Counter = Counter()

    def run(self, *args: str) -> str:
        start = time.perf_counter()
        timeout = self.deadline - start
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, *args], cwd=ROOT, capture_output=True,
                text=True, timeout=max(timeout, 1),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args[0]} ran past the run's deadline")
        self.walls[args[0]] += time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"worker {args[0]} failed:\n{proc.stderr[-2000:]}")
        return proc.stdout


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(successes: list[float], failed: int, q: float) -> float:
    """The q-quantile of all attempted ops, a failed op counting as +inf.

    Failures fill the top of the distribution, so the answer is the
    quantile of the successful ops at q * attempted / succeeded, or +inf
    when that exceeds 1.  It is taken with the Harrell-Davis estimator (a
    beta-weighted mean of the order statistics), which, unlike reading one
    or two order statistics, does not jump when a run holds a few ops more
    or less.
    """
    n = len(successes)
    if n == 0:
        return math.inf
    p = q * (n + failed) / n
    if p >= 1.0:
        return math.inf
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(sorted(successes)))


def git_sha() -> str:
    """HEAD of the checkout read from .git, without leaving the checkout."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path, encoding="utf-8") as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unknown ({ref})"


def composition(specs: list[dict], attempted: int) -> dict:
    looped = specs[:attempted]
    sizes = Counter(s["log2_size"] for s in looped if s["log2_size"] is not None)
    return {
        "ops": attempted,
        "horizon_histogram": dict(sorted(Counter(s["horizon"] for s in looped).items())),
        "log2_size_histogram": dict(sorted(sizes.items())),
        "strata": dict(sorted(Counter(s["stratum"] for s in looped).items())),
    }


def zero_call_violations(workload: str, trace: dict) -> list[str]:
    links = read_json(os.path.join(BENCH, "links.json"))
    return [
        name for name in links["zero_calls"][workload]
        if trace.get(f"{name}.calls", 0) != 0
    ]


def scaled_latencies(ops: list[dict]) -> list[float]:
    """Op CPU times scaled to the reference machine speed."""
    cal = [op["calibration_s"] for op in ops]
    return [
        op["latency_s"] * CAL_REF_S
        / statistics.median(cal[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])
        for i, op in enumerate(ops)
    ]


def summarize(loop: dict, gate: dict) -> dict:
    ops = loop["ops"]
    for index, reason in gate["failed"].items():
        op = ops[int(index)]
        if op["status"] == "ok":
            op["status"], op["reason"] = "wrong", reason
    scaled = scaled_latencies(ops)
    ok = [t for t, op in zip(scaled, ops) if op["status"] == "ok"]
    failed = len(ops) - len(ok)
    p90 = quantile(ok, failed, 0.9)
    return {
        "attempted": len(ops),
        "ok": len(ok),
        "throughput_ops_s": len(ok) / sum(scaled),
        "raw_throughput_ops_s": len(ok) / loop["elapsed_s"],
        "latency_p50_ms": 1000 * quantile(ok, failed, 0.5),
        "latency_p90_ms": 1000 * p90,
        "beyond_p90": failed + sum(1 for v in ok if v > p90),
        "failures": Counter(op["status"] for op in ops if op["status"] != "ok"),
        "failure_reasons": sorted({op["reason"] for op in ops if op["status"] != "ok"}),
    }


def run(args, work: str, out_dir: str) -> dict:
    rounds = math.ceil(args.seconds * POOL_RATE[args.workload] / ROUND_SIZE[args.workload])
    workers = Workers(RUN_BUDGET_S)
    setups, raw_setups, manifests = [], [], []
    for i in range(SETUP_REPEATS):
        out = os.path.join(work, f"specs{i}")
        line = workers.run("setup", "--workload", args.workload, "--seed", str(args.seed),
                           "--rounds", str(rounds), "--out", out)
        setup = json.loads(line.strip().splitlines()[-1])
        setups.append(setup["setup_s"] * CAL_REF_S / setup["calibration_s"])
        raw_setups.append(setup["setup_s"])
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as handle:
            manifests.append(handle.read())
    if len(set(manifests)) != 1:
        raise BenchError("spec generation is not deterministic for this seed")
    specs_dir = os.path.join(work, "specs0")
    specs = read_json(os.path.join(specs_dir, "manifest.json"))["specs"]

    loop_path = os.path.join(work, "loop.json")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    loop_args = ("loop", "--specs", specs_dir, "--result", loop_path)
    if args.trace:
        spans = os.path.join(out_dir, f"spans-{tag}.jsonl")
        workers.run(*loop_args, "--seconds", str(args.seconds / 2), "--trace",
                    "--spans", spans)
        traced = read_json(loop_path)
        replay_path = os.path.join(work, "replay.json")
        workers.run("loop", "--specs", specs_dir, "--result", replay_path,
                    "--seconds", "0", "--ops", str(len(traced["ops"])))
        replay = read_json(replay_path)
        if [op["digest"] for op in replay["ops"]] != [op["digest"] for op in traced["ops"]]:
            raise BenchError("tracing changed the program's output")
        loop = traced
    else:
        workers.run(*loop_args, "--seconds", str(args.seconds))
        loop = read_json(loop_path)

    gate_path = os.path.join(work, "gate.json")
    workers.run("gate", "--specs", specs_dir, "--loop", loop_path,
                "--seed", str(args.seed), "--result", gate_path)
    gate = read_json(gate_path)
    summary = summarize(loop, gate)
    failures = summary["failures"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "composition": composition(specs, summary["attempted"]),
        "pool_size": len(specs),
        "pool_exhausted": summary["attempted"] == len(specs),
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "raw_throughput_ops_s": summary["raw_throughput_ops_s"],
        "machine_speed": CAL_REF_S / statistics.median(
            op["calibration_s"] for op in loop["ops"]),
        "worker_wall_s": dict(workers.walls),
        "loop_cpu_s": loop["elapsed_s"],
        "loop_wall_s": loop["wall_s"],
        "failures": dict(failures),
        "failure_reasons": summary["failure_reasons"],
        "beyond_p90": summary["beyond_p90"],
        "gate": {k: v for k, v in gate.items() if k != "failed"},
        "howell_cache": loop.get("howell_cache"),
    }
    # Refusals (exit 2) and crashes (an uncaught exception) are failed ops;
    # only a wrong answer, in an op or in the known-defect probe, makes the
    # run incorrect.
    correct = not failures.get("wrong") and (gate["probe"] or {}).get("status") != "wrong"
    if args.trace:
        metrics = {name: value for name, value in sorted(loop["trace"].items())}
        untraced_rate = summarize(replay, {"failed": {}})["throughput_ops_s"]
        metrics["trace.overhead_ratio"] = summary["throughput_ops_s"] / untraced_rate
        provenance["untraced_functions"] = loop["untraced"]
        provenance["zero_call_violations"] = zero_call_violations(args.workload, loop["trace"])
        units = {"calls": "count", "words": "count", "total_s": "s", "self_s": "s",
                 "hit_ratio": "ratio", "overhead_ratio": "ratio"}
        metrics = {
            name: {"value": value, "unit": units[name.rsplit(".", 1)[1]]}
            for name, value in metrics.items()
        }
    else:
        metrics = {
            "throughput_ops_s": {"value": summary["throughput_ops_s"], "unit": "ops/s"},
            "latency_p50_ms": {"value": summary["latency_p50_ms"], "unit": "ms"},
            "completed_ratio": {"value": summary["ok"] / summary["attempted"],
                                "unit": "fraction"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": loop["maxrss_kb"] / 1024, "unit": "MB"},
        }
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["attempted"] - summary["ok"],
        "metrics": metrics,
    }
    # Printed and kept, but not gated: with 60-200 ops a run, p90 spread
    # over a quarter between seeds on this kind of machine.
    provenance["latency_p90_ms"] = summary["latency_p90_ms"]
    provenance["failed_ratio"] = result["failed"] / result["attempted"]
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"provenance": provenance, **result, "ops": [
            {"index": op["index"], "stratum": specs[op["index"]]["stratum"],
             "horizon": specs[op["index"]]["horizon"], "latency_s": op["latency_s"],
             "status": op["status"], "reason": op["reason"]}
            for op in loop["ops"]
        ]}, handle, indent=1)
    return {"provenance": provenance, "result": result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "groupcodes", "cli.py")):
        print(f"error: no program at {os.path.join(ROOT, 'src', 'groupcodes')}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        report = run(args, work, out_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result, provenance = report["result"], report["provenance"]
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"latency_p90_ms: {provenance['latency_p90_ms']:.6g} ms")
        print(f"failed_ratio: {provenance['failed_ratio']:.6g} fraction")
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
