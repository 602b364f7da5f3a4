"""Benchmark worker: each mode runs in a fresh interpreter started by run.py.

    worker.py setup --workload W --seed N --rounds R --out DIR
        Import groupcodes, generate the workload's specs and write them in
        one manifest.  Prints the set-up time (import + generation +
        writing) and the median calibration time around it.
    worker.py loop --specs DIR --seconds S [--ops K] [--trace] --result FILE
        One client in a closed loop: run every CLI command of the workload on
        one spec after another until S seconds have passed (or exactly K
        ops), capturing stdout.  Each op is checked after its timer stops.
        The loop runs for S seconds of wall time; ops are timed in CPU time.
    worker.py gate --specs DIR --loop FILE --seed N --result FILE
        The correctness gate, outside the timed loop: re-run a seeded sample
        of ops and require identical stdout, cross-check dual sizes, run
        the brute-force ``oracle`` subcommand on a seeded sample of specs,
        and try the workload's known-defect probe spec, if it has one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import statistics
import sys
from time import perf_counter, process_time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

# Times are CPU time of this process: the program is single-threaded and
# CPU-bound, so on an idle machine this equals wall time, and on a shared
# one it leaves out the time the process waited for a CPU.
#
# Machine-speed calibration: a shared machine's speed drifts by up to a
# third over minutes as other tenants come and go, and CPU time does not
# hide that.  A fixed pure-Python kernel (integer arithmetic, tuples, a
# small dict: the program's own diet) is timed before every op, and run.py
# scales each op by the median kernel time of the ops around it.
CAL_ITERS = 8000
SETUP_CAL_SAMPLES = 10  # before and again after the set-up

GATE_RERUNS = 3
GATE_ORACLE = 3
# Oracle sample: specs whose ambient has at most this many words, so that
# every brute-force check (consistency sets included) runs, each in well
# under a second.
GATE_ORACLE_AMBIENT = 1 << 10


def calibration_sample() -> float:
    start = process_time()
    acc, table = 0, {}
    for i in range(CAL_ITERS):
        key = (i % 97, i % 89)
        acc = (acc * 31 + table.get(key, i)) % 1_000_003
        table[key] = acc
    return process_time() - start


def run_command(cli, command: str, path: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    raised = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, path])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed op, not a dead run
        code, raised = None, f"{type(exc).__name__}: {exc}"
    return {"command": command, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-300:], "raised": raised}


def digest(results: list[dict]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r['command']}\0{r['exit']}\0{r['stdout']}\0".encode())
    return h.hexdigest()


def _field(text: str, pattern: str):
    match = re.search(pattern, text, re.M)
    return match.group(1) if match else None


def check_op(spec: dict, results: list[dict]) -> tuple[str, str]:
    """Classify one op: ``ok``, ``refused`` (exit 2), ``wrong`` or ``crash``."""
    for r in results:
        if r["raised"] is not None or r["exit"] not in (0, 1, 2):
            return "crash", f"{r['command']}: {r['raised'] or r['exit']}"
    for r in results:
        if r["exit"] == 1:
            return "wrong", f"{r['command']} exited 1"
    for r in results:
        if r["exit"] == 2:
            return "refused", f"{r['command']}: {r['stderr'].strip()[:200]}"
    out = {r["command"]: r["stdout"] for r in results}
    if "decompose" in out:
        card = _field(out["analyze"], r"^cardinality: (\d+)$")
        if card is None:
            return "wrong", "analyze printed no cardinality"
        card = int(card)
        if spec["above_bound"]:
            in_band = card == 1 << spec["log2_size"]
        else:
            in_band = card.bit_length() - 1 == spec["log2_size"]
        if not in_band:
            return "wrong", f"cardinality {card} outside the generated band"
        product = _field(out["decompose"], r"^order product (\d+) vs cardinality (\d+)$")
        if product is None or int(product) != card:
            return "wrong", "decomposition order product differs from |C|"
        if "  verdict: valid" not in out["decompose"]:
            return "wrong", "decomposition certificate not valid"
        if not out["dual"].startswith("kind: block\n"):
            return "wrong", "dual is not a block document"
    if "duality-check" in out and not out["duality-check"].rstrip().endswith("verdict: pass"):
        return "wrong", "duality-check verdict not pass"
    if spec["kind"] == "convolutional" and "weakly controllable: " not in out["analyze"]:
        return "wrong", "analyze printed no controllability verdict"
    return "ok", ""


def load_manifest(specs_dir: str) -> dict:
    with open(os.path.join(specs_dir, "manifest.json"), encoding="utf-8") as handle:
        return json.load(handle)


def mode_setup(args) -> None:
    calibration = [calibration_sample() for _ in range(SETUP_CAL_SAMPLES)]
    setup_start = process_time()
    import workloads

    def entry(spec) -> dict:
        return {
            "name": spec.name, "text": spec.text, "kind": spec.kind,
            "horizon": spec.horizon, "log2_size": spec.log2_size,
            "ambient": spec.ambient, "above_bound": spec.above_bound,
            "stratum": spec.stratum,
        }

    specs = workloads.generate(args.workload, args.seed, args.rounds)
    probe = workloads.probe(args.workload, args.seed)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "specs": [entry(s) for s in specs],
                   "probe": entry(probe) if probe else None}, handle)
    setup_s = process_time() - setup_start
    calibration += [calibration_sample() for _ in range(SETUP_CAL_SAMPLES)]
    print(json.dumps({"setup_s": setup_s, "calibration_s": statistics.median(calibration)}))


def spec_file(specs_dir: str, spec: dict) -> str:
    """Write one spec to its own file, the program's only input, and return
    its path.  Set-up keeps every spec in the manifest and each is written
    here, outside any timer: creating hundreds of files in one burst costs
    from 0.04 to 0.3 s of kernel time on a shared disk, with the disk's
    load and not with the program."""
    path = os.path.join(specs_dir, spec["name"])
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(spec["text"])
    return path


def mode_loop(args) -> None:
    from groupcodes import cli
    import workloads
    from tracer import Tracer, howell_cache_info

    manifest = load_manifest(args.specs)
    workload, specs = manifest["workload"], manifest["specs"]
    commands = workloads.COMMANDS[workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    if args.ops is not None:
        specs = specs[: args.ops]
    ops, op_spans = [], []
    origin = tracer.origin if tracer else perf_counter()
    wall_start, loop_start = perf_counter(), process_time()
    for index, spec in enumerate(specs):
        if args.ops is None and perf_counter() - wall_start >= args.seconds:
            break
        path = spec_file(args.specs, spec)
        if tracer:
            tracer.op_id = index
        calibration = calibration_sample()
        start, wall = process_time(), perf_counter()
        results = [run_command(cli, command, path) for command in commands]
        end = process_time()
        op_spans.append((index, f"op:{workload}", wall - origin, perf_counter() - origin))
        status, reason = check_op(spec, results)
        ops.append({
            "index": index, "latency_s": end - start, "calibration_s": calibration,
            "status": status,
            "reason": reason, "digest": digest(results),
            "dual": results[commands.index("dual")]["stdout"] if "dual" in commands else None,
            "cardinality": _field(results[0]["stdout"], r"^cardinality: (\d+)$"),
        })
    result = {
        "elapsed_s": process_time() - loop_start,
        "wall_s": perf_counter() - wall_start,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops,
    }
    if tracer:
        result["trace"] = tracer.metrics()
        result["untraced"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans, op_spans)
    info = howell_cache_info()
    if info is not None:
        result["howell_cache"] = {"hits": info.hits, "misses": info.misses,
                                  "currsize": info.currsize}
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def mode_gate(args) -> None:
    from groupcodes import cli
    from groupcodes.specfmt import parse_spec
    import workloads

    manifest = load_manifest(args.specs)
    workload, specs = manifest["workload"], manifest["specs"]
    commands = workloads.COMMANDS[workload]
    with open(args.loop, encoding="utf-8") as handle:
        loop = json.load(handle)
    ops = loop["ops"]
    rng = random.Random(f"gate:{workload}:{args.seed}")
    verdicts: dict[int, str] = {}

    # 1. Determinism: a fresh interpreter must print the same bytes.
    reruns = rng.sample(ops, min(GATE_RERUNS, len(ops)))
    for op in reruns:
        path = spec_file(args.specs, specs[op["index"]])
        again = digest([run_command(cli, c, path) for c in commands])
        if again != op["digest"]:
            verdicts[op["index"]] = "stdout differs between runs of the same spec"

    # 2. |C| * |dual C| = |ambient| for every block op that printed both.
    dual_checked = 0
    for op in ops:
        if op["dual"] is None or op["cardinality"] is None:
            continue
        dual = parse_spec(op["dual"]).to_block_code()
        dual_checked += 1
        if int(op["cardinality"]) * dual.cardinality != dual.space.cardinality:
            verdicts[op["index"]] = "|C| * |dual| differs from |ambient|"

    # 3. Brute-force twin on a seeded sample that fits the oracle cheaply.
    candidates = [
        op for op in ops
        if op["status"] == "ok"
        and (specs[op["index"]]["ambient"] or 0) <= GATE_ORACLE_AMBIENT
    ]
    oracle = rng.sample(candidates, min(GATE_ORACLE, len(candidates)))
    for op in oracle:
        path = spec_file(args.specs, specs[op["index"]])
        r = run_command(cli, "oracle", path)
        if r["exit"] != 0 or not r["stdout"].rstrip().endswith("verdict: pass"):
            verdicts[op["index"]] = f"oracle disagrees: {r['stdout'][-200:]}{r['stderr']}"

    # 4. The known-defect probe, kept out of the ops: its status is reported,
    # and only a wrong answer counts against the run.
    probe = manifest["probe"]
    if probe is not None:
        start = process_time()
        path = spec_file(args.specs, probe)
        results = [run_command(cli, c, path) for c in commands]
        status, reason = check_op(probe, results)
        probe = {"stratum": probe["stratum"], "status": status, "reason": reason,
                 "cpu_s": process_time() - start}

    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump({
            "reruns": len(reruns), "dual_checked": dual_checked,
            "oracle": len(oracle), "oracle_candidates": len(candidates),
            "probe": probe,
            "failed": {str(k): v for k, v in verdicts.items()},
        }, handle)


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("loop")
    p.add_argument("--specs", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--ops", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", default=None)
    p.add_argument("--result", required=True)
    p = sub.add_parser("gate")
    p.add_argument("--specs", required=True)
    p.add_argument("--loop", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--result", required=True)
    args = parser.parse_args()
    {"setup": mode_setup, "loop": mode_loop, "gate": mode_gate}[args.mode](args)


if __name__ == "__main__":
    main()
