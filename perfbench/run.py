"""uqsl2 benchmark: end-to-end metrics, exact output checks, per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify_spot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each pass of a workload runs in a fresh interpreter (``worker.py``), so the
program's caches start cold as they do for a CLI user. Passes repeat, one at
a time, while another pass still fits in ``--seconds``; at least one pass
runs. Every output of every pass is checked after the pass, outside the
timed region. ``--trace 1`` adds one traced pass for the per-layer metrics;
its outputs are checked too.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 21
PROBES_PER_PASS = 7
RUN_LIMIT_S = 170  # every run ends well inside the 180 s budget
FAILURES_SHOWN = 5
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms",
                    "req_p90_ms": "ms", "peak_rss_mb": "MB"}

# per-layer metric -> (layer, field, unit)
PER_LAYER = {}
for _layer, _fields in (
        ("qfield.laurent_mul", ("calls", "term_pairs", "self_s")),
        ("qfield.ratfunc_op", ("calls", "reduced_share", "self_s")),
        ("qfield.evaluate", ("calls", "self_s")),
        ("exprio.parse", ("calls", "self_s")),
        ("ncore.pbw_mul", ("calls", "term_pairs", "self_s")),
        ("ncore.normalize", ("calls", "self_s")),
        ("repmod.matmul", ("calls", "entry_mults", "self_s")),
        ("repmod.inverse", ("calls", "self_s")),
        ("qexpops.verify", ("calls", "self_s")),
        ("gammamod.verify", ("self_s",)),
        ("cli.request", ("self_s",))):
    for _field in _fields:
        PER_LAYER["%s.%s" % (_layer, _field)] = (
            _layer, _field, {"self_s": "s", "reduced_share": "share"}.get(_field, "count"))
TASK_GROUPS = ("module", "operator", "closed_form", "gamma", "algebra")

# One set-up sample: import time of uqsl2.cli in a fresh interpreter,
# normalized by the reference loop timed just before and after it.
PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; import hostspeed; "
         "r = hostspeed.reference_time(); t = time.perf_counter(); import uqsl2.cli; "
         "d = time.perf_counter() - t; r += hostspeed.reference_time(); "
         "print(d * hostspeed.NOMINAL_S * 2 / r)")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "uqsl2")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _deadline_left(t_start):
    left = RUN_LIMIT_S - (time.perf_counter() - t_start)
    if left <= 0:
        raise BenchError("run exceeded %d s" % RUN_LIMIT_S)
    return left


def _setup_probes(count, t_start):
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", PROBE, os.path.join(ROOT, "src"), HERE],
                             capture_output=True, text=True,
                             timeout=_deadline_left(t_start))
        if out.returncode != 0:
            raise BenchError("importing uqsl2.cli failed:\n" + out.stderr)
        samples.append(float(out.stdout))
    return samples


def _run_pass(workload, payload, traced, t_start):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload]
    if traced:
        argv.append("--trace")
    out = subprocess.run(argv, input=payload, capture_output=True, text=True,
                         timeout=_deadline_left(t_start))
    if out.returncode != 0:
        raise BenchError("worker failed:\n" + out.stderr[-4000:])
    return json.loads(out.stdout)


# --- output checks -----------------------------------------------------------

def _check_verify_symbolic(inputs, outputs, expected):
    exp = expected["verify_symbolic"]
    out = outputs[0]
    try:
        report = json.loads(out["stdout"])
        failed = oracles.check_rows(report["entries"], exp["checks"], exp["rows_sha256"])
    except (ValueError, KeyError, TypeError):
        return exp["checks"], exp["checks"], ["unparsable output: %.200s" % out["stdout"]]
    if out["code"] != 0 or report.get("status") != "pass" \
            or report.get("checks") != exp["checks"]:
        failed = max(failed, 1)
    notes = [] if not failed else [
        "exit %s, status %s, %s checks, %s failed rows" % (
            out["code"], report.get("status"), report.get("checks"), report.get("failed"))]
    return exp["checks"], failed, notes


def _check_verify_spot(inputs, outputs, expected):
    exp = expected["verify_spot"]
    by_point, notes = {}, []
    for request, out in zip(inputs, outputs):
        rows = out.get("rows", [])
        by_point.setdefault(request["q0"], []).extend(rows)
        bad = [r["identity"] for r in rows if r.get("status") != "pass"]
        if "error" in out or bad:
            notes.append("%s n=%d eps=%+d q0=%s: %s" % (
                request["kind"], request["n"], request["eps"], request["q0"],
                out.get("error") or ", ".join(bad[:3])))
    attempted = failed = 0
    for q0, rows in by_point.items():
        attempted += exp["checks_per_point"]
        bad = oracles.check_rows(rows, exp["checks_per_point"], exp["rows_sha256"])
        if bad and not notes:
            notes.append("q0=%s: row set differs from the recorded digest" % q0)
        failed += bad
    return attempted, failed, notes


def _check_normalize_words(inputs, outputs, oracle):
    failed, notes = 0, []
    for request, out in zip(inputs, outputs):
        word = "*".join(request["letters"])
        if "error" in out:
            failed += 1
            notes.append("%s [%s]: %.200s" % (word, request["presentation"], out["error"]))
            continue
        text = oracles.terms_text(out["terms"])
        if not oracle.check(request["letters"], text):
            failed += 1
            notes.append("%s [%s] gave %.160s" % (word, request["presentation"], text))
    return len(inputs), failed, notes


# --- one workload --------------------------------------------------------------

def _check(workload, inputs, outputs, expected, oracle):
    """(attempted, failed, notes) for the outputs of one pass."""
    if workload == "normalize_words":
        return _check_normalize_words(inputs, outputs, oracle)
    if workload == "verify_spot":
        return _check_verify_spot(inputs, outputs, expected)
    return _check_verify_symbolic(inputs, outputs, expected)


def run_workload(workload, seed, seconds, traced):
    t_start = time.perf_counter()
    inputs = workloads.make_inputs(workload, seed)
    payload = json.dumps(inputs)
    expected = oracles.load_expected()
    oracle = oracles.NormalFormOracle()
    counts = {"attempted": 0, "failed": 0, "notes": []}

    def run_and_check(trace_pass):
        result = _run_pass(workload, payload, trace_pass, t_start)
        a, f, notes = _check(workload, inputs, result.pop("outputs"), expected, oracle)
        counts["attempted"] += a
        counts["failed"] += f
        counts["notes"] = counts["notes"] or notes
        return result

    setup_samples, passes = [], []
    measure_start = time.perf_counter()
    while True:
        setup_samples += _setup_probes(PROBES_PER_PASS, t_start)
        t0 = time.perf_counter()
        passes.append(run_and_check(False))
        pass_s = time.perf_counter() - t0
        if time.perf_counter() - measure_start + pass_s > seconds:
            break
    setup_samples += _setup_probes(max(0, SETUP_PROBES - len(setup_samples)), t_start)

    latencies = [x for p in passes for x in p["latencies_s"]]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "req_p50_ms": 1000 * _percentile(latencies, 0.5),
        "req_p90_ms": 1000 * _percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    report = {
        "workload": workload, "seed": seed, "inputs_sha256": workloads.inputs_digest(inputs),
        "requests_per_pass": len(inputs), "passes": len(passes),
        "latency_samples": len(latencies), "setup_samples": len(setup_samples),
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "end_to_end": metrics,
    }
    if traced:
        result = run_and_check(True)
        report["per_layer"] = _per_layer(result, metrics["wall_s"])
        report["trace_file"] = _write_trace(workload, seed, result)
    report.update(attempted=counts["attempted"], failed=counts["failed"],
                  failing_inputs=counts["notes"][:FAILURES_SHOWN])
    return report


def _per_layer(result, untraced_wall):
    layers = result["layers"]
    per_layer = {}
    for name, (layer, field, _unit) in PER_LAYER.items():
        st = layers.get(layer, {"calls": 0, "self_s": 0.0, "work": 0, "reduced": 0})
        if field == "reduced_share":
            value = st["reduced"] / st["calls"] if st["calls"] else 0.0
        elif field in ("term_pairs", "entry_mults"):
            value = st["work"]
        else:
            value = st[field]
        per_layer[name] = value
    for group in TASK_GROUPS:
        per_layer["cli.task.%s.wall_s" % group] = result["tasks"].get(group, 0.0)
    per_layer["trace_overhead_s"] = result["wall_s"] - untraced_wall
    return per_layer


def _write_trace(workload, seed, result):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (workload, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": _meta(seed), "workload": workload,
                   "traced_wall_s": result["wall_s"], "layers": result["layers"],
                   "tasks": result["tasks"], "spans": result["spans"]}, fh)
    return os.path.relpath(path, ROOT)


def per_layer_unit(name):
    if name in PER_LAYER:
        return PER_LAYER[name][2]
    return "s"


def _meta(seed):
    return {"seed": seed, "commit": _commit(), "source_sha256": _source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def _print_report(report):
    w = report["workload"]
    print("== %s  seed %d  inputs sha256 %s" % (w, report["seed"], report["inputs_sha256"]))
    print("   %d requests per pass, %d passes, %d latency samples, %d set-up samples"
          % (report["requests_per_pass"], report["passes"], report["latency_samples"],
             report["setup_samples"]))
    print("   times below are normalized to the nominal host speed; median raw pass"
          " wall time %.4f s" % report["raw_wall_s"])
    for name, value in report["end_to_end"].items():
        print("   %-14s %12.4f %s" % (name, value, END_TO_END_UNITS[name]))
    a, f = report["attempted"], report["failed"]
    print("   %-14s %12.6f (%d failed of %d attempted)" % ("fail_ratio", f / a, f, a))
    for note in report["failing_inputs"]:
        print("   failing: %s" % note)
    for name, value in report.get("per_layer", {}).items():
        print("   %-34s %16.6f %s" % (name, value, per_layer_unit(name)))
    if "trace_file" in report:
        print("   trace written to %s" % report["trace_file"])


def _contract_line(report, traced):
    if traced:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in report["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in report["end_to_end"].items()}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "uqsl2", "cli.py")):
        print("no uqsl2 sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    print("meta " + json.dumps(_meta(args.seed), sort_keys=True))
    try:
        if args.workload != "all":
            report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            _print_report(report)
            print(json.dumps(_contract_line(report, bool(args.trace))))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads.WORKLOADS:
            report = run_workload(workload, args.seed, args.seconds, True)
            _print_report(report)
            for traced in (False, True):
                line = _contract_line(report, traced)
                for name, metric in line["metrics"].items():
                    combined["metrics"]["%s.%s" % (workload, name)] = metric
            combined["correct"] &= report["failed"] == 0
            combined["attempted"] += report["attempted"]
            combined["failed"] += report["failed"]
        print(json.dumps(combined))
        return 0
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
