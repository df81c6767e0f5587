#!/usr/bin/env python3
"""llmpq benchmark: plan-then-serve OPT-125m on the real threaded runtime.

    python3 perfbench/run.py --workload chat --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/bench.cpp together with the library sources in ../src,
runs one workload of perfbench/workloads.json, checks its outputs and
prints the metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, holding the end-to-end
metrics with --trace 0 and the per-layer metrics with --trace 1.

Build products, span files and run records go to .bench_build/ at the root
of the checkout (or to $CARGO_TARGET_DIR, taken relative to that root).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the benchmark's directory unchanged
import metrics as m  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BENCH_BUILD = os.path.join(BUILD, "perfbench")
BENCH = os.path.join(BENCH_BUILD, "llmpq_perfbench")
RUN_LIMIT_S = 170.0  # whole run, build excluded


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BENCH_BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BENCH_BUILD, "-j", jobs,
                    "--target", "llmpq_perfbench"],
                   check=True, stdout=sys.stderr)


def source_fingerprint():
    """Hash of the sources the benchmark is built from (plans are per commit)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def bench_args(name, seed, seconds, trace, trace_out=""):
    a = ["--config", os.path.join(HERE, "workloads.json"),
         "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)]
    return a + (["--trace-out", trace_out] if trace_out else [])


def run_bench(args, deadline):
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run([BENCH] + args, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()),
                          check=True, text=True)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    raw["exec_s"] = (raw["main_entry_ns"] - spawn_ns) * 1e-9
    return raw


def setup_times(raw):
    """Set-up durations; the first counts from process spawn."""
    s = raw["setups"]
    first = raw["exec_s"] + s[0]["end_s"]
    return [first] + [x["end_s"] - x["start_s"] for x in s[1:]]


def requests_of(raw):
    return raw["requests"] if "requests" in raw else m.offline_requests(raw)


def end_to_end(raw, w):
    reqs = requests_of(raw)
    done = [r for r in reqs if m.completed(r)]
    times = [m.request_times(r) for r in done]
    ttft = [t for t, _ in times]
    tpot = [p for _, p in times if p is not None]
    # Throughput over busy time: the batches' latency (offline), or the time
    # some request was due and unfinished (serving), so the schedule's idle
    # gaps do not hide the engine's speed.
    if "requests" in raw:
        gen = sum(r["generated"] for r in done)
        busy, sched = m.busy_seconds(reqs), raw["schedule_s"]
    else:
        busy = sched = sum(b["latency_s"] for b in raw["batches"])
        gen = len(done) * raw["gen_tokens"]
    ttft_tail = m.tail(ttft)
    tpot_tail = m.tail(tpot)
    out = {
        "setup_s": (statistics.median(setup_times(raw)), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "out_tok_s": (gen / busy, "tok/s"),
        "ttft_p50_s": (m.p50(ttft), "s"),
        "ttft_tail_s": (ttft_tail[0], "s"),
        "tpot_p50_s": (m.p50(tpot), "s"),
        "tpot_tail_s": (tpot_tail[0], "s"),
        "goodput_rps": (m.goodput(reqs, w["slo"]["ttft_s"],
                                  w["slo"]["tpot_s"], sched), "1/s"),
        "served_share": (1.0 - m.fail_share(reqs), "share"),
        "output_match": (raw["matched"] / raw["checked"]
                         if raw["checked"] else 0.0, "share"),
    }
    notes = {"ttft_tail_s": ttft_tail, "tpot_tail_s": tpot_tail}
    return out, notes


def stage_stats(raw):
    """Engine stage counters keyed by plan stage (empty stages read 0)."""
    eng = iter(raw["engine"]["stages"])
    out = []
    for b, e in raw["stages"]:
        out.append(next(eng) if e > b else None)
    return out


def per_layer(raw, cfg, overhead_share):
    setups = raw["setups"]
    e = raw["engine"]
    pl = {
        "core.assign_s": (statistics.median(s["assign_s"] for s in setups), "s"),
        "core.ilp_nodes": (raw["assigner"]["ilp_nodes"], "count"),
        "core.combos_tried": (raw["assigner"]["combos_tried"], "count"),
        "runtime.build_model_s": (
            statistics.median(s["build_model_s"] for s in setups), "s"),
        "runtime.weight_bytes": (raw["weight_bytes"], "bytes"),
        "engine.prefill_tok_s": (
            e["prefill_tokens"] / e["prefill_s"] if e["prefill_s"] else 0.0,
            "tok/s"),
        "engine.decode_tok_s": (
            e["decode_tokens"] / e["decode_s"] if e["decode_s"] else 0.0,
            "tok/s"),
        "engine.kv_bytes": (raw["kv_bytes"], "bytes"),
    }
    for p, st in enumerate(stage_stats(raw)):
        st = st or {"busy_s": 0.0, "idle_s": 0.0, "qgemm_s": 0.0,
                    "attn_s": 0.0, "inbox_hw": 0}
        tot = st["busy_s"] + st["idle_s"]
        pre = "engine.stage%d." % p
        pl[pre + "busy_s"] = (st["busy_s"], "s")
        pl[pre + "idle_s"] = (st["idle_s"], "s")
        pl[pre + "util"] = (st["busy_s"] / tot if tot else 0.0, "share")
        pl[pre + "qgemm_s"] = (st["qgemm_s"], "s")
        pl[pre + "attn_s"] = (st["attn_s"], "s")
        pl[pre + "inbox_hw"] = (st["inbox_hw"], "count")

    pr = raw["probes"]
    rows = pr["decode_m"]
    lm = pr["lm_head_ms_per_row"] * rows
    layers = sum(pr["layers"]["b%d" % b]["decode_ms_per_row"] * rows
                 for b in raw["layer_bits"]
                 if "b%d" % b in pr["layers"])
    step = pr["embed_ms_per_token"] * rows + layers + lm
    pl["lm_head.ms_per_row"] = (pr["lm_head_ms_per_row"], "ms/row")
    pl["lm_head.decode_step_share"] = (lm / step, "share")
    pl["embed.ms_per_token"] = (pr["embed_ms_per_token"], "ms/token")
    for b in cfg["probe_bits"]:
        lp = pr["layers"]["b%d" % b]
        pl["layer.prefill_ms_per_token.b%d" % b] = (
            lp["prefill_ms_per_token"], "ms/token")
        pl["layer.decode_ms_per_row.b%d" % b] = (lp["decode_ms_per_row"],
                                                 "ms/row")
    for b in cfg["probe_bits"]:
        for phase in ("decode", "prefill"):
            q = pr["qgemm"]["b%d" % b][phase]
            pl["qgemm.b%d.%s.gflops" % (b, phase)] = (q["gflops"], "GFLOP/s")
            pl["qgemm.b%d.%s.gbps" % (b, phase)] = (q["gbps"], "GB/s")
    pl["probe.decode_m"] = (pr["decode_m"], "rows")
    pl["probe.prefill_m"] = (pr["prefill_m"], "rows")

    reqs = raw.get("requests", [])
    done = [r for r in reqs if m.completed(r)]
    med = lambda xs: statistics.median(xs) if xs else 0.0
    pl["serve.queue_delay_p50_s"] = (med([r["queue_delay_s"] for r in done]), "s")
    pl["serve.prefill_p50_s"] = (med([r["prefill_s"] for r in done]), "s")
    pl["serve.rows_per_dispatch_mean"] = (raw.get("rows_per_dispatch_mean", 0.0),
                                          "rows")
    pl["serve.dispatches"] = (raw.get("dispatches", 0), "count")
    pl["serve.preemptions"] = (raw.get("preemptions", 0), "count")
    resumed = [r["resume_wait_s"] for r in done if r["resume_wait_s"] > 0]
    pl["serve.resume_wait_p50_s"] = (med(resumed), "s")
    pl["serve.forced_joins"] = (raw.get("forced_joins", 0), "count")
    pl["trace.overhead_share"] = (overhead_share, "share")
    pl["trace.spans"] = (raw["trace_spans"], "count")
    pl["trace.record_ms"] = (raw["trace_record_s"] * 1e3, "ms")
    return pl


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def save_json(path, value):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(value, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def print_report(raw, w, e2e, notes, trace):
    h = raw["host"]
    log_lines = [
        "host: cpu=%s nproc=%d simd=%s pool_threads=%d build=%s" % (
            h["cpu_model"], h["nproc"], h["simd"], h["pool_threads"],
            h["build_type"]),
        "plan: %s (solver %s)" % (raw["plan"], raw["assigner"]["solver"]),
    ]
    reqs = requests_of(raw)
    count = lambda o: sum(1 for r in reqs if r.get("outcome") == o)
    late = [r["submit_s"] - r["due_s"] for r in reqs]
    log_lines.append(
        "requests: sent=%d completed=%d timed_out=%d rejected=%d failed=%d "
        "missing=%d max_lateness_s=%.4f" % (
            len(reqs), count("completed"), count("timed_out"),
            count("rejected"), count("failed"), count("missing"), max(late)))
    log_lines.append("output check: %d/%d sampled requests match "
                     "reference_generate" % (raw["matched"], raw["checked"]))
    log_lines.append("fail_share: %.4f share" % m.fail_share(reqs))
    if w["mode"] == "offline":
        log_lines.append("offline_tok_s: %.4f tok/s (= out_tok_s)"
                         % e2e["out_tok_s"][0])
    for k, (v, unit) in e2e.items():
        extra = ""
        if k in notes:
            _, pct, n, short = notes[k]
            extra = "  (p%.1f of n=%d%s)" % (
                pct, n, ", fewer than 20 samples: max" if short else "")
        log_lines.append("%s%s: %.6g %s%s" % (
            "traced " if trace else "", k, v, unit, extra))
    print("\n".join(log_lines))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    m.self_test()
    if args.self_test:
        print("self-test passed")
        return 0
    with open(os.path.join(HERE, "workloads.json")) as f:
        cfg = json.load(f)
    if args.workload not in cfg["workloads"]:
        ap.error("--workload must be one of %s" % sorted(cfg["workloads"]))
    w = cfg["workloads"][args.workload]

    os.makedirs(BUILD, exist_ok=True)
    build()
    deadline = time.monotonic() + RUN_LIMIT_S  # the build is not counted
    fp = source_fingerprint()
    runs_path = os.path.join(BUILD, "perfbench-runs.json")
    runs = load_json(runs_path, {})
    trace_out = ""
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_out = os.path.join(BUILD, "traces", "%s-seed%d.json" % (
            args.workload, args.seed))
    raw = run_bench(bench_args(args.workload, args.seed, args.seconds,
                                 args.trace, trace_out), deadline)
    e2e, notes = end_to_end(raw, w)
    print_report(raw, w, e2e, notes, args.trace)

    # Correctness: outputs, plan stability, generator punctuality.
    errors = []
    if raw["checked"] == 0 or raw["matched"] != raw["checked"]:
        errors.append("output mismatch: %d/%d sampled requests match" % (
            raw["matched"], raw["checked"]))
    if not raw["plans_agree"]:
        errors.append("plan changed between set-ups of one run")
    key = "%s/%s" % (fp, args.workload)
    plans = runs.setdefault("plans", {})
    if plans.setdefault(key, raw["plan"]) != raw["plan"]:
        errors.append("plan differs from an earlier run of the same sources: "
                      "%s vs %s" % (plans[key], raw["plan"]))
    late = max(r["submit_s"] - r["due_s"] for r in requests_of(raw))
    if late > cfg["lateness_limit_s"]:
        errors.append("generator fell %.3f s behind its schedule (limit %.3f "
                      "s): run flagged, not a measurement" % (
                          late, cfg["lateness_limit_s"]))

    if args.trace:
        # Tracing overhead: traced throughput against untraced runs of the
        # same sources; with none recorded yet, make one now.
        base = runs.setdefault("untraced", {}).setdefault(key, [])
        if not base and not errors:
            log("no untraced run of these sources yet: running one")
            base.append(end_to_end(run_bench(bench_args(
                args.workload, args.seed, args.seconds, 0) + ["--setups", "1"],
                deadline), w)[0]["out_tok_s"][0])
        overhead = (1.0 - e2e["out_tok_s"][0] / statistics.median(base)
                    if base else 0.0)
        result = per_layer(raw, cfg, overhead)
        print("traced spans written to %s" % os.path.relpath(trace_out, ROOT))
        print("qgemm.*.gbps: bytes moved are computed from tensor sizes "
              "(packed weights + fp32 input, output, bias), not measured")
        for k, (v, unit) in result.items():
            print("%s: %.6g %s" % (k, v, unit))
    else:
        runs.setdefault("untraced", {}).setdefault(key, []).append(
            e2e["out_tok_s"][0])
        result = e2e
    save_json(runs_path, runs)
    declared = load_json(os.path.join(ROOT, "BENCHMARK.json"), {}).get(
        "per_layer" if args.trace else "end_to_end", [])
    if {d["name"]: d["unit"] for d in declared} != {
            k: u for k, (_, u) in result.items()}:
        errors.append("metric names or units differ from BENCHMARK.json")

    for e in errors:
        print("ERROR: " + e)
    reqs = requests_of(raw)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(reqs),
        "failed": sum(1 for r in reqs if not m.completed(r)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("benchmark failed: %s" % e)  # no result line is printed
        sys.exit(1)
