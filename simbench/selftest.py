#!/usr/bin/env python3
"""Self-test of the simbench benchmark.

    python3 simbench/selftest.py

Runs every workload at reduced size (run.py --scale small) and checks that
  * run.py's metric tables agree with BENCHMARK.json (names and units);
  * a --trace 0 run emits every end-to-end metric and a --trace 1 run every
    per-layer metric, each a number with its unit, and both pass their
    correctness gate; the layers a workload exercises read non-zero;
  * the fingerprint gate works: a reference equal to the run's own
    fingerprint passes, a deliberately wrong one marks the run failed;
  * a repetition whose process dies is counted as failed, and the
    benchmark still returns a result.
Prints one line per check and exits non-zero if any check fails.
"""
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (run.py beside this file)

FAILURES = []

# Per-layer metrics that must read non-zero on a workload that exercises
# their layer (they read 0 elsewhere by design).
EXERCISED = {
    "cholesky-strong": ["hicma.rank_of_calls", "hicma.successors_calls",
                        "hicma.self_s", "hicma.rank_of_ns",
                        "amt_stack.self_s", "amt.forwards"],
    "cholesky-wide": ["hicma.rank_of_calls", "hicma.self_s",
                      "amt_stack.self_s", "net.egress_wait_p99_ns"],
    "am-stream": ["ce.send_am_ns", "ce.put_ns", "ce.progress_ns",
                  "ce.progress_calls", "ce.progress_hit_ratio", "ce.self_s",
                  "des_net.self_s"],
    "cholesky-crash": ["ce.rel.data", "ce.rel.retransmits",
                       "ce.rel.acks_per_data", "ce.fd.heartbeats",
                       "ce.fd.detect_p99_ms", "amt.reexec_ratio",
                       "net.fault.drops"],
}
COMMON = ["sim_tts_s", "sim_e2e_p50_ms", "sim_e2e_p99_ms", "des.events",
          "net.msgs", "des.host_ns_per_event"]


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def check_tables():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        check(False, "BENCHMARK.json present")
        return
    with open(path) as f:
        bench = json.load(f)
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(want_e2e == dict(run.END_TO_END),
          "end-to-end names and units match BENCHMARK.json")
    check(want_layer == {n: u for n, u, _ in run.PER_LAYER},
          "per-layer names and units match BENCHMARK.json")
    check([w["name"] for w in bench["workloads"]] == run.WORKLOADS,
          "workloads match BENCHMARK.json")


def check_emitted(result, table, label):
    metrics = result["metrics"]
    check(set(metrics) == set(table), label + ": every metric emitted")
    bad = [n for n, unit in table.items()
           if n not in metrics or metrics[n]["unit"] != unit or
           not isinstance(metrics[n]["value"], (int, float)) or
           not math.isfinite(metrics[n]["value"])]
    check(not bad, label + ": units and numeric values" +
          (" (bad: %s)" % ", ".join(bad) if bad else ""))
    check(result["correct"] and result["failed"] == 0 and
          result["attempted"] >= 1, label + ": correct, nothing failed")


def main():
    run.build()
    check_tables()
    e2e = dict(run.END_TO_END)
    layer = {n: u for n, u, _ in run.PER_LAYER}
    for w in run.WORKLOADS:
        plain = run.benchmark(w, 1, 0, False, "small", None)
        check_emitted(plain, e2e, w + " --trace 0")
        traced = run.benchmark(w, 1, 0, True, "small", None)
        check_emitted(traced, layer, w + " --trace 1")
        zero = [n for n in COMMON + EXERCISED[w]
                if traced["metrics"].get(n, {}).get("value", 0) <= 0]
        check(not zero, w + ": exercised layers report non-zero" +
              (" (zero: %s)" % ", ".join(zero) if zero else ""))

        rec, err = run.run_rep(w, 1, False, "small", run.DEADLINE_S)
        check(err is None, w + ": repetition runs")
        if err is not None:
            continue
        good = {k: rec[k] for k in run.FINGERPRINT}
        res = run.benchmark(w, 1, 0, False, "small", good)
        check(res["correct"], w + ": matching reference passes")
        wrong = dict(good, sim_tts_s=good["sim_tts_s"] * (1 + 1e-12) + 1e-12)
        res = run.benchmark(w, 1, 0, False, "small", wrong)
        check(not res["correct"] and res["failed"] == res["attempted"],
              w + ": wrong reference marks every repetition failed")

    res = run.benchmark("no-such-workload", 1, 0, False, "small", None)
    check(not res["correct"] and res["failed"] >= 1 and
          set(res["metrics"]) == set(e2e),
          "a repetition that exits non-zero is a counted failure")
    print("selftest: %s" % ("FAILED: " + "; ".join(FAILURES)
                            if FAILURES else "all checks passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
