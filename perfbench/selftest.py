#!/usr/bin/env python3
"""The benchmark's own test.  From the root of a checkout:

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: all four) it runs the benchmark untraced and
traced for 2 s each, twice at seed 1 and once at seed 2, and checks that

  * every run exits 0 with "correct": true and no failed operation;
  * the printed metric names and units are exactly BENCHMARK.json's
    end_to_end (untraced) and per_layer (traced) lists;
  * every exact metric (ratios, allocation, counts, logical latency) is
    bit-identical across the two seed-1 runs.  Allocation with obs on
    (replay_obs) is the exception, held to 1e-3: the library's monotonic
    obs clock boxes a float only when the wall clock has moved since the
    last read, so a rep's minor words vary by about 1e-5;
  * seed 2 gives the same names and different exact counts, so the seed
    reaches the generator.  The suite is the exception: its sections take
    no seeded input, so its exact metrics must not move with the seed.

Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_E2E = {"miss_ratio", "alloc_w_per_req", "alloc_mw", "admit_share",
             "latency_p50_rounds", "latency_p999_rounds"}
# Per-layer figures that are counts rather than timings.  obs.export_bytes
# is left out: the exported JSON carries wall-clock timestamps, whose
# digit count varies.
EXACT_LAYER_UNITS = {"count", "words/req", "ratio"}
NOT_EXACT_LAYER = {"bench.trace_overhead", "obs.export_bytes"}
NEAR_EXACT = 1e-3
SECONDS = 2


def near_exact_only(workload, name):
    return workload == "replay_obs" and "alloc" in name


def same(workload, name, x, y):
    if near_exact_only(workload, name):
        return abs(x - y) <= NEAR_EXACT * max(abs(x), abs(y))
    return x == y


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} seed {seed} trace {trace}: {lines[-1][:300]}")
    return result["metrics"]


def exact_names(declared, trace):
    if trace == 0:
        return sorted(EXACT_E2E)
    return sorted(m["name"] for m in declared
                  if m["unit"] in EXACT_LAYER_UNITS and m["name"] not in NOT_EXACT_LAYER)


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = argv or [w["name"] for w in bench["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = bench[key]
        units = {m["name"]: m["unit"] for m in declared}
        exact = exact_names(declared, trace)
        for w in workloads:
            a = run(w, 1, trace)
            b = run(w, 1, trace)
            c = run(w, 2, trace)
            for label, m in (("seed 1", a), ("seed 1 again", b), ("seed 2", c)):
                got = {k: v["unit"] for k, v in m.items()}
                if got != units:
                    fail(f"{w} trace {trace} {label}: metric names/units differ from "
                         f"BENCHMARK.json {key}: {sorted(set(got) ^ set(units))}")
            for name in exact:
                if not same(w, name, a[name]["value"], b[name]["value"]):
                    fail(f"{w} trace {trace}: exact metric {name} moved at one seed: "
                         f"{a[name]['value']!r} vs {b[name]['value']!r}")
            moved = [n for n in exact if not same(w, n, a[n]["value"], c[n]["value"])]
            if w == "suite":
                if moved:
                    fail(f"suite trace {trace}: the seed moved {moved}")
            elif not moved:
                fail(f"{w} trace {trace}: no exact metric moved with the seed")
            print(f"selftest: {w} trace {trace}: {len(exact)} exact metrics repeat; "
                  f"{len(moved)} move with the seed", flush=True)
    print("selftest: ok")


if __name__ == "__main__":
    main(sys.argv[1:])
