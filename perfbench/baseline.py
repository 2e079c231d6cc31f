#!/usr/bin/env python3
"""Regenerates perfbench/baseline.json from the repository root.

    python3 perfbench/baseline.py [--seeds 10] [--seed0 1000]

For every workload in BENCHMARK.json it runs the benchmark command once per
seed with tracing off, and reports each end-to-end metric's median and its
spread (the distance between the first and third quartile over the median).
Then it makes one traced run per workload, records the per-layer split, and
checks it against the predictions each workload was chosen for. A failed
prediction is recorded as failed; nothing is retuned to fit it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# Which end-to-end metric each layer's metrics should move, and where.
LAYER_MAP = [
    {"layer": "langs", "metrics": ["langs.sample_s", "langs.words"],
     "moves": ["setup_s"], "on": ["token_ring"], "flat_on": ["wide_payload"]},
    {"layer": "automata", "metrics": ["automata.build_s"],
     "moves": ["setup_s"], "on": [], "note": "small on every workload"},
    {"layer": "sim::engine", "metrics": ["engine.run_s", "engine.self_s", "engine.ns_per_delivery",
                                         "engine.self_s.fifo", "engine.self_s.random",
                                         "engine.self_s.longest_queue"],
     "moves": ["deliveries_per_s", "wall_s", "run_ms_p50", "run_ms_p90"],
     "on": ["token_ring", "bidir_adversary"], "flat_on": ["wide_payload"]},
    {"layer": "sim::engine process construction",
     "metrics": ["engine.process_build_s", "engine.process_builds"],
     "moves": ["wall_s", "peak_rss_mb"], "on": ["token_ring"], "flat_on": ["wide_payload"]},
    {"layer": "simulated counts", "metrics": ["engine.deliveries", "engine.messages",
                                              "engine.bits_sent", "engine.max_message_bits"],
     "moves": [], "on": [], "note": "repeat exactly; a simulator-only change leaves them unchanged"},
    {"layer": "core and bitio handlers", "metrics": ["handlers.self_s", "handlers.calls",
                                                     "handlers.ns_per_call", "handlers.bits_in",
                                                     "handlers.ns_per_kbit"],
     "moves": ["wall_s", "deliveries_per_s"], "on": ["wide_payload"], "flat_on": ["token_ring"]},
    {"layer": "analysis::sweep and sim::pool", "metrics": ["sweep.calls", "sweep.jobs", "sweep.wall_s",
                                                           "sweep.busy_s", "sweep.utilization",
                                                           "sweep.tail_s"],
     "moves": ["wall_s"], "on": ["suite_large"]},
    {"layer": "analysis::registry", "metrics": ["harness.spec_s.<ID>", "harness.serial_s"],
     "moves": ["wall_s"], "on": ["suite_large"]},
]


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    out = subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: checks failed\n{out}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def predictions(split):
    """The split each workload was chosen for, as (claim, held) pairs."""
    def engine(w):
        return split[w]["engine.self_s"] + split[w]["engine.process_build_s"]

    def handlers(w):
        return split[w]["handlers.self_s"]

    sweep = [m for m in split["suite_large"] if m.startswith("sweep.")]
    return [
        ("handlers.self_s is the largest share of wide_payload's engine.run_s",
         handlers("wide_payload") > engine("wide_payload")),
        ("handlers.self_s is a minor share of token_ring's engine.run_s",
         handlers("token_ring") < engine("token_ring")),
        ("engine.self_s + engine.process_build_s is the largest share of token_ring's engine.run_s",
         engine("token_ring") > handlers("token_ring")),
        ("engine.self_s + engine.process_build_s is a minor share of wide_payload's engine.run_s",
         engine("wide_payload") < handlers("wide_payload")),
        ("engine.self_s.random > engine.self_s.fifo on bidir_adversary",
         split["bidir_adversary"]["engine.self_s.random"] > split["bidir_adversary"]["engine.self_s.fifo"]),
        ("the sweep.* metrics are nonzero only on suite_large",
         all(split["suite_large"][m] > 0 for m in sweep)
         and all(split[w][m] == 0 for w in split if w != "suite_large" for m in sweep)),
        ("langs.sample_s is most of token_ring's set-up and under a millisecond on wide_payload",
         split["token_ring"]["langs.sample_s"] > split["token_ring"]["automata.build_s"]
         and split["wide_payload"]["langs.sample_s"] < 1e-3),
        ("automata.build_s is under a millisecond on every workload",
         all(split[w]["automata.build_s"] < 1e-3 for w in split)),
    ]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    end_to_end = {}
    for w in (w["name"] for w in bench["workloads"]):
        runs = [run(bench, w, s, 0) for s in range(args.seed0, args.seed0 + args.seeds)]
        end_to_end[w] = {}
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            end_to_end[w][m["name"]] = {
                "median": med, "spread": (q3 - q1) / med, "bound": m["bound"], "unit": m["unit"],
                "values": values,
            }
            print(f"{w:16s} {m['name']:18s} {med:12.6g} {m['unit']:4s} spread {(q3 - q1) / med:.3f}",
                  flush=True)

    split = {w: run(bench, w, args.seed0, 1) for w in end_to_end}
    checked = [{"prediction": p, "held": held} for p, held in predictions(split)]
    for c in checked:
        print(("held   " if c["held"] else "FAILED ") + c["prediction"])

    baseline = {
        "machine": f"{platform.machine()}, nproc = {os.cpu_count()}",
        "regenerate": "python3 perfbench/baseline.py --seeds %d --seed0 %d" % (args.seeds, args.seed0),
        "seeds": [args.seed0, args.seed0 + args.seeds - 1],
        "end_to_end": end_to_end,
        "layer_map": LAYER_MAP,
        "traced_split": {"seed": args.seed0, "metrics": split},
        "predictions": checked,
    }
    with open(os.path.join(ROOT, "perfbench", "baseline.json"), "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
