#!/usr/bin/env python3
"""Back-to-back twin pairs: one command run from two builds, alternating.

    python3 scripts/twin_pairs.py --pairs 10 --out twin.json \\
        --parent PARENT_BIN --change CHANGE_BIN -- ARGS...

Runs `PARENT_BIN ARGS` and `CHANGE_BIN ARGS` once per pair, one right
after the other, swapping which side goes first on every pair, so drift
on a shared host lands on both sides alike. Each run records its
wall-clock time and, from `wait4`'s rusage, its minor page faults and
max RSS. If the last line of a run's stdout is a JSON object with a
`metrics` map (the perfbench result line), every metric in it is
recorded too. An argument `{json}` is replaced by a fresh file per run;
all of those files must be byte-identical, and the result says whether
they were. A run that exits non-zero, or whose result line says
`"correct": false`, stops the script with exit 1.

The result lists every pair and, per metric, each side's quartiles
(median in the middle), the parent's inter-quartile range, the change's
wins, and the per-pair relative change (change / parent - 1).
"""

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

# Metrics where a larger value is better; every other metric is lower-is-better.
HIGHER_IS_BETTER = {"deliveries_per_s"}


def run_once(binary, args, scratch, tag):
    """Runs one side once; returns (metrics, envelope path or None)."""
    envelope = os.path.join(scratch, f"{tag}.json") if "{json}" in args else None
    argv = [binary] + [envelope if a == "{json}" else a for a in args]
    start = time.monotonic()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - start
    # Reaped by wait4 already; recording the code stops Popen waiting again.
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {child.returncode}")
    metrics = {
        "wall_clock_s": wall,
        "minor_page_faults": usage.ru_minflt,
        "max_rss_mb": usage.ru_maxrss / 1024.0,
    }
    lines = out.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if isinstance(result, dict) and "metrics" in result:
            if not result.get("correct", True):
                sys.exit(f"{' '.join(argv)} reported an incorrect result")
            for name, entry in result["metrics"].items():
                metrics[name] = entry["value"]
    return metrics, envelope


def summarize(pairs):
    summary = {}
    for name in pairs[0]["parent"]:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        higher = name in HIGHER_IS_BETTER
        wins = sum((c > a) if higher else (c < a) for a, c in zip(parent, change))
        parent_q = statistics.quantiles(parent, n=4)
        deltas = [c / a - 1.0 for a, c in zip(parent, change) if a]
        summary[name] = {
            "better": "higher" if higher else "lower",
            "parent_quartiles": parent_q,
            "change_quartiles": statistics.quantiles(change, n=4),
            "parent_iqr": parent_q[2] - parent_q[0],
            "change_wins": f"{wins}/{len(pairs)}",
            "per_pair_change_pct": [round(100.0 * d, 1) for d in deltas],
        }
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", required=True, help="binary built from the parent commit")
    parser.add_argument("--change", required=True, help="binary built from the change")
    parser.add_argument("--out", required=True, help="where to write the result JSON")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="-- then the command's arguments")
    opts = parser.parse_args()
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    pairs = []
    identical = True
    first_envelope = None
    with tempfile.TemporaryDirectory() as scratch:
        for i in range(opts.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"first": order[0]}
            for side in order:
                binary = opts.parent if side == "parent" else opts.change
                pair[side], envelope = run_once(binary, args, scratch, f"{i}-{side}")
                if envelope:
                    first_envelope = first_envelope or envelope
                    identical &= filecmp.cmp(first_envelope, envelope, shallow=False)
            pairs.append(pair)
            print(f"pair {i + 1}/{opts.pairs} done ({order[0]} first)", file=sys.stderr)

    result = {"args": args, "pairs": pairs, "summary": summarize(pairs)}
    if first_envelope:
        result["envelopes_byte_identical"] = identical
    with open(opts.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
