#!/usr/bin/env python3
"""Checks the determinism digests pinned in tests/golden/digests.json.

    python3 tests/golden/check_digests.py --dir build/bench

reads the outputs the CI bench-quick job leaves in build/bench: the
quick-mode summaries of e15, e20 and e22
(BENCH_dataplane.json, BENCH_ops.json, BENCH_tracing.json), the stdout of
the seed-1 and seed-5 pvnbench smoke runs, saved as
pvnbench_<workload>_seed<seed>.txt, and the stdout of the quick-mode runs
of A1, E4-E14, E16, E18, E19, E21 and Fig. 1a-c and of the five examples,
saved as stdout_<name>.txt and pinned as a SHA-256 prefix each. It prints every pinned value that moved
and exits 1 if any did.

    python3 tests/golden/check_digests.py --dir build/bench --run --write

regenerates the file. --run first produces those outputs: it runs the 22
benches in quick mode from --dir and the examples from the sibling
examples/ directory (build both in Release first), and the six pvnbench
smoke runs. --write then stores the values instead of comparing them. A
change that moves a pinned value says why in CHANGES.md.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "digests.json")
WORKLOADS = ("fleet_churn", "chain_web", "tunnel_mix")
SEEDS = (1, 5)
BENCHES = ("bench_e15_dataplane", "bench_e20_ops", "bench_e22_tracing")
# Whole-stdout pins: every experiment bench without a host-time gate (all
# but e15, e17, e20 and e22), and the examples.
STDOUT_BENCHES = ("bench_a1_tcp_ablation", "bench_e4_scalability",
                  "bench_e5_tunnel_overhead", "bench_e6_split_tcp",
                  "bench_e7_throttling", "bench_e8_discovery", "bench_e9_pii",
                  "bench_e10_tls", "bench_e11_dns", "bench_e12_prefetch",
                  "bench_e13_audit", "bench_e14_negotiation",
                  "bench_e16_resilience", "bench_e18_survivability",
                  "bench_e19_adversarial", "bench_e21_chaos",
                  "bench_fig1a_pvnc", "bench_fig1b_deployment",
                  "bench_fig1c_redirection")
EXAMPLES = ("quickstart", "secure_roaming", "selective_redirection",
            "audit_demo", "pvn_store")


def pvnbench_output(out_dir, workload, seed):
    return os.path.join(out_dir, "pvnbench_%s_seed%d.txt" % (workload, seed))


def stdout_output(out_dir, name):
    return os.path.join(out_dir, "stdout_%s.txt" % name)


def run_producers(out_dir):
    env = dict(os.environ, PVN_BENCH_QUICK="1")
    for exe in BENCHES:
        # Not check=True: a host-time gate that fails on a busy host still
        # leaves its summary behind, and the digests do not depend on it.
        subprocess.run([os.path.join(out_dir, exe)], cwd=out_dir, env=env,
                       stdout=subprocess.DEVNULL)
    examples_dir = os.path.join(os.path.dirname(out_dir), "examples")
    for name in STDOUT_BENCHES + EXAMPLES:
        exe = os.path.join(examples_dir if name in EXAMPLES else out_dir, name)
        with open(stdout_output(out_dir, name), "w") as out:
            subprocess.run([exe], cwd=out_dir, env=env, stdout=out,
                           check=True)
    for seed in SEEDS:
        for w in WORKLOADS:
            with open(pvnbench_output(out_dir, w, seed), "w") as out:
                subprocess.run([sys.executable,
                                os.path.join(ROOT, "pvnbench", "run.py"),
                                "--workload", w, "--seed", str(seed),
                                "--seconds", "1", "--trace", "1"],
                               stdout=out, check=True)


def load_summary(out_dir, name):
    with open(os.path.join(out_dir, "BENCH_%s.json" % name)) as f:
        summary = json.load(f)
    if summary.get("quick") is not True:
        sys.exit("BENCH_%s.json is not from a quick-mode run" % name)
    return summary


def observe(out_dir):
    """Every pinned value, as read from the outputs in out_dir."""
    values = {}
    for seed in SEEDS:
        for w in WORKLOADS:
            with open(pvnbench_output(out_dir, w, seed)) as f:
                m = re.search(r"outcome digest ([0-9a-f]{16})", f.read())
            values["pvnbench.seed%d.%s.outcome_digest" % (seed, w)] = (
                m.group(1) if m else None)
    e15 = load_summary(out_dir, "dataplane")["scenario"]
    values["e15.digest"] = e15["digest"]
    values["e15.events"] = e15["events"]
    e20 = load_summary(out_dir, "ops")
    values["e20.snapshot_barrier_us"] = e20["snapshot_barrier_us"]
    values["e20.snapshot_delta_digest"] = str(e20["snapshot_delta_digest"])
    e22 = load_summary(out_dir, "tracing")
    for kind in ("alerts", "trace"):
        values["e22.%s_digest" % kind] = str(e22["%s_digest" % kind])
    for name in STDOUT_BENCHES + EXAMPLES:
        with open(stdout_output(out_dir, name), "rb") as f:
            values["stdout.%s" % name] = hashlib.sha256(
                f.read()).hexdigest()[:16]
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True,
                        help="directory holding the bench outputs")
    parser.add_argument("--run", action="store_true",
                        help="produce the outputs first")
    parser.add_argument("--write", action="store_true",
                        help="store the values instead of comparing them")
    args = parser.parse_args()
    out_dir = os.path.abspath(args.dir)
    if args.run:
        run_producers(out_dir)
    values = observe(out_dir)

    if args.write:
        with open(GOLDEN, "w") as f:
            json.dump(values, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %d values to %s" % (len(values), GOLDEN))
        return 0

    with open(GOLDEN) as f:
        golden = json.load(f)
    moved = 0
    for key, want in sorted(golden.items()):
        got = values.get(key)
        if got != want:
            print("MOVED %s: pinned %r, got %r" % (key, want, got))
            moved += 1
    if moved:
        print("%d of %d pinned values moved; if the change means to move "
              "them, regenerate with --run --write and say why in "
              "CHANGES.md" % (moved, len(golden)))
        return 1
    print("all %d pinned values match" % len(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
