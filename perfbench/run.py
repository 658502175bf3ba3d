#!/usr/bin/env python3
"""The stack's end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-benchmark-json

Builds perfbench/ and the libraries under src/ from source into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, checks its
outputs and prints every metric by name with its unit.  The last line of
stdout is one JSON object: the end-to-end metrics with --trace 0, the
per-layer metrics of the traced build with --trace 1.

--self-test runs a short version of each workload at 1 and 4 shard
workers, untraced and traced, and fails unless all give the same
transcript digests and simulated metrics.

--write-benchmark-json regenerates BENCHMARK.json from the definitions
below, which are the single source of the workload and metric lists.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CELLS = 12
RUN_SECONDS = 20

# (name, why).  The shares are from traced runs on seed 7 (README.md).
WORKLOADS = [
    ("dense_mix",
     "Paper deployment at scenario_runner's rates (sends every 120 s and 300 s). Loads crypto:"
     " sign 68% + verify 29% of CPU; 89% of signatures are counterparty commits."),
    ("paper_sparse",
     "Paper traffic (sends every 1,500 s and 1,200 s, half a day per cell). Loads the event loop:"
     " ~3,600 sim events per packet against ~720 in dense_mix."),
    ("reorg_storm",
     "dense_mix traffic on a fork-aware host under the storm preset. Loads genesis-replay rollback:"
     " untraced code 49% of CPU, crypto 36%, ~1,500 trie writes per packet."),
]

# (name, unit, better, bound)
END_TO_END = [
    ("cpu_s_per_packet", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
    ("send_final_p50_s", "sim_s", "lower", 0.2),
    ("lc_update_p50_s", "sim_s", "lower", 0.1),
    ("lc_update_p90_s", "sim_s", "lower", 0.1),
    ("relayer_usd_per_packet", "USD", "lower", 0.2),
]


def _per_layer():
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []

    def count(name, better="lower"):
        out.append((name, "count", better))
        out.append((name + "_per_packet", "count/packet", better))

    def cpu(layer):
        out.append((layer + ".cpu_s", "s", "lower"))
        out.append((layer + ".cpu_s_per_packet", "s/packet", "lower"))
        out.append((layer + ".cpu_share", "ratio", "lower"))

    count("crypto.sign.calls")
    cpu("crypto.sign")
    count("crypto.sign.counterparty_calls")
    count("crypto.verify.items")
    count("crypto.verify.batches")
    cpu("crypto.verify")
    out.append(("crypto.verify.unique_ratio", "ratio", "higher"))
    count("crypto.sha256.calls")
    cpu("crypto.sha256")
    count("trie.writes")
    cpu("trie.writes")
    for layer in ("trie.commit", "trie.prove", "trie.verify_proof", "ibc.update_client",
                  "ibc.packet", "counterparty.header"):
        count(layer + ".calls")
        cpu(layer)
    for name in ("host.txs_submitted", "host.txs_executed", "host.txs_failed",
                 "host.txs_dropped"):
        count(name)
    out.append(("host.inclusion_ratio", "ratio", "higher"))
    for name in ("host.reorgs", "host.slots_rolled_back", "host.txs_replayed",
                 "relayer.sequences", "relayer.lc_updates"):
        count(name)
    out.append(("relayer.txs_per_lc_update", "count", "lower"))
    count("relayer.retries")
    count("sim.events")
    cpu("sim.residual")
    out.append(("sim.residual_us_per_event", "us/event", "lower"))
    out.append(("run.cpu_s", "s", "lower"))
    out.append(("setup.open_retries", "count", "lower"))
    out.append(("trace.overhead_cpu_s_per_packet", "s/packet", "lower"))
    out.append(("guest.send_final_p90_s", "sim_s", "lower"))
    out.append(("guest.send_final_samples", "count", "higher"))
    out.append(("guest.send_unfinalised", "count", "lower"))
    out.append(("relayer.lc_update_samples", "count", "higher"))
    out.append(("shard.cpu_s", "s", "lower"))
    out.append(("shard.parallel_efficiency", "ratio", "higher"))
    out.append(("shard.straggler_ratio", "ratio", "lower"))
    return out


PER_LAYER = _per_layer()


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    """Configures (once) and builds both driver binaries; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} is missing; run from a full checkout")
    bdir = build_dir()
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))  # keep compiler temporaries in the checkout
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), *gen])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench", "perfbench_traced",
                  "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=880)
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return bdir


def run_driver(binary, workload, seed, seconds, *extra):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           *extra]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=seconds + 150)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited with {res.returncode}", 1)
    return json.loads(lines[-1])


def measure_setup(binary, workload, seed):
    """Seconds from process start to an open channel, median over one
    fresh process for each of the run's first SETUP_CELLS cells (so
    one-time initialisation counts)."""
    samples = []
    for cell in range(SETUP_CELLS):
        t0 = time.perf_counter()
        with subprocess.Popen([str(binary), "--workload", workload, "--seed", str(seed),
                               "--setup-only", "--cell", str(cell)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line != "open":
                fail(f"setup of {workload} cell {cell} failed", 1)
    return statistics.median(samples)


def check_run(res, problems):
    """Output checks shared by every run of a perfbench binary."""
    if not res["clean"]:
        problems.append("invariant auditor reported violations: " + res["verdict"])
    if not res["distinct_cells"]:
        problems.append("two cells produced the same transcript digest")
    if not 0 <= res["failed"] <= res["attempted"] or res["attempted"] < 1:
        problems.append("packet accounting is inconsistent")


# Outputs that depend on the seed alone, never on workers or tracing.
SIMULATED_E2E = ["send_final_p50_s", "lc_update_p50_s", "lc_update_p90_s",
                 "relayer_usd_per_packet"]
SIMULATED_SIM = ["guest.send_final_p90_s", "guest.send_final_samples",
                 "guest.send_unfinalised", "relayer.lc_update_samples"]
SELF_TEST_SEED = 42
SELF_TEST_SCALE = "0.2"


def self_test(bdir):
    """A short run of each workload gives identical digests and simulated
    metrics untraced at 1 and 4 shard workers and traced at 4."""
    problems = []
    for workload, _ in WORKLOADS:
        runs = [(label, run_driver(bdir / binary, workload, SELF_TEST_SEED, 0,
                                   "--workers", workers, "--scale", SELF_TEST_SCALE))
                for label, binary, workers in (("untraced/1", "perfbench", "1"),
                                               ("untraced/4", "perfbench", "4"),
                                               ("traced/4", "perfbench_traced", "4"))]
        _, ref = runs[0]
        for label, res in runs:
            check_run(res, problems)
            diffs = [k for k in ("cell_digests", "attempted", "delivered", "failed")
                     if res[k] != ref[k]]
            diffs += [k for k in SIMULATED_E2E if res["e2e"][k] != ref["e2e"][k]]
            diffs += [k for k in SIMULATED_SIM if res["sim"][k] != ref["sim"][k]]
            if diffs:
                problems.append(f"{workload} {label} differs from untraced/1 in {diffs}")
            print(f"self-test {workload} {label}: digest={res['digest']}"
                  f" attempted={res['attempted']:g} delivered={res['delivered']:g}")
    for p in problems:
        print(f"perfbench: FAILED: {p}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-benchmark-json", action="store_true")
    args = ap.parse_args()
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.self_test:
        return self_test(build())
    if None in (args.workload, args.seed, args.seconds, args.trace) or args.seed < 0 \
            or args.seconds < 1:
        ap.error("--workload, --seed >= 0, --seconds >= 1 and --trace are required")

    bdir = build()
    untraced, traced = bdir / "perfbench", bdir / "perfbench_traced"
    problems = []
    if args.trace == 0:
        setup_s = measure_setup(untraced, args.workload, args.seed)
        res = run_driver(untraced, args.workload, args.seed, args.seconds)
        check_run(res, problems)
        values = dict(res["e2e"], setup_s=setup_s)
        spec = [(n, u) for n, u, _, _ in END_TO_END]
    else:
        # Half the time traced, half untraced on the same cells: the
        # difference is the tracing overhead.
        res = run_driver(traced, args.workload, args.seed, args.seconds // 2)
        ref = run_driver(untraced, args.workload, args.seed, args.seconds // 2)
        check_run(res, problems)
        check_run(ref, problems)
        if res["cell_digests"] != ref["cell_digests"]:
            problems.append(f"traced digest {res['digest']} != untraced {ref['digest']}")
        values = dict(res["layers"], **res["sim"])
        values["trace.overhead_cpu_s_per_packet"] = (
            res["e2e"]["cpu_s_per_packet"] - ref["e2e"]["cpu_s_per_packet"])
        must_cross = ["crypto.sign.calls"]
        if args.workload == "reorg_storm":
            must_cross.append("host.slots_rolled_back")
        for name in must_cross:
            if values[name] == 0:
                problems.append(f"boundary {name} recorded zero calls")
        spec = [(n, u) for n, u, _ in PER_LAYER]
    for name, _ in spec:
        # perfbench writes null for a quantile that fell on a send that
        # never finalised.
        if values[name] is None:
            problems.append(f"{name} has no finite value")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} rounds={res['rounds']:g}"
          f" digest={res['digest']} attempted={res['attempted']:g} failed={res['failed']:g}")
    for name, unit in spec:
        shown = "null" if values[name] is None else f"{values[name]:.6g}"
        print(f"  {name:44s} {shown} {unit}")
    for p in problems:
        print(f"perfbench: FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in spec},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
