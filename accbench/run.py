#!/usr/bin/env python3
"""The AccMoS benchmark: run one workload and print its metrics.

    python3 accbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the
libraries, the `accmos` CLI and the harness (accbench/CMakeLists.txt)
into $CARGO_TARGET_DIR, else .bench_build. Every inherited ACCMOS_*
variable is cleared so that defaults are measured, and each run gets a
private, empty compile cache. The last line of stdout is one JSON object:
with --trace 0 it holds every end_to_end metric of BENCHMARK.json, with
--trace 1 every per_layer metric. The exit code is nonzero when the
harness fails or any output disagrees with its reference. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402

# What ops_per_s and op_ms are called on each workload.
ALIASES = {
    "table1_cold_run": {"ops_per_s": "sim_steps_per_s",
                        "op_ms": "best_long_run_ms"},
    "csev_campaign": {"ops_per_s": "campaign_seeds_per_s",
                      "op_ms": "campaign_p50_ms"},
    "serve_mix": {"ops_per_s": "serve_req_per_s",
                  "op_ms": "serve_run_p50_ms"},
}
HARNESS_TIMEOUT_S = 170


def fail(msg, code=1):
    print("accbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no AccMoS sources next to the benchmark (expected src/ "
             "beside accbench/)", 2)
    log = sys.stderr
    rc = subprocess.call(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"],
                         stdout=log, stderr=log)
    if rc != 0:
        fail("configure failed", 2)
    rc = subprocess.call(["cmake", "--build", out, "-j",
                          str(os.cpu_count() or 1), "--target", "accbench",
                          "accmos_cli"], stdout=log, stderr=log)
    if rc != 0:
        fail("build failed", 2)
    return (os.path.join(out, "accbench"),
            os.path.join(out, "accmos_tools", "accmos"))


def clean_env():
    env = dict(os.environ)
    cleared = sorted(k for k in env if k.startswith("ACCMOS_"))
    for k in cleared:
        del env[k]
    if cleared:
        print("accbench: cleared inherited " + " ".join(cleared),
              file=sys.stderr)
    return env


def compiler_version(env):
    cxx = env.get("CXX", "c++")
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=30).stdout
        return out.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.SubprocessError):
        return "unknown"


def source_revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "accbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have: %s)" % (args.workload,
                                                 ", ".join(names)), 2)

    out = build_dir()
    harness, cli = build(out)
    env = clean_env()
    work = os.path.join(out, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # The program and the compiler keep their scratch files in TMPDIR.
    env["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(env["TMPDIR"])
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [harness, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + work, "--cli=" + cli,
           "--trace-out=" + os.path.join(
               traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("harness exited %d" % proc.returncode)
    raw = json.loads(lines[-1])

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics, notes = {}, {}
    for name, m in raw["metrics"].items():
        metrics[name], notes[name] = stats.reduce(m)
    units = {m["name"]: m["unit"] for m in
             contract["end_to_end"] + contract["per_layer"]}
    for name, m in raw["metrics"].items():
        if name in units and units[name] != m["unit"]:
            fail("%s: harness unit %s, contract unit %s"
                 % (name, m["unit"], units[name]))
    for m in wanted:
        if m["name"] in metrics:
            continue
        if not args.trace:
            fail("harness did not measure " + m["name"])
        # A layer this workload does not exercise.
        metrics[m["name"]], notes[m["name"]] = 0.0, "layer not used"

    print("accbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("host cores=%d compiler=%s revision=%s" % (
        os.cpu_count() or 0, compiler_version(env), source_revision()))
    for k, v in sorted(raw.get("info", {}).items()):
        print("  %s: %s" % (k, v))
    aliases = ALIASES.get(args.workload, {})
    for name in sorted(metrics):
        label = name + (" (%s)" % aliases[name] if name in aliases else "")
        print("  %-44s %16.6g %-6s %s" % (
            label, metrics[name], units.get(name, raw["metrics"].get(
                name, {}).get("unit", "")), notes[name]))
    print("  operations %d attempted, %d failed" % (raw["attempted"],
                                                    raw["failed"]))

    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
