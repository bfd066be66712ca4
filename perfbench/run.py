"""schauderspec benchmark: closed-loop document workloads through ``schauderspec run``.

Run from the repository root (the package runs from ``src/`` with
``PYTHONPATH=src``, as the tier-1 tests do; nothing is installed):

    python3 perfbench/run.py --workload spec-suite --seed 1 --seconds 44 --trace 0

``--trace 0`` measures the end-to-end metrics: one cold pass (a fresh
``python -m schauderspec.cli run`` per document), then for ``--seconds``
set-up samples (a fresh interpreter importing the package) and warm
passes in one long-lived worker process interleave.  Each warm
document is timed against a reference kernel run around it, each set-up
sample against fresh interpreters importing numpy (``calibrate.py``).
``--trace 1`` measures the per-layer metrics: untraced and traced warm
passes alternate for half of ``--seconds``, then one
counting pass, then the isolated rule and permutation costs.  Every
document run of either mode goes through the correctness gate in
``check.py`` outside the timed region.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give each metric with its unit and
sample count, the environment, and the workload's property shares.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "docs" / "goldens"

MIN_WARM_PASSES = 3
MIN_TRACED_PASSES = 2
MIN_SETUP_SAMPLES = 5
LOAD_MODEL = "closed loop, 1 client, documents run one after another"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def fresh_import(module: str, env) -> float:
    """Seconds from starting a fresh interpreter to a completed import.

    The child reports ``time.monotonic()`` after the import; that clock
    is system-wide, so it compares with the parent's start time.
    """
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import {module}, time; print(repr(time.monotonic()))"],
        env=env, capture_output=True, text=True, check=True)
    return float(proc.stdout.strip()) - t0


def cold_pass(docs, outdir: Path, env) -> dict:
    latencies, codes = [], []
    started = time.perf_counter()
    for doc in docs:
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "schauderspec.cli", "run", str(doc.path),
             "--out", str(outdir / doc.name), *doc.flags],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        latencies.append(time.perf_counter() - t)
        codes.append(proc.returncode)
    return {"dir": outdir.name, "wall": time.perf_counter() - started,
            "latencies": latencies, "exit_codes": codes}


class Worker:
    """The warm worker process (``worker.py``), driven one pass at a time."""

    def __init__(self, docs, work: Path, env):
        manifest = work / "manifest.json"
        manifest.write_text(json.dumps(
            [{"name": d.name, "path": str(d.path), "flags": list(d.flags)}
             for d in docs]))
        self.outroot = work / "out"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(manifest)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def request(self, kind: str, name: str = "-") -> dict:
        self.proc.stdin.write(f"{kind} {self.outroot / name}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"warm worker exited with {self.proc.wait()}")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()  # end of input ends the worker's loop
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def check_pass(gate, docs, p: dict, outroot: Path) -> None:
    """Gate every document of a finished pass, then drop its outputs."""
    passdir = outroot / p["dir"]
    for doc, code in zip(docs, p["exit_codes"]):
        gate.check(doc, code, passdir / doc.name)
    shutil.rmtree(passdir, ignore_errors=True)


def environment(numpy_version: str, package_file: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "load_model": LOAD_MODEL,
        "package_from_checkout": Path(package_file).resolve().is_relative_to(SRC),
    }


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metric(metrics, name, value, unit, samples, note=""):
    metrics[name] = {"value": value, "unit": unit}
    shown = value if isinstance(value, int) else f"{value:.6g}"
    print(f"metric {name} = {shown} {unit} (n={samples}{note})")


def end_to_end(docs, gate, work: Path, env, seconds: float) -> dict:
    setup, warm = [], []
    with Worker(docs, work, env) as worker:
        warmup = worker.request("timed", "warmup-0")
        cold = cold_pass(docs, work / "out" / "cold-0", env)
        started = time.perf_counter()
        # A set-up sample before every second warm pass, so that both
        # sample the whole window of a host whose speed drifts.
        while (len(warm) < MIN_WARM_PASSES or len(setup) < MIN_SETUP_SAMPLES
               or time.perf_counter() - started < seconds):
            if len(warm) % 2 == 0:
                before = fresh_import("numpy", env)
                raw = fresh_import("schauderspec", env)
                after = fresh_import("numpy", env)
                setup.append((raw, calibrate.normalised(
                    raw, before, after, calibrate.REFERENCE_IMPORT_S)))
            warm.append(worker.request("timed", f"warm-{len(warm)}"))
        peak_rss_mb = worker.request("exit")["peak_rss_mb"]
    for p in [warmup, cold] + warm:
        check_pass(gate, docs, p, work / "out")

    certs = gate.workload_properties()["certificates"]
    # Each document's median over the warm passes, at the reference speed.
    doc_s = [statistics.median(col)
             for col in zip(*(p["normalised"] for p in warm))]
    wall = sum(doc_s)
    nw, ns = len(warm), len(setup)
    note = " warm passes, sum of each document's median"
    raw_pass = statistics.median(sum(p["latencies"]) for p in warm)
    m = {}
    metric(m, "setup_s", statistics.median(n for _, n in setup), "s", ns,
           ", median of fresh interpreters between passes; raw median "
           f"{statistics.median(r for r, _ in setup):.6g} s")
    metric(m, "wall_s", wall, "s", nw, f"{note}; raw median pass {raw_pass:.6g} s")
    # Printed, not bounded: one pass of fresh processes per run, raw.
    print(f"info cold_wall_s = {cold['wall']:.6g} s (n=1 pass of {len(docs)} "
          "fresh CLI processes, raw wall clock)")
    metric(m, "certs_per_s", certs / wall, "1/s", nw,
           f", {certs} certificates per pass / wall_s")
    doc_ms = [t * 1e3 for t in doc_s]
    metric(m, "doc_p50_ms", statistics.median(doc_ms), "ms", len(doc_ms),
           f" documents, median over {nw} warm passes each")
    metric(m, "doc_p90_ms", p90(doc_ms) if len(doc_ms) > 1 else doc_ms[0],
           "ms", len(doc_ms), f" documents, median over {nw} warm passes each")
    metric(m, "peak_rss_mb", peak_rss_mb, "MB", 1,
           ", warm worker process")
    return m


def per_layer(docs, gate, work: Path, env, seconds: float) -> tuple:
    import layers

    plain, traced = [], []
    with Worker(docs, work, env) as worker:
        warmup = worker.request("plain", "warmup-0")
        started = time.perf_counter()
        while (len(traced) < MIN_TRACED_PASSES
               or time.perf_counter() - started < seconds / 2):
            plain.append(worker.request("plain", f"untraced-{len(plain)}"))
            traced.append(worker.request("traced", f"traced-{len(traced)}"))
        counting = worker.request("counting", "counting-0")
        worker.request("exit")
    for p in [warmup] + plain + traced + [counting]:
        check_pass(gate, docs, p, work / "out")
    for name in counting["missing"]:
        print(f"note: {name} not found; its layer reads 0")

    consistent = True
    for p in traced + [counting]:
        attributed = sum(p["self_s"].values())
        ok = abs(attributed - p["wall"]) <= 1e-9 * p["wall"]
        consistent &= ok
        print(f"reconcile {p['dir']}: layer self times + unattributed = "
              f"{attributed:.9f} s, root spans = {p['wall']:.9f} s "
              f"({'ok' if ok else 'MISMATCH'})")
    repeat = all(p["calls"] == traced[0]["calls"] for p in traced[1:] + [counting])
    consistent &= repeat
    print(f"span call counts repeat exactly over {len(traced) + 1} passes: "
          f"{'yes' if repeat else 'NO'}")

    n = len(traced)
    fastest = min(traced, key=lambda p: p["wall"])
    m = {}
    for label in layers.LAYER_LABELS:
        metric(m, f"{label}_s", fastest["self_s"].get(label, 0.0), "s", n,
               ", self time in the fastest traced pass")
    for label in layers.CALL_LABELS:
        metric(m, f"{label}_calls", traced[0]["calls"].get(label, 0), "count", n)
    for key in ("sequences.rule_evals", "index_maps.perm_steps",
                "op_algebra.entry_calls"):
        metric(m, key, counting["counts"].get(key, 0), "count", 1,
               ", counting pass")

    props = gate.workload_properties()
    metric(m, "spectral.witness_steps", props["witness_steps"], "count", 1)
    metric(m, "spectral.max_witness_step", props["max_witness_step"], "count", 1)
    metric(m, "spectral.distinct_moduli_share", props["distinct_moduli_share"],
           "ratio", 1, f", base {props['certificates']} certificates")
    walk = gate.deepest_walk(docs)
    costs = layers.isolated_costs(*walk) if walk else {}
    for name in ("sequences.rule_eval_ns", "index_maps.perm_step_ns"):
        metric(m, name, costs.get(name, 0.0), "ns", 5,
               f", isolated over {walk[1] if walk else 0}-step walks")

    untraced = min(p["wall"] for p in plain)
    metric(m, "trace.overhead_ratio", fastest["wall"] / untraced, "ratio", n,
           ", fastest traced / fastest untraced pass")
    metric(m, "trace.unattributed_share",
           fastest["self_s"].get(layers.ROOT, 0.0) / fastest["wall"], "ratio",
           n, ", root self time / root spans, fastest traced pass")
    return m, consistent


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "schauderspec" / "cli.py").is_file() or not GOLDENS.is_dir():
        print(f"error: {SRC / 'schauderspec'} or {GOLDENS} is missing; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import schauderspec
    from check import Gate

    env = child_env()
    print("env " + json.dumps(environment(numpy.__version__,
                                          schauderspec.__file__)))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        docs = workloads.generate(args.workload, args.seed, work / "docs",
                                  GOLDENS)
        gate = Gate(GOLDENS)
        if args.trace:
            metrics, consistent = per_layer(docs, gate, work, env, args.seconds)
        else:
            metrics, consistent = end_to_end(docs, gate, work, env,
                                             args.seconds), True
        self_test = gate.self_test(docs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    props = workloads.property_shares(docs)
    props["distinct_moduli_share"] = gate.workload_properties()[
        "distinct_moduli_share"]
    print(f"workload {args.workload} seed {args.seed}: " + json.dumps(props))
    print("gate self-test (certificate magnitude off by relative 1e-9 is "
          f"flagged): {'pass' if self_test else 'FAIL'}")
    for name, message in gate.misses[:10]:
        print(f"miss {name}: {message}")
    ratio = gate.failed / gate.attempted
    print(f"fail_ratio = {gate.failed}/{gate.attempted} = {ratio:.6g} "
          "(document runs with a wrong outcome / attempted)")
    print(json.dumps({
        "correct": gate.failed == 0 and self_test and consistent,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
