"""Warm in-process passes over one workload, in a process of their own.

Started by ``run.py`` with ``PYTHONPATH=src``.  It imports the package
once, then serves pass requests: each line on standard input is
``<kind> <outdir>`` and each reply is one JSON line on standard output.
A pass runs every document through ``schauderspec.cli.main`` exactly as
``schauderspec run`` would, writing under ``<outdir>/<document>/``.
Kinds: ``plain`` (untraced), ``timed`` (untraced, each document between
two reference-kernel blocks, see ``calibrate.py``), ``traced`` (layer
spans), ``counting`` (spans plus hot-method counters).  The reply to
``exit`` carries the process's peak RSS, which is the program's plus a
list of timings: output checking happens in the parent.

Usage: worker.py MANIFEST
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
import layers
from schauderspec import cli

# Each kernel block around a document lasts this share of the document's
# previous latency, and at least CALIBRATION_MIN_S.
CALIBRATION_SHARE = 0.05
CALIBRATION_MIN_S = 0.01


def run_pass(docs, outdir: Path, main, last_latency=None) -> dict:
    """One closed-loop pass: each document starts when the previous ended.

    Each document starts on a collected heap, as in a fresh CLI process,
    so that its time does not depend on what ran before it.  Given
    ``last_latency`` (each document's latency in the previous timed pass,
    updated here), the pass is timed: a kernel block runs before the
    first document and after each one, and each block serves the
    documents on both its sides.
    """
    timed = last_latency is not None
    latencies, codes, normalised = [], [], []
    spans = [max(CALIBRATION_MIN_S,
                 CALIBRATION_SHARE * (last_latency or {}).get(doc["name"], 0.0))
             for doc in docs]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        started = time.perf_counter()
        before = calibrate.block(spans[0]) if timed else None
        for i, doc in enumerate(docs):
            argv = ["run", doc["path"], "--out", str(outdir / doc["name"]),
                    *doc["flags"]]
            gc.collect()
            t = time.perf_counter()
            try:
                code = main(argv)
            except Exception:  # a crash is a wrong outcome, not a stop
                code = -1
            latency = time.perf_counter() - t
            if timed:
                after = calibrate.block(max(spans[i:i + 2]))
                normalised.append(calibrate.normalised(latency, before, after))
                last_latency[doc["name"]] = latency
                before = after
            latencies.append(latency)
            codes.append(code)
        wall = time.perf_counter() - started
    return {"dir": outdir.name, "wall": wall, "latencies": latencies,
            "normalised": normalised, "exit_codes": codes}


def serve(docs, kind: str, outdir: Path, last_latency: dict) -> dict:
    if kind == "plain":
        return run_pass(docs, outdir, cli.main)
    if kind == "timed":
        return run_pass(docs, outdir, cli.main, last_latency)
    tracer = layers.Tracer()
    counts = Counter()
    with tracer.installed(), (layers.counting(counts) if kind == "counting"
                              else contextlib.nullcontext()):
        p = run_pass(docs, outdir, tracer.wrap(layers.ROOT, cli.main))
    p.update(tracer.summary(), counts=dict(counts), missing=tracer.missing)
    return p


def main(argv) -> int:
    docs = json.loads(Path(argv[0]).read_text())
    out = sys.stdout
    last_latency = {}
    for line in sys.stdin:
        kind, _, outdir = line.strip().partition(" ")
        if kind == "exit":
            reply = {"peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}
        else:
            reply = serve(docs, kind, Path(outdir), last_latency)
        out.write(json.dumps(reply) + "\n")
        out.flush()
        if kind == "exit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
