#!/usr/bin/env python3
"""Cross-run bench regression gate.

Compares per-stage wall-clock times between the previous successful run's
``BENCH_sweep.json`` and the current one, and fails when any *gated* stage
slowed down by more than the threshold (default 20%).

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [--threshold 1.20]

Stages are matched by their ``id``. Each stage carries a ``timing`` tag on
the current side:

* ``"measured"`` — the stage times a real host hot path (the thread-pool
  multicore scan, the SoA gate kernel, the sharded detect, the sequential
  reference, and the ``incremental-detect-muP`` rescan stages). These are
  gated: a slowdown beyond the threshold fails.
* ``"modeled"`` — the stage's wall time is simulator overhead (host time
  spent *producing* modeled results). Reported for visibility, never gated:
  its noise would otherwise drown the measured signal this gate protects.
* absent — legacy stages from before the tag existed; gated, preserving
  the old behaviour against untagged baselines.

A stage may also carry an explicit ``"gate"`` boolean which overrides the
timing heuristic in either direction. The ``scenario-<slug>-detect``
corpus stages set ``"gate": true``: they time a real host hot path (the
grid scan over each generated traffic shape), so they are gated even
though the heuristic alone would already include them — the explicit flag
keeps them gated if their timing tag ever changes. The service-layer
stages do the same: ``engine-step-muP`` (resumable ``AtmEngine`` major
cycles with live ingest between them — the atm-server cycle loop without
the socket) and ``server-ingest`` (parse + decode + apply of a JSON
ingest batch, the per-verb hot path) both carry ``"gate": true``. So do
the ``proc-shard-detect-S`` stages (the halo-exchange wire transport of
``atm-server coordinator``: detect waves crossing localhost TCP through
the frame codec to S-squared worker loops) — serialization overhead on
that path is exactly what this gate should catch. Like any stage, they
never fail on their first appearance (no baseline entry to compare
against).

A stage present only on the current side (a newly added bench stage) is
reported but never fails the gate. A *gated* baseline stage missing from the
current run fails it — a stage that silently stops running is a regression
the gate cannot otherwise see — unless its id is on the explicit
``RETIRED`` list below, which records stages removed on purpose (with the
change that removed them). A missing ungated (``"modeled"``) baseline stage
is only reported. A missing or unreadable baseline file is a graceful skip
(exit 0): the first run on a fresh repository has nothing to compare
against.

Wall-clock on shared CI runners is noisy; the 20% margin plus the
multi-rep sweep inside each stage keeps false positives rare while still
catching the order-of-magnitude regressions this gate exists for (an
accidentally serialized fan-out, a quadratic scan sneaking back in).
"""

import json
import sys

# Bench stages deleted on purpose. A gated baseline stage that vanishes
# from the current run fails the gate unless its id is listed here.
RETIRED = {
    # Removed with the banded scan mode (the scan family collapsed to the
    # naive oracle plus one persistent grid).
    "serial-banded",
    "parallel-banded",
}


def is_gated(timing, gate):
    """An explicit per-stage "gate" boolean wins; otherwise everything but
    "modeled" is gated."""
    return gate if isinstance(gate, bool) else timing != "modeled"


def load_stages(path):
    with open(path) as f:
        doc = json.load(f)
    return {
        s["id"]: (float(s["wall_ms"]), s.get("timing"), s.get("gate"))
        for s in doc.get("stages", [])
    }


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    threshold = 1.20
    for a in argv[1:]:
        if a.startswith("--threshold"):
            threshold = float(a.split("=", 1)[1] if "=" in a else argv[argv.index(a) + 1])
    if len(args) < 2:
        print(__doc__)
        return 2

    baseline_path, current_path = args[0], args[1]
    try:
        baseline = load_stages(baseline_path)
    except (OSError, ValueError, KeyError) as e:
        print(f"no usable baseline at {baseline_path} ({e}); skipping regression gate")
        return 0
    current = load_stages(current_path)

    failed = []
    for stage_id in sorted(set(baseline) | set(current)):
        if stage_id not in baseline:
            ms, _, _ = current[stage_id]
            print(f"  {stage_id:<32} new stage ({ms:.1f} ms), no baseline")
            continue
        if stage_id not in current:
            ms, timing, gate = baseline[stage_id]
            if stage_id in RETIRED:
                print(f"  {stage_id:<32} retired stage (was {ms:.1f} ms)")
            elif is_gated(timing, gate):
                print(f"  {stage_id:<32} MISSING gated stage (was {ms:.1f} ms)")
                failed.append(stage_id)
            else:
                print(f"  {stage_id:<32} missing ungated stage (was {ms:.1f} ms)")
            continue
        old, _, _ = baseline[stage_id]
        new, timing, gate = current[stage_id]
        gated = is_gated(timing, gate)
        ratio = new / old if old > 0 else float("inf")
        if not gated:
            verdict = "not gated (report-only)"
        elif ratio > threshold:
            verdict = "REGRESSED"
        else:
            verdict = "ok"
        print(f"  {stage_id:<32} {old:9.1f} ms -> {new:9.1f} ms  ({ratio:5.2f}x)  {verdict}")
        if gated and ratio > threshold:
            failed.append(stage_id)

    if failed:
        print(
            f"\n{len(failed)} stage(s) regressed beyond {threshold:.2f}x "
            f"or went missing: {', '.join(failed)}"
        )
        return 1
    print(f"\nall gated stages within the {threshold:.2f}x budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
