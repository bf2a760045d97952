#!/usr/bin/env python3
"""Compare two benchmark result sets against the bounds in BENCHMARK.json.

    benchmark/compare.py A.json B.json [--same-commit]

A is the base (the parent commit), B the change. Each file is a JSON list
of the per-run detail objects the benchmark writes to benchmark/out/: a
`results.json` from `benchmark/run.sh`, or several concatenated. Give
both sides the same seeds.

For every workload x end-to-end metric it prints both sides' quartiles
over their runs, the ratio of the medians B/A, and a verdict:

    ok          B's median is not worse than A's by more than the bound
    worse       it is
    unresolved  a host-clock metric whose run-to-run spread on either side
                exceeds the bound, or which has fewer than four runs on a
                side, so the data cannot tell (unless every B run beats
                every A run)

Metrics on the model clock and exact counts are also marked `same` or
`changed`; a simulator-speed change must leave all of them `same`. With
--same-commit any `changed` is an error: two runs of one commit with one
seed must agree exactly.

The modelled request metrics that only two workloads define cannot be
end-to-end metrics of BENCHMARK.json (see README.md); they are held to
PER_LAYER_BOUNDS here, on the workloads where they are not 0.

Exit status: 0 when nothing is worse (and, with --same-commit, nothing
changed), 1 otherwise, 2 on unusable input. Standard library only.
"""

import json
import os
import statistics
import sys

NOISY_UNITS = {"ns", "s", "share", "ms/s"}
EXACT_DESPITE_UNIT = {"tas.fp_exception_share"}
NOISY_DESPITE_UNIT = {"tas.bytes_per_flow"}
PER_LAYER_BOUNDS = {"model.mops": 0.005, "model.lat_p50_us": 0.005, "model.lat_p99_us": 0.005}
MIN_RUNS = 4


def load(path):
    with open(path) as f:
        runs = json.load(f)
    by_key = {}
    for r in runs if isinstance(runs, list) else [runs]:
        by_key.setdefault((r["workload"], r["trace"]), []).append(r)
    return by_key


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def is_exact(name, unit):
    if name in NOISY_DESPITE_UNIT or name.startswith(("host", "trace.")):
        return False
    if name in ("setup_s", "peak_rss_mb"):
        return False
    return unit not in NOISY_UNITS or name in EXACT_DESPITE_UNIT


def worse_by(va, vb, better):
    """How much worse B's median is than A's, as a share of A's."""
    ma, mb = statistics.median(va), statistics.median(vb)
    sign = 1.0 if better == "lower" else -1.0
    return sign * (mb - ma) / ma if ma else 0.0


def verdict(va, vb, better, bound, exact):
    if exact:
        return "worse" if worse_by(va, vb, better) > bound else "ok"
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * (y - x) <= 0 for x in va for y in vb):
        return "ok"
    if min(len(va), len(vb)) < MIN_RUNS:
        return f"unresolved (fewer than {MIN_RUNS} runs)"
    spread = max((q[2] - q[0]) / q[1] for q in (quartiles(va), quartiles(vb)))
    if spread > bound:
        return f"unresolved (spread {spread:.3f})"
    return "worse" if worse_by(va, vb, better) > bound else "ok"


def row(w, m, bound, va, vb, same_commit):
    """Prints one comparison; returns 1 if it counts against B."""
    exact = is_exact(m["name"], m["unit"])
    v = verdict(va, vb, m["better"], bound, exact)
    bad = v == "worse"
    if exact:
        same = sorted(va) == sorted(vb)
        v += " same" if same else " changed"
        bad = bad or (same_commit and not same)
    fmt = lambda xs: "/".join(f"{x:.6g}" for x in quartiles(xs))
    ratio = statistics.median(vb) / statistics.median(va)
    print(f"{w:<18} {m['name']:<22} {fmt(va):<34} {fmt(vb):<34} {ratio:>7.4f}  {v} (bound {bound})")
    return int(bad)


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    same_commit = "--same-commit" in argv
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    a_runs, b_runs = load(args[0]), load(args[1])
    workloads = [x["name"] for x in spec["workloads"]]
    bad = 0

    print(f"base A = {args[0]}\nchange B = {args[1]}\n")
    print("end-to-end (untraced runs); q1/median/q3 over the runs, ratio is B/A")
    for w in workloads:
        ra, rb = a_runs.get((w, 0), []), b_runs.get((w, 0), [])
        if not ra or not rb:
            print(f"{w:<18} missing on {'A' if not ra else 'B'}")
            bad += 1
            continue
        for r in ra + rb:
            if not r["correct"]:
                print(f"{w:<18} output check FAILED: {r['failures']}")
                bad += 1
        for m in spec["end_to_end"]:
            bad += row(w, m, m["bound"], values(ra, m["name"]), values(rb, m["name"]), same_commit)
        seeds = lambda rs: sorted(r["seed"] for r in rs)
        if seeds(ra) == seeds(rb):
            prints = lambda rs: sorted(r["model_fingerprint"] for r in rs)
            same = prints(ra) == prints(rb)
            print(f"{w:<18} model_fingerprint      {'same' if same else 'changed'}")
            bad += int(same_commit and not same)
        fails = lambda rs: f"{sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}"
        print(f"{w:<18} ops failed/attempted   A {fails(ra)}  B {fails(rb)}")

    print("\nper-layer (traced runs): bounded model metrics, exact metrics that changed, host-time metrics as B/A")
    for w in workloads:
        ra, rb = a_runs.get((w, 1), []), b_runs.get((w, 1), [])
        for m in spec["per_layer"] if ra and rb else []:
            name = m["name"]
            va, vb = values(ra, name), values(rb, name)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            if name in PER_LAYER_BOUNDS and ma:
                bad += row(w, m, PER_LAYER_BOUNDS[name], va, vb, same_commit)
            elif is_exact(name, m["unit"]):
                if sorted(va) != sorted(vb):
                    print(f"{w:<18} {name:<30} changed  A {ma:.6g}  B {mb:.6g}")
                    bad += int(same_commit)
            elif ma:
                print(f"{w:<18} {name:<30} {mb / ma:>7.4f}  A {ma:.6g}  B {mb:.6g} {m['unit']}")
    print("\nresult:", "FAIL" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
