#!/usr/bin/env python3
"""Compare benchmark --json results against a checked-in baseline.

The bench_* binaries emit, via their --json flag, one file each of the form

    {"benchmark": "bench_perf_clone",
     "machine": {"nproc": 4, "compiler": "GCC 12.2.0", "build_type": "Release"},
     "results": [
      {"op": "BM_CloneDatabase/100", "ns_per_op": 123.4,
       "iterations": 1000, "repetitions": 5, "mad_ns": 2.1}, ...]}

`machine` is optional (older files and bench_perf_server have none).
Under --benchmark_repetitions a row's `ns_per_op` is the median of its
repetitions and `mad_ns` their median absolute deviation; rows without
those two fields (older files, the baseline) are one sample each. A file
that lists one op in several rows is read the same way: its ns_per_op is
the median of the rows, and its MAD is theirs.

This tool has two subcommands:

  merge <out.json> <in.json...>
      Combine per-binary result files into one baseline file (the shape is a
      JSON array of the per-binary objects, `machine` kept). Used to refresh
      BENCH_baseline.json.

  compare --baseline <baseline.json> [--threshold 0.25] <current.json...>
      Diff each (benchmark, op) pair's median ns_per_op against the
      baseline, printing the current MAD beside it, and exit 1 when any op
      regressed by more than the threshold (default 25%).
      An op present in the current run but missing from the baseline is an
      ERROR and also exits 1: new benchmarks must land with their baseline
      rows, otherwise the regression gate silently never covers them.
      Baseline ops missing from the current run are reported but don't fail
      (compare is also used against single-binary subsets). The baseline and
      current machines are printed first; a warning, never a failure, flags
      an nproc mismatch or a baseline that records no machine, since then
      the timings come from different hardware.

CI runs `compare`; a >threshold regression fails the job unless the PR
carries the `perf-regression-ok` label (the workflow checks the label, not
this script — the numbers are always printed either way).
"""

import argparse
import json
import statistics
import sys


def load_samples(path):
    """Returns {(benchmark, op): (median ns_per_op, MAD or None)} from a
    per-binary result file or a merged baseline (array of per-binary
    objects). The MAD is None for an op given by one row without `mad_ns`."""
    with open(path) as f:
        data = json.load(f)
    groups = data if isinstance(data, list) else [data]
    rows = {}
    for group in groups:
        bench = group["benchmark"]
        for row in group["results"]:
            rows.setdefault((bench, row["op"]), []).append(row)
    out = {}
    for key, repeated in rows.items():
        if len(repeated) == 1:
            row = repeated[0]
            mad = row.get("mad_ns")
            out[key] = (float(row["ns_per_op"]),
                        None if mad is None else float(mad))
        else:
            values = [float(row["ns_per_op"]) for row in repeated]
            mid = statistics.median(values)
            out[key] = (mid, statistics.median([abs(v - mid) for v in values]))
    return out


def load_results(path):
    """Returns {(benchmark, op): median ns_per_op} (see load_samples)."""
    return {key: ns for key, (ns, _) in load_samples(path).items()}


def load_machines(path):
    """Returns the distinct `machine` objects of a result or baseline file,
    with None standing for groups that record no machine."""
    with open(path) as f:
        data = json.load(f)
    groups = data if isinstance(data, list) else [data]
    machines = []
    for group in groups:
        machine = group.get("machine")
        if machine not in machines:
            machines.append(machine)
    return machines


def describe_machine(machine):
    if machine is None:
        return "unrecorded"
    return ", ".join(f"{key}={machine[key]}" for key in sorted(machine))


def check_machines(baseline_path, current_paths):
    """Prints both sides' machines and warns, never fails, when their
    timings may come from different hardware."""
    baseline = load_machines(baseline_path)
    current = []
    for path in current_paths:
        for machine in load_machines(path):
            if machine not in current:
                current.append(machine)
    for label, machines in (("baseline", baseline), ("current", current)):
        for machine in machines:
            print(f"{label} machine: {describe_machine(machine)}")
    if None in baseline:
        print(
            "WARNING: baseline records no machine: its timings may come from "
            "other hardware",
            file=sys.stderr,
        )
    base_nproc = {m["nproc"] for m in baseline if m and "nproc" in m}
    cur_nproc = {m["nproc"] for m in current if m and "nproc" in m}
    if base_nproc and cur_nproc and base_nproc != cur_nproc:
        print(
            f"WARNING: nproc differs: baseline {sorted(base_nproc)}, current "
            f"{sorted(cur_nproc)}; the timings come from different "
            "hardware",
            file=sys.stderr,
        )


def merge(out_path, in_paths):
    groups = []
    for path in in_paths:
        with open(path) as f:
            data = json.load(f)
        groups.extend(data if isinstance(data, list) else [data])
    groups.sort(key=lambda g: g["benchmark"])
    with open(out_path, "w") as f:
        json.dump(groups, f, indent=2, sort_keys=True)
        f.write("\n")
    ops = sum(len(g["results"]) for g in groups)
    print(f"wrote {len(groups)} benchmark(s), {ops} op(s) to {out_path}")
    return 0


def compare(baseline_path, current_paths, threshold):
    check_machines(baseline_path, current_paths)
    baseline = load_results(baseline_path)
    current = {}
    mads = {}
    for path in current_paths:
        for key, (ns, mad) in load_samples(path).items():
            current[key] = ns
            mads[key] = mad

    regressions = []
    unbaselined = []
    rows = []
    for key in sorted(set(baseline) | set(current)):
        bench, op = key
        base = baseline.get(key)
        cur = current.get(key)
        if base is None:
            unbaselined.append(key)
            rows.append(
                (bench, op, base, cur, "ERROR: not in baseline — add a row")
            )
            continue
        if cur is None:
            rows.append((bench, op, base, cur, "missing from current run"))
            continue
        ratio = cur / base if base > 0 else float("inf")
        delta = f"{(ratio - 1) * 100:+.1f}%"
        if ratio > 1 + threshold:
            regressions.append(key)
            rows.append((bench, op, base, cur, f"{delta}  REGRESSION"))
        else:
            rows.append((bench, op, base, cur, delta))

    name_w = max(len(f"{b}/{o}") for b, o, *_ in rows) if rows else 0
    print(f"{'op':<{name_w}}  {'baseline ns':>12}  {'current ns':>12}  "
          f"{'MAD ns':>10}  verdict")
    for bench, op, base, cur, verdict in rows:
        name = f"{bench}/{op}"
        base_s = f"{base:12.1f}" if base is not None else " " * 12
        cur_s = f"{cur:12.1f}" if cur is not None else " " * 12
        mad = mads.get((bench, op))
        mad_s = f"{mad:10.1f}" if mad is not None else f"{'-':>10}"
        print(f"{name:<{name_w}}  {base_s}  {cur_s}  {mad_s}  {verdict}")

    failed = False
    if unbaselined:
        print(
            f"\nFAIL: {len(unbaselined)} op(s) have no baseline row in "
            f"{baseline_path}:",
            file=sys.stderr,
        )
        for bench, op in unbaselined:
            print(f"  {bench}/{op}", file=sys.stderr)
        print(
            "  (run the bench locally and `bench_compare.py merge` the "
            "result into the baseline)",
            file=sys.stderr,
        )
        failed = True
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} op(s) regressed more than "
            f"{threshold * 100:.0f}% vs {baseline_path}",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print(f"\nOK: no op regressed more than {threshold * 100:.0f}%")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="combine result files into a baseline")
    p_merge.add_argument("out")
    p_merge.add_argument("inputs", nargs="+")

    p_cmp = sub.add_parser("compare", help="diff current results vs baseline")
    p_cmp.add_argument("--baseline", required=True)
    p_cmp.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional slowdown per op (default 0.25 = +25%%)",
    )
    p_cmp.add_argument("current", nargs="+")

    args = parser.parse_args(argv)
    if args.command == "merge":
        return merge(args.out, args.inputs)
    return compare(args.baseline, args.current, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
