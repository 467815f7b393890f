#!/usr/bin/env python3
"""Unit tests for bench_compare.py, including the acceptance check that a
synthetic 2x-slower result set fails the comparison."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare


def write_json(directory, name, payload):
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        json.dump(payload, f)
    return path


def result_file(benchmark, ops, machine=None):
    payload = {
        "benchmark": benchmark,
        "results": [
            {"op": op, "ns_per_op": ns, "iterations": 100}
            for op, ns in ops.items()
        ],
    }
    if machine is not None:
        payload["machine"] = machine
    return payload


def machine(nproc):
    return {"nproc": nproc, "compiler": "GCC 12.2.0", "build_type": "Release"}


def run_compare(baseline, currents, threshold=0.25):
    """compare() with its stdout and stderr captured."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = bench_compare.compare(baseline, currents, threshold)
    return rc, out.getvalue(), err.getvalue()


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        self.baseline = write_json(
            self.dir,
            "baseline.json",
            [
                result_file("bench_perf_clone", {"BM_Clone/100": 1000.0}),
                result_file(
                    "bench_perf_molecule_ops",
                    {"BM_Derive/100/1": 2000.0, "BM_Derive/400/1": 9000.0},
                ),
            ],
        )

    def tearDown(self):
        self.tmp.cleanup()

    def test_identical_results_pass(self):
        current = write_json(
            self.dir,
            "current.json",
            result_file(
                "bench_perf_molecule_ops",
                {"BM_Derive/100/1": 2000.0, "BM_Derive/400/1": 9000.0},
            ),
        )
        clone = write_json(
            self.dir,
            "clone.json",
            result_file("bench_perf_clone", {"BM_Clone/100": 1000.0}),
        )
        self.assertEqual(
            bench_compare.compare(self.baseline, [current, clone], 0.25), 0
        )

    def test_small_slowdown_within_threshold_passes(self):
        current = write_json(
            self.dir,
            "current.json",
            result_file("bench_perf_molecule_ops", {"BM_Derive/100/1": 2400.0}),
        )
        self.assertEqual(bench_compare.compare(self.baseline, [current], 0.25), 0)

    def test_two_x_slower_fails(self):
        # The acceptance check: a synthetic 2x-slower run must fail.
        current = write_json(
            self.dir,
            "slow.json",
            result_file(
                "bench_perf_molecule_ops",
                {"BM_Derive/100/1": 4000.0, "BM_Derive/400/1": 18000.0},
            ),
        )
        self.assertEqual(bench_compare.compare(self.baseline, [current], 0.25), 1)

    def test_threshold_override_tolerates_two_x(self):
        current = write_json(
            self.dir,
            "slow.json",
            result_file("bench_perf_molecule_ops", {"BM_Derive/100/1": 4000.0}),
        )
        self.assertEqual(bench_compare.compare(self.baseline, [current], 1.5), 0)

    def test_op_missing_from_baseline_fails_with_named_error(self):
        # A benchmark result with no baseline row must fail the run and name
        # the offending op, so new benchmarks land together with their
        # baseline entries.
        current = write_json(
            self.dir,
            "current.json",
            result_file("bench_perf_new", {"BM_Fresh/1": 50.0}),
        )
        import io
        import contextlib

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = bench_compare.compare(self.baseline, [current], 0.25)
        self.assertEqual(rc, 1)
        self.assertIn("no baseline row", err.getvalue())
        self.assertIn("bench_perf_new/BM_Fresh/1", err.getvalue())

    def test_op_missing_from_current_run_still_passes(self):
        # compare is also run against single-binary subsets, so baseline ops
        # absent from the current files are reported but don't fail.
        current = write_json(
            self.dir,
            "current.json",
            result_file("bench_perf_clone", {"BM_Clone/100": 1000.0}),
        )
        self.assertEqual(bench_compare.compare(self.baseline, [current], 0.25), 0)

    def test_merge_roundtrips_through_compare(self):
        a = write_json(
            self.dir, "a.json", result_file("bench_perf_clone", {"BM_Clone/100": 1000.0})
        )
        b = write_json(
            self.dir,
            "b.json",
            result_file("bench_perf_molecule_ops", {"BM_Derive/100/1": 2000.0}),
        )
        merged = os.path.join(self.dir, "merged.json")
        self.assertEqual(bench_compare.merge(merged, [a, b]), 0)
        loaded = bench_compare.load_results(merged)
        self.assertEqual(
            loaded,
            {
                ("bench_perf_clone", "BM_Clone/100"): 1000.0,
                ("bench_perf_molecule_ops", "BM_Derive/100/1"): 2000.0,
            },
        )
        self.assertEqual(bench_compare.compare(merged, [a, b], 0.25), 0)

    def test_compare_prints_both_machines(self):
        ops = {"BM_Clone/100": 1000.0}
        baseline = write_json(
            self.dir,
            "machine_baseline.json",
            [result_file("bench_perf_clone", ops, machine(4))],
        )
        current = write_json(
            self.dir,
            "current.json",
            result_file("bench_perf_clone", ops, machine(4)),
        )
        rc, out, err = run_compare(baseline, [current])
        self.assertEqual(rc, 0)
        self.assertIn(
            "baseline machine: build_type=Release, compiler=GCC 12.2.0, "
            "nproc=4",
            out,
        )
        self.assertIn("current machine: build_type=Release", out)
        self.assertNotIn("WARNING", err)

    def test_nproc_mismatch_warns_without_failing(self):
        ops = {"BM_Clone/100": 1000.0}
        baseline = write_json(
            self.dir,
            "machine_baseline.json",
            [result_file("bench_perf_clone", ops, machine(1))],
        )
        current = write_json(
            self.dir,
            "current.json",
            result_file("bench_perf_clone", ops, machine(4)),
        )
        rc, _, err = run_compare(baseline, [current])
        self.assertEqual(rc, 0)
        self.assertIn("WARNING: nproc differs: baseline [1], current [4]", err)

    def test_baseline_without_machine_warns_without_failing(self):
        current = write_json(
            self.dir,
            "current.json",
            result_file("bench_perf_clone", {"BM_Clone/100": 1000.0}, machine(4)),
        )
        rc, out, err = run_compare(self.baseline, [current])
        self.assertEqual(rc, 0)
        self.assertIn("baseline machine: unrecorded", out)
        self.assertIn("WARNING: baseline records no machine", err)
        self.assertNotIn("nproc differs", err)

    def test_merge_keeps_machine(self):
        a = write_json(
            self.dir,
            "a.json",
            result_file("bench_perf_clone", {"BM_Clone/100": 1000.0}, machine(4)),
        )
        b = write_json(
            self.dir,
            "b.json",
            result_file("bench_perf_molecule_ops", {"BM_Derive/100/1": 2000.0}),
        )
        merged = os.path.join(self.dir, "merged.json")
        self.assertEqual(bench_compare.merge(merged, [a, b]), 0)
        with open(merged) as f:
            groups = {g["benchmark"]: g for g in json.load(f)}
        self.assertEqual(groups["bench_perf_clone"]["machine"], machine(4))
        self.assertNotIn("machine", groups["bench_perf_molecule_ops"])
        self.assertEqual(bench_compare.load_machines(merged), [machine(4), None])

    def test_repeated_rows_compare_their_median(self):
        # One op listed in several rows, as repetitions that were not
        # collapsed into one row: their median is compared, so a single
        # slow outlier does not fail the gate, and their MAD is printed.
        def repeated(samples):
            return {
                "benchmark": "bench_perf_clone",
                "results": [
                    {"op": "BM_Clone/100", "ns_per_op": ns, "iterations": 100}
                    for ns in samples
                ],
            }

        noisy = write_json(
            self.dir, "noisy.json", repeated([1100.0, 5000.0, 1000.0, 1050.0, 900.0])
        )
        self.assertEqual(
            bench_compare.load_samples(noisy),
            {("bench_perf_clone", "BM_Clone/100"): (1050.0, 50.0)},
        )
        rc, out, _ = run_compare(self.baseline, [noisy])
        self.assertEqual(rc, 0)
        self.assertRegex(out, r"BM_Clone/100 +1000\.0 +1050\.0 +50\.0 +\+5\.0%")

        slow = write_json(
            self.dir, "slow.json", repeated([1000.0, 1400.0, 1500.0, 1600.0, 900.0])
        )
        rc, out, _ = run_compare(self.baseline, [slow])
        self.assertEqual(rc, 1)
        self.assertIn("+40.0%  REGRESSION", out)

    def test_collapsed_row_reports_its_mad(self):
        current = write_json(
            self.dir,
            "current.json",
            {
                "benchmark": "bench_perf_clone",
                "results": [
                    {
                        "op": "BM_Clone/100",
                        "ns_per_op": 1100.0,
                        "iterations": 500,
                        "repetitions": 5,
                        "mad_ns": 12.5,
                    }
                ],
            },
        )
        rc, out, _ = run_compare(self.baseline, [current])
        self.assertEqual(rc, 0)
        self.assertRegex(out, r"BM_Clone/100 +1000\.0 +1100\.0 +12\.5 +\+10\.0%")
        # Rows without the fields still compare, with no MAD to print.
        plain = write_json(
            self.dir,
            "plain.json",
            result_file("bench_perf_clone", {"BM_Clone/100": 1100.0}),
        )
        rc, out, _ = run_compare(self.baseline, [plain])
        self.assertEqual(rc, 0)
        self.assertRegex(out, r"BM_Clone/100 +1000\.0 +1100\.0 +- +\+10\.0%")

    def test_cli_exit_codes(self):
        slow = write_json(
            self.dir,
            "slow.json",
            result_file("bench_perf_clone", {"BM_Clone/100": 2000.0}),
        )
        self.assertEqual(
            bench_compare.main(
                ["compare", "--baseline", self.baseline, slow]
            ),
            1,
        )
        self.assertEqual(
            bench_compare.main(
                ["compare", "--baseline", self.baseline, "--threshold", "1.5", slow]
            ),
            0,
        )


if __name__ == "__main__":
    unittest.main()
