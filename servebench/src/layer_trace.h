#ifndef SERVEBENCH_LAYER_TRACE_H_
#define SERVEBENCH_LAYER_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "closed_loop.h"
#include "fixture.h"

namespace servebench {

/// One per-layer figure. Every layer is timed from outside, by wrapping a
/// call into its public function in the benchmark's own code.
struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The closed loop in windows that alternate between probes off and probes
/// on (so slow drift of the host cancels out of the comparison). The
/// probes are low-rate: PING round trips on an extra connection, timed
/// acquisitions of both sides of the storage lock, and deltas of the
/// server's statement histogram and the WAL counters.
struct ProbedLoop {
  LoopResult untraced;
  LoopResult probed;
  std::vector<LayerMetric> metrics;
  /// Median over window pairs of probed p50 / untraced p50, minus 1.
  double trace_overhead = 0.0;
};
ProbedLoop RunProbedLoop(Fixture& fixture, const Workload& workload,
                         std::vector<mad::server::Client>& clients,
                         uint64_t seed, double seconds);

/// The workload's statements replayed one at a time, in process, through
/// the public functions of each layer (parse, analyze, plan, compile, seed,
/// derive, project, render, frame), with a plain Session::Execute of the
/// same statement beside each replay for the closure check.
struct Replay {
  std::vector<LayerMetric> metrics;
  /// Per-class medians and the closure check, printable.
  std::string table;
  /// Every class's layer self times sum to within 10% of its
  /// mql.execute_us + server.render_us.
  bool closure_ok = true;
  /// Replayed results the oracle rejected (or replay errors).
  uint64_t mismatches = 0;
  std::string first_problem;
};
Replay RunReplay(Fixture& fixture, const Workload& workload, uint64_t seed,
                 double seconds);

}  // namespace servebench

#endif  // SERVEBENCH_LAYER_TRACE_H_
