#ifndef SERVEBENCH_CLOSED_LOOP_H_
#define SERVEBENCH_CLOSED_LOOP_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fixture.h"
#include "server/client.h"
#include "stats.h"

namespace servebench {

/// Classifies one reply (or transport failure) for the failed_frac tally.
/// A RESULT is kOk here; the caller demotes it when the oracle rejects it.
Outcome Classify(const mad::Result<mad::server::Message>& reply);

/// What one or more closed-loop sessions observed.
struct LoopResult {
  /// Client-side latency of every statement that got a reply, in µs.
  std::vector<double> latency_us;
  /// When each of those replies arrived, in seconds since `origin`.
  std::vector<double> done_s;
  std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  /// BEGIN sent -> COMMIT acknowledged, committed transfers only, in µs.
  std::vector<double> txn_us;
  Tally tally;
  uint64_t transfers_committed = 0;
  uint64_t transfers_rolled_back = 0;
  /// RESULT bodies the oracle rejected.
  uint64_t mismatches = 0;
  /// A reply stream broke (the run cannot be trusted past that point).
  bool stream_lost = false;
  /// The first mismatch or transport error, for the report.
  std::string first_problem;
  double elapsed_s = 0.0;

  void Merge(const LoopResult& other);
  void NoteProblem(const std::string& what) {
    if (first_problem.empty()) first_problem = what;
  }
};

/// Sends one transfer as BEGIN; UPDATE from; UPDATE to; COMMIT. When an
/// UPDATE fails (MQL0601 conflict, BUSY, any error) the transaction is
/// ROLLed BACK, never COMMITted, so a failed transfer moves no cost. Each
/// statement's latency and outcome lands in `out`. Returns false when the
/// reply stream was lost.
bool RunTransfer(mad::server::Client& client, const Transfer& transfer,
                 LoopResult* out);

/// Sends one pooled statement and checks its reply against the oracle.
/// Returns false when the reply stream was lost.
bool RunStatement(mad::server::Client& client, const Workload& workload,
                  const std::string& text, LoopResult* out);

/// Closed loop: one thread per client, each sending its next operation only
/// after the previous reply, drawn from its own key stream of `seed`, for
/// `seconds`. Operations started before the deadline run to completion.
LoopResult RunClosedLoop(const Workload& workload,
                         std::vector<mad::server::Client>& clients,
                         uint64_t seed, double seconds);

}  // namespace servebench

#endif  // SERVEBENCH_CLOSED_LOOP_H_
