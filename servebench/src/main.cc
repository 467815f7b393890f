// servebench: MQL statements served by an in-process MadServer, measured
// from the client side of the wire (see ../README.md).
//
//   servebench --workload geo_point|geo_scan|bom_txn --seed N --seconds S
//              --trace 0|1 [--workdir DIR]
//   servebench --self-test [--workdir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Exit status 1 on any correctness failure.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "closed_loop.h"
#include "fixture.h"
#include "layer_trace.h"
#include "self_test.h"
#include "stats.h"
#include "util/sync.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 9;
/// Time windows of the closed loop; latency and throughput are medians of
/// per-window figures.
constexpr size_t kWindows = 10;
/// Share of --seconds of a --trace 1 run spent in the replay; the rest
/// goes to the alternating closed-loop windows.
constexpr double kReplayShare = 0.4;

/// The per-layer metrics --trace 1 reports in its JSON line (BENCHMARK.json
/// lists the same names): the ones every workload has. The printed table
/// adds the workload-specific ones.
const char* const kJsonPerLayer[] = {
    "server.ping_rtt_us",   "server.queue_us",       "server.render_us",
    "server.render_bytes",  "server.encode_us",      "server.decode_us",
    "mql.parse_us",         "mql.analyze_us",        "mql.plan_us",
    "mql.execute_us",       "molecule.derive_us",    "molecule.atoms_visited",
    "molecule.links_scanned", "storage.lock_wait_us"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool self_test = false;
  std::string workdir = ".bench_build/servebench/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return args->self_test || (!args->workload.empty() && args->seconds > 0);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Aggregate CPU time counters of /proc/stat: {steal, total} in ticks.
std::pair<double, double> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0;
  double steal = 0;
  double value = 0;
  for (int field = 0; field < 8 && (stat >> value); ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

/// Share of CPU time the hypervisor stole since `before` (0 on hosts that
/// do not report it): a noisy neighbour shows here, not in the engine.
double StealShare(std::pair<double, double> before) {
  std::pair<double, double> after = CpuTicks();
  const double total = after.second - before.second;
  return total > 0 ? (after.first - before.first) / total : 0.0;
}

/// CPU time (user + system) of the whole process so far, in µs: the server,
/// its pools and the client threads. The kernel does not charge a task for
/// time the hypervisor stole, so this cost holds still on a noisy host.
double ProcessCpuUs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 +
           static_cast<double>(t.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

/// A served fixture with its connected, warmed closed-loop clients.
struct Served {
  std::unique_ptr<Fixture> fixture;
  std::unique_ptr<Workload> workload;
  std::vector<mad::server::Client> clients;

  void TearDown() {
    for (mad::server::Client& c : clients) (void)c.Close();
    clients.clear();
    workload.reset();
    fixture.reset();
  }
};

/// Set-up as setup_s counts it: generate, index, start the server, connect
/// every session, run its prelude and one statement of each read class.
mad::Status SetUp(WorkloadKind kind, uint64_t seed, const std::string& workdir,
                  Served* served, double* seconds) {
  Clock::time_point start = Clock::now();
  MAD_ASSIGN_OR_RETURN(served->fixture, Fixture::Create(kind, workdir));
  served->workload = Workload::Make(*served->fixture, seed);
  const Workload& w = *served->workload;
  for (size_t c = 0; c < w.connections(); ++c) {
    mad::server::Client client;
    MAD_RETURN_IF_ERROR(client.Connect("127.0.0.1",
                                       served->fixture->server().port(),
                                       "servebench-" + std::to_string(c)));
    std::vector<std::string> warm = SessionPrelude(kind);
    for (const Workload::Class& cls : w.classes()) {
      if (!cls.pool.empty()) warm.push_back(cls.pool.front());
    }
    for (const std::string& text : warm) {
      MAD_ASSIGN_OR_RETURN(mad::server::Message reply, client.Query(text));
      if (reply.type != mad::server::MessageType::kResult) {
        return mad::Status::Internal("warm-up '" + text + "': " + reply.text);
      }
    }
    served->clients.push_back(std::move(client));
  }
  *seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return mad::Status::OK();
}

int64_t LockedTotalCost(Fixture& fixture) {
  mad::ReaderLock lock(fixture.db().mutex());
  return TotalPartCost(fixture.db());
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

struct JsonMetric {
  std::string name;
  double value;
  std::string unit;
};

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<JsonMetric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void PrintContext(const Args& args, const Served& served, unsigned nproc) {
  const Fixture& f = *served.fixture;
  const mad::server::ServerOptions& o = f.options();
  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("machine: nproc=%u compiler=%s build=%s "
              "(figures are comparable only between runs at equal nproc)\n",
              nproc, SERVEBENCH_COMPILER, SERVEBENCH_BUILD_TYPE);
  std::printf("server: default ServerOptions executor_threads=%zu "
              "(0 = min(nproc, 8)) session_parallelism=%u (0 = nproc) "
              "per_connection_queue=%zu global_inflight=%zu\n",
              o.executor_threads, o.session_options.parallelism,
              o.per_connection_queue, o.global_inflight);
  std::printf("dataset: atoms=%zu links=%zu", f.info().atoms, f.info().links);
  if (!f.info().part_names.empty()) {
    std::printf(" parts=%zu levels=%zu", f.info().part_names.size(),
                f.info().levels.size());
  }
  std::printf("\n");
  if (f.kind() == WorkloadKind::kBomTxn) {
    std::printf("durability: DurableDatabase, SYNC %s, "
                "group commit %zu bytes\n",
                f.durability().sync ? "ON" : "OFF",
                f.durability().group_commit_bytes);
  }
  std::printf("load: closed loop, %zu connection(s), one thread each;"
              " classes, in shuffled rounds of one each:",
              served.workload->connections());
  for (const Workload::Class& c : served.workload->classes()) {
    std::printf(" %s", c.name.c_str());
  }
  std::printf("\n");
}

void PrintLoop(const char* title, const LoopResult& loop) {
  const Tally& t = loop.tally;
  std::printf("%s: %.2f s, %zu statements answered\n", title, loop.elapsed_s,
              loop.latency_us.size());
  std::printf("  failed_frac      %.6f  (%llu of %llu: errors %llu, conflicts "
              "%llu, busy %llu, protocol %llu; oracle mismatches %llu)\n",
              t.failed_frac(), static_cast<unsigned long long>(t.failed()),
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.errors),
              static_cast<unsigned long long>(t.conflicts),
              static_cast<unsigned long long>(t.busy),
              static_cast<unsigned long long>(t.protocol),
              static_cast<unsigned long long>(loop.mismatches));
  if (!loop.txn_us.empty() || loop.transfers_rolled_back > 0) {
    std::printf("  txn_p50_us       %.1f us\n  txn_p99_us       %.1f us"
                "  (n=%zu committed transfers, %llu rolled back)\n",
                Percentile(loop.txn_us, 0.50), Percentile(loop.txn_us, 0.99),
                loop.txn_us.size(),
                static_cast<unsigned long long>(loop.transfers_rolled_back));
  }
  if (!loop.first_problem.empty()) {
    std::printf("  PROBLEM: %s\n", loop.first_problem.c_str());
  }
}

bool LoopCorrect(const LoopResult& loop) {
  return loop.mismatches == 0 && !loop.stream_lost;
}

int Run(const Args& args) {
  mad::Result<WorkloadKind> kind = ParseWorkloadKind(args.workload);
  if (!kind.ok()) {
    std::fprintf(stderr, "servebench: %s\n", kind.status().ToString().c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());

  Served served;
  std::vector<double> setup_s;
  const int setups = args.trace == 0 ? kSetups : 1;
  for (int i = 0; i < setups; ++i) {
    served.TearDown();
    double seconds = 0;
    mad::Status s = SetUp(*kind, args.seed, args.workdir, &served, &seconds);
    if (!s.ok()) {
      std::fprintf(stderr, "servebench: set-up failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    setup_s.push_back(seconds);
  }
  mad::Status oracle = served.workload->BuildOracle(*served.fixture);
  if (!oracle.ok()) {
    std::fprintf(stderr, "servebench: oracle failed: %s\n",
                 oracle.ToString().c_str());
    return 1;
  }
  PrintContext(args, served, nproc);
  const bool bom = *kind == WorkloadKind::kBomTxn;
  const int64_t cost_before = bom ? LockedTotalCost(*served.fixture) : 0;

  bool correct = true;
  LoopResult all;
  std::vector<JsonMetric> json;
  if (args.trace == 0) {
    const std::pair<double, double> ticks = CpuTicks();
    const double cpu_before = ProcessCpuUs();
    LoopResult loop = RunClosedLoop(*served.workload, served.clients,
                                    args.seed, args.seconds);
    const double cpu_us_per_stmt =
        (ProcessCpuUs() - cpu_before) /
        static_cast<double>(std::max<size_t>(1, loop.latency_us.size()));
    PrintLoop("closed loop", loop);
    std::printf("  host cpu steal   %.1f%% of CPU time during the loop\n",
                StealShare(ticks) * 100.0);
    correct = LoopCorrect(loop);
    const WindowedStats w =
        Windowed(loop.latency_us, loop.done_s, loop.elapsed_s, kWindows);
    const double setup = Median(setup_s);
    // latency_p99_us is printed but not in the JSON line: on a shared host
    // its run-to-run spread follows the neighbours more than the engine.
    json = {{"latency_p50_us", w.p50_us, "us"},
            {"throughput_sps", w.rate_per_s, "1/s"},
            {"cpu_us_per_stmt", cpu_us_per_stmt, "us"},
            {"setup_s", setup, "s"}};
    std::printf("  latency_p50_us   %.1f us\n  latency_p99_us   %.1f us\n"
                "  throughput_sps   %.1f statements/s\n"
                "    (medians over %zu windows of %.2f s, each window >= %zu "
                "statements; nearest-rank percentiles)\n"
                "    (whole run: n=%zu statements, p50 %.1f us, p99 %.1f us)\n",
                w.p50_us, w.p99_us, w.rate_per_s, kWindows,
                loop.elapsed_s / static_cast<double>(kWindows),
                w.min_window_samples, loop.latency_us.size(),
                Percentile(loop.latency_us, 0.50),
                Percentile(loop.latency_us, 0.99));
    std::printf("  cpu_us_per_stmt  %.1f us  (process CPU time over the loop "
                "per statement answered)\n",
                cpu_us_per_stmt);
    std::printf("  setup_s          %.4f s  (median of %zu set-ups:",
                setup, setup_s.size());
    for (double s : setup_s) std::printf(" %.4f", s);
    std::printf(")\n");
    all = std::move(loop);
  } else {
    ProbedLoop probed =
        RunProbedLoop(*served.fixture, *served.workload, served.clients,
                      args.seed, args.seconds * (1.0 - kReplayShare));
    Replay replay = RunReplay(*served.fixture, *served.workload, args.seed,
                              args.seconds * kReplayShare);
    PrintLoop("closed loop, probes off", probed.untraced);
    PrintLoop("closed loop, probes on", probed.probed);
    std::printf("trace_overhead: %+.2f%% (latency_p50_us %.1f with probes vs "
                "%.1f without; median ratio over alternating windows)\n",
                probed.trace_overhead * 100.0,
                Percentile(probed.probed.latency_us, 0.5),
                Percentile(probed.untraced.latency_us, 0.5));
    std::printf("%s", replay.table.c_str());
    std::printf("closure check (layer self times vs mql.execute_us + "
                "server.render_us, 10%%): %s\n",
                replay.closure_ok ? "PASS" : "FAIL");
    if (!replay.first_problem.empty()) {
      std::printf("  PROBLEM: %s\n", replay.first_problem.c_str());
    }
    std::vector<LayerMetric> layers = probed.metrics;
    layers.insert(layers.end(), replay.metrics.begin(), replay.metrics.end());
    std::printf("per-layer metrics:\n");
    for (const LayerMetric& m : layers) {
      std::printf("  %-30s %14.3f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const char* name : kJsonPerLayer) {
      auto it = std::find_if(
          layers.begin(), layers.end(),
          [&](const LayerMetric& m) { return m.name == name; });
      if (it == layers.end()) {
        std::printf("  PROBLEM: per-layer metric %s not measured\n", name);
        correct = false;
        continue;
      }
      json.push_back({it->name, it->value, it->unit});
    }
    correct = correct && LoopCorrect(probed.untraced) &&
              LoopCorrect(probed.probed) && replay.mismatches == 0;
    all = std::move(probed.untraced);
    all.Merge(probed.probed);
  }

  if (bom) {
    const int64_t cost_after = LockedTotalCost(*served.fixture);
    const bool conserved = cost_after == cost_before;
    std::printf("cost conservation: total part cost %lld before, "
                "%lld after: %s\n",
                static_cast<long long>(cost_before),
                static_cast<long long>(cost_after),
                conserved ? "conserved" : "VIOLATED");
    mad::Status wal = served.fixture->durable()->last_error();
    if (!wal.ok()) {
      std::printf("  PROBLEM: WAL error %s\n", wal.ToString().c_str());
    }
    correct = correct && conserved && wal.ok();
  }
  served.TearDown();

  if (args.trace == 0) {
    // After tear-down, so the final checkpoint of bom_txn counts too.
    const double rss = PeakRssMb();
    json.push_back({"peak_rss_mb", rss, "MB"});
    std::printf("  peak_rss_mb      %.1f MB\n", rss);
  }
  std::printf("correct: %s\n", correct ? "yes" : "NO");
  PrintJson(correct, all.tally.attempted, all.tally.failed(), json);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload geo_point|geo_scan|bom_txn "
                 "--seed N --seconds S --trace 0|1 [--workdir DIR]\n"
                 "       servebench --self-test [--workdir DIR]\n");
    return 2;
  }
  if (args.self_test) return servebench::RunSelfTest(args.workdir);
  return servebench::Run(args);
}
