// Shared main() for every bench_* binary. Adds a `--json <path>` flag on
// top of the stock google-benchmark flags: when given, a machine-readable
// summary of every run is written to <path> in addition to the usual
// console output, so CI and scripts can diff benchmark results without
// scraping stdout. The JSON shape is deliberately small and stable:
//
//   {"benchmark": "<binary>",
//    "machine": {"nproc": <int>, "compiler": "<name version>",
//                "build_type": "<CMAKE_BUILD_TYPE>"},
//    "results": [
//     {"op": "<name>", "ns_per_op": <double>, "iterations": <int>,
//      "repetitions": <int>, "mad_ns": <double>}, ...]}
//
// `machine` says where the numbers came from, so a comparison across
// machines (tools/bench_compare.py warns on an nproc mismatch) is visible.
// Under --benchmark_repetitions=N each op still gets one row: `ns_per_op`
// is the median over its N runs, `mad_ns` their median absolute deviation
// from it, and `iterations` the iterations of all N runs together.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#ifndef MAD_BUILD_TYPE
#define MAD_BUILD_TYPE ""
#endif

namespace {

/// CPUs this process may run on (what `nproc` prints).
unsigned ProcessorCount() {
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return std::thread::hardware_concurrency();
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

struct JsonRow {
  std::string op;
  double ns_per_op = 0.0;
  int64_t iterations = 0;
  int64_t repetitions = 1;
  double mad_ns = 0.0;
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// One row per op, in first-run order: the median of its runs' ns_per_op,
/// their median absolute deviation, and their summed iterations.
std::vector<JsonRow> CollapseRepetitions(const std::vector<JsonRow>& runs) {
  std::vector<JsonRow> rows;
  std::vector<std::vector<double>> samples;
  for (const JsonRow& run : runs) {
    auto it = std::find_if(rows.begin(), rows.end(), [&](const JsonRow& row) {
      return row.op == run.op;
    });
    if (it == rows.end()) {
      rows.push_back(JsonRow{run.op, 0.0, 0, 0, 0.0});
      samples.emplace_back();
      it = std::prev(rows.end());
    }
    it->iterations += run.iterations;
    samples[static_cast<size_t>(it - rows.begin())].push_back(run.ns_per_op);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const double median = Median(samples[i]);
    std::vector<double> deviations;
    for (double ns : samples[i]) deviations.push_back(std::fabs(ns - median));
    rows[i].ns_per_op = median;
    rows[i].repetitions = static_cast<int64_t>(samples[i].size());
    rows[i].mad_ns = Median(std::move(deviations));
  }
  return rows;
}

/// Console reporter that also keeps a row per successful iteration run
/// (aggregates like mean/stddev are skipped; CollapseRepetitions computes
/// the median and MAD that the JSON reports).
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    benchmark::ConsoleReporter::ReportRuns(report);
    for (const Run& run : report) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      JsonRow row;
      row.op = run.benchmark_name();
      row.iterations = run.iterations;
      if (run.iterations > 0) {
        row.ns_per_op = run.real_accumulated_time /
                        static_cast<double>(run.iterations) * 1e9;
      }
      rows_.push_back(std::move(row));
    }
  }

  const std::vector<JsonRow>& rows() const { return rows_; }

 private:
  std::vector<JsonRow> rows_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool WriteJson(const std::string& path, const std::string& binary,
               const std::vector<JsonRow>& rows) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"benchmark\": \"" << JsonEscape(binary) << "\",\n \"machine\": "
      << "{\"nproc\": " << ProcessorCount() << ", \"compiler\": \""
      << JsonEscape(CompilerName()) << "\", \"build_type\": \""
      << JsonEscape(MAD_BUILD_TYPE) << "\"},\n \"results\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n  {\"op\": \"" << JsonEscape(rows[i].op)
        << "\", \"ns_per_op\": " << rows[i].ns_per_op
        << ", \"iterations\": " << rows[i].iterations
        << ", \"repetitions\": " << rows[i].repetitions
        << ", \"mad_ns\": " << rows[i].mad_ns << "}";
  }
  out << "\n]}\n";
  return out.good();
}

/// Strips the binary's directory prefix, leaving e.g. "bench_perf_clone".
std::string BinaryName(const char* argv0) {
  std::string name = argv0;
  size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return name;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--json requires a path argument\n";
        return 1;
      }
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  int rc = 0;
  if (!json_path.empty()) {
    const std::vector<JsonRow> rows = CollapseRepetitions(reporter.rows());
    if (WriteJson(json_path, BinaryName(argv[0]), rows)) {
      std::cout << "wrote " << rows.size() << " result(s) to " << json_path
                << "\n";
    } else {
      std::cerr << "failed to write " << json_path << "\n";
      rc = 1;
    }
  }
  benchmark::Shutdown();
  return rc;
}
