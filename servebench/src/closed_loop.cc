#include "closed_loop.h"

#include <chrono>
#include <latch>
#include <thread>

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;
using mad::server::MessageType;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Sends `text` and records its latency; returns false when the stream
/// broke. `*reply_out` and `*outcome_out` receive the reply and its class.
bool Send(mad::server::Client& client, const std::string& text,
          LoopResult* out, mad::server::Message* reply_out,
          Outcome* outcome_out) {
  Clock::time_point start = Clock::now();
  mad::Result<mad::server::Message> reply = client.Query(text);
  const Clock::time_point done = Clock::now();
  Outcome outcome = Classify(reply);
  *outcome_out = outcome;
  if (!reply.ok()) {
    out->tally.Add(outcome);
    out->stream_lost = true;
    out->NoteProblem("reply stream lost on '" + text +
                     "': " + reply.status().ToString());
    return false;
  }
  out->latency_us.push_back(
      std::chrono::duration<double, std::micro>(done - start).count());
  out->done_s.push_back(
      std::chrono::duration<double>(done - out->origin).count());
  *reply_out = *std::move(reply);
  return true;
}

}  // namespace

Outcome Classify(const mad::Result<mad::server::Message>& reply) {
  if (!reply.ok()) return Outcome::kProtocol;
  switch (reply->type) {
    case MessageType::kResult:
      return Outcome::kOk;
    case MessageType::kError:
      return reply->text.find("MQL0601") != std::string::npos
                 ? Outcome::kConflict
                 : Outcome::kError;
    case MessageType::kBusy:
      return Outcome::kBusy;
    default:
      return Outcome::kProtocol;
  }
}

void LoopResult::Merge(const LoopResult& other) {
  latency_us.insert(latency_us.end(), other.latency_us.begin(),
                    other.latency_us.end());
  done_s.insert(done_s.end(), other.done_s.begin(), other.done_s.end());
  txn_us.insert(txn_us.end(), other.txn_us.begin(), other.txn_us.end());
  tally.Merge(other.tally);
  transfers_committed += other.transfers_committed;
  transfers_rolled_back += other.transfers_rolled_back;
  mismatches += other.mismatches;
  stream_lost = stream_lost || other.stream_lost;
  if (!other.first_problem.empty()) NoteProblem(other.first_problem);
}

bool RunStatement(mad::server::Client& client, const Workload& workload,
                  const std::string& text, LoopResult* out) {
  mad::server::Message reply;
  Outcome outcome;
  if (!Send(client, text, out, &reply, &outcome)) return false;
  if (outcome == Outcome::kOk && !workload.Check(text, reply.text)) {
    ++out->mismatches;
    out->NoteProblem("oracle mismatch on '" + text + "'");
    outcome = Outcome::kError;
  }
  out->tally.Add(outcome);
  return true;
}

bool RunTransfer(mad::server::Client& client, const Transfer& transfer,
                 LoopResult* out) {
  const std::vector<std::string> texts = TransferStatements(transfer);
  mad::server::Message reply;
  Outcome outcome;
  Clock::time_point begin_sent = Clock::now();
  if (!Send(client, texts[0], out, &reply, &outcome)) return false;
  out->tally.Add(outcome);
  if (outcome != Outcome::kOk) return true;  // no transaction opened

  bool failed = false;
  for (size_t i = 1; i <= 2 && !failed; ++i) {
    if (!Send(client, texts[i], out, &reply, &outcome)) return false;
    if (outcome == Outcome::kOk && reply.affected != 1) {
      ++out->mismatches;
      out->NoteProblem("'" + texts[i] + "' updated " +
                       std::to_string(reply.affected) + " parts, not 1");
      outcome = Outcome::kError;
    }
    out->tally.Add(outcome);
    failed = outcome != Outcome::kOk;
  }
  if (failed) {
    if (!Send(client, "ROLLBACK;", out, &reply, &outcome)) return false;
    out->tally.Add(outcome);
    ++out->transfers_rolled_back;
    return true;
  }
  if (!Send(client, texts[3], out, &reply, &outcome)) return false;
  out->tally.Add(outcome);
  if (outcome == Outcome::kOk) {
    out->txn_us.push_back(MicrosSince(begin_sent));
    ++out->transfers_committed;
  }
  return true;
}

LoopResult RunClosedLoop(const Workload& workload,
                         std::vector<mad::server::Client>& clients,
                         uint64_t seed, double seconds) {
  std::vector<LoopResult> per_conn(clients.size());
  std::latch ready(static_cast<std::ptrdiff_t>(clients.size()) + 1);
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      KeyStream keys(workload, seed, c, c);
      LoopResult& out = per_conn[c];
      out.latency_us.reserve(1 << 16);
      out.done_s.reserve(1 << 16);
      ready.arrive_and_wait();
      out.origin = start;
      while (Clock::now() < deadline) {
        Workload::Op op = keys.Next();
        bool alive = op.text != nullptr
                         ? RunStatement(clients[c], workload, *op.text, &out)
                         : RunTransfer(clients[c], op.transfer, &out);
        if (!alive) break;
      }
    });
  }
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  ready.arrive_and_wait();
  for (std::thread& t : threads) t.join();

  LoopResult total;
  total.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (const LoopResult& r : per_conn) total.Merge(r);
  return total;
}

}  // namespace servebench
