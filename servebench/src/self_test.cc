#include "self_test.h"

#include <cstdio>
#include <filesystem>
#include <vector>

#include "closed_loop.h"
#include "fixture.h"
#include "stats.h"
#include "util/sync.h"

namespace servebench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void TestPercentile() {
  std::printf("nearest-rank percentile\n");
  std::vector<double> five = {5, 1, 4, 2, 3};
  Expect(Percentile(five, 0.5) == 3, "p50 of {5,1,4,2,3} is 3");
  Expect(Percentile(five, 0.99) == 5, "p99 of 5 samples is the maximum");
  Expect(Percentile(five, 0.2) == 1, "p20 of 5 samples is the minimum");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(Percentile(hundred, 0.5) == 50, "p50 of 1..100 is 50");
  Expect(Percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(Percentile({7}, 0.99) == 7, "any percentile of one sample is it");
  Expect(Percentile({}, 0.5) == 0, "empty sample reads 0");
}

mad::Result<mad::server::Message> Reply(mad::server::MessageType type,
                                        const std::string& text) {
  mad::server::Message m;
  m.type = type;
  m.text = text;
  return m;
}

void TestAccounting() {
  using mad::server::MessageType;
  std::printf("failed_frac accounting\n");
  Expect(Classify(Reply(MessageType::kResult, "1 atom(s) updated")) ==
             Outcome::kOk,
         "RESULT is ok");
  Expect(Classify(Reply(MessageType::kError,
                        "Aborted: MQL0601 write-write conflict")) ==
             Outcome::kConflict,
         "ERROR carrying MQL0601 is a conflict");
  Expect(Classify(Reply(MessageType::kError, "NotFound: part")) ==
             Outcome::kError,
         "other ERROR is an error");
  Expect(Classify(Reply(MessageType::kBusy, "queue full")) == Outcome::kBusy,
         "BUSY is busy");
  Expect(Classify(Reply(MessageType::kPong, "")) == Outcome::kProtocol,
         "an unexpected message type is a protocol failure");
  Expect(Classify(mad::Status::Internal("connection reset")) ==
             Outcome::kProtocol,
         "a lost reply stream is a protocol failure");
  Tally t;
  for (Outcome o : {Outcome::kOk, Outcome::kOk, Outcome::kOk, Outcome::kError,
                    Outcome::kConflict, Outcome::kBusy, Outcome::kProtocol}) {
    t.Add(o);
  }
  Expect(t.attempted == 7 && t.failed() == 4, "7 attempted, 4 failed");
  Expect(t.failed_frac() == 4.0 / 7.0, "failed_frac = failed / attempted");
  Tally empty;
  Expect(empty.failed_frac() == 0.0, "failed_frac of nothing is 0");
}

int64_t PartCost(mad::Database& db, const std::string& name) {
  mad::ReaderLock lock(db.mutex());
  auto ids = db.LookupByAttribute("part", "name", mad::Value(name));
  if (!ids.ok() || ids->size() != 1) return -1;
  auto atom = db.GetAtom("part", (*ids)[0]);
  return atom.ok() ? (*atom)->values[1].AsInt64() : -1;
}

int64_t TotalCost(mad::Database& db) {
  mad::ReaderLock lock(db.mutex());
  return TotalPartCost(db);
}

void TestTransferRollback(const std::string& workdir) {
  std::printf("transfer / rollback path\n");
  auto fixture = Fixture::Create(WorkloadKind::kBomTxn, workdir);
  Expect(fixture.ok(), "bom_txn fixture starts");
  if (!fixture.ok()) return;
  Fixture& f = **fixture;
  mad::Database& db = f.db();
  const std::string a = f.info().levels[1][0];
  const std::string b = f.info().levels[1][1];
  const int64_t total = TotalCost(db);
  const int64_t a_cost = PartCost(db, a);

  mad::server::Client holder;
  mad::server::Client mover;
  bool connected =
      holder.Connect("127.0.0.1", f.server().port(), "holder").ok() &&
      mover.Connect("127.0.0.1", f.server().port(), "mover").ok();
  Expect(connected, "two sessions connect");
  if (!connected) return;

  // The holder keeps b pending, so the transfer's second UPDATE conflicts
  // after its first one already debited a inside the transaction.
  auto begin = holder.Query("BEGIN;");
  auto hold = holder.Query("UPDATE part SET cost = cost + 0 WHERE name = '" +
                           b + "';");
  Expect(begin.ok() && hold.ok() &&
             hold->type == mad::server::MessageType::kResult,
         "holder opens a transaction with b pending");

  LoopResult r;
  bool alive = RunTransfer(mover, {a, b, 5}, &r);
  Expect(alive, "reply stream stays up");
  Expect(r.tally.conflicts == 1, "second UPDATE fails with MQL0601");
  Expect(r.transfers_rolled_back == 1 && r.transfers_committed == 0,
         "the transfer is rolled back, not committed");
  Expect(r.tally.attempted == 4 && r.tally.failed() == 1,
         "BEGIN, UPDATE, UPDATE, ROLLBACK attempted; one failed");
  auto commit = holder.Query("COMMIT;");
  Expect(commit.ok() && commit->type == mad::server::MessageType::kResult,
         "holder commits");
  Expect(PartCost(db, a) == a_cost, "a's debit was undone");
  Expect(TotalCost(db) == total, "total cost conserved after the rollback");

  LoopResult again;
  alive = RunTransfer(mover, {a, b, 5}, &again);
  Expect(alive && again.transfers_committed == 1 && again.tally.failed() == 0,
         "the session is usable again and a clean transfer commits");
  Expect(again.txn_us.size() == 1, "a committed transfer records its txn time");
  Expect(PartCost(db, a) == a_cost - 5, "a was debited by the commit");
  Expect(TotalCost(db) == total, "total cost conserved after the commit");
  (void)holder.Close();
  (void)mover.Close();
}

void TestOracle(const std::string& workdir) {
  std::printf("oracle mismatch detection\n");
  for (WorkloadKind kind : {WorkloadKind::kGeoPoint, WorkloadKind::kBomTxn}) {
    auto fixture = Fixture::Create(kind, workdir);
    Expect(fixture.ok(), std::string(WorkloadName(kind)) + " fixture starts");
    if (!fixture.ok()) return;
    std::unique_ptr<Workload> w = Workload::Make(**fixture, 7);
    Expect(w->BuildOracle(**fixture).ok(), "oracle builds");
    mad::server::Client client;
    Expect(client.Connect("127.0.0.1", (*fixture)->server().port()).ok(),
           "client connects");
    for (const std::string& text : SessionPrelude(kind)) {
      (void)client.Query(text);
    }
    const std::string& text = w->classes()[0].pool.front();
    auto reply = client.Query(text);
    Expect(reply.ok() && reply->type == mad::server::MessageType::kResult,
           "served '" + text + "'");
    if (!reply.ok()) return;
    const std::string body = reply->text;
    Expect(w->Check(text, body), "the served body matches the oracle");

    std::string corrupted = body;
    size_t at = corrupted.find('<');
    if (at != std::string::npos) corrupted.erase(at, 1);
    Expect(!w->Check(text, corrupted), "a body missing one atom is rejected");
    Expect(!w->Check(text, ""), "an empty body is rejected");
    if (kind != WorkloadKind::kBomTxn) {
      corrupted = body;
      corrupted[corrupted.size() / 3] ^= 0x01;
      Expect(!w->Check(text, corrupted),
             "a body with one flipped bit is rejected");
      std::string retimed =
          StripTimings(body) + "derived 1 molecule: 99.99 ms\n";
      Expect(w->Check(text, retimed), "a different timing line is ignored");
    }
    (void)client.Close();
  }
}

}  // namespace

int RunSelfTest(const std::string& workdir) {
  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  TestPercentile();
  TestAccounting();
  TestTransferRollback(workdir);
  TestOracle(workdir);
  std::printf("self-test: %s (%d failure(s))\n",
              failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace servebench
