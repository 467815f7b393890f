#include "fixture.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <thread>

#include "mql/session.h"
#include "server/result_render.h"
#include "workload/bom.h"
#include "workload/geo.h"

namespace servebench {

namespace {

// geo_point / geo_scan dataset: GenerateScaledGeo at 800 states (fixed
// generator seed, so every run serves the same 21k-atom database).
constexpr int kGeoStates = 800;
// bom_txn dataset: 8 roots, depth 6, fanout 3, 30% shared sub-parts.
constexpr int kBomRoots = 8;
constexpr int kBomDepth = 6;
constexpr int kBomFanout = 3;
constexpr double kBomShare = 0.3;
// Distinct statements per parameterised class.
constexpr size_t kPoolSize = 192;

std::string Quote(const std::string& s) {
  return std::string("'").append(s).append("'");
}

std::string Decimal(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", x);
  return buf;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// bom part names, level by level, in occurrence order. GenerateBom names
/// roots root<k> and the parts of level d p<d>_<n>.
std::vector<std::vector<std::string>> PartLevels(const mad::Database& db) {
  std::vector<std::vector<std::string>> levels;
  auto part = db.GetAtomType("part");
  if (!part.ok()) return levels;
  for (const mad::Atom& atom : (*part)->occurrence().atoms()) {
    const std::string& name = atom.values[0].AsString();
    size_t level = 0;
    if (name[0] == 'p') level = std::stoul(name.substr(1, name.find('_') - 1));
    if (levels.size() <= level) levels.resize(level + 1);
    levels[level].push_back(name);
  }
  return levels;
}

}  // namespace

mad::Result<WorkloadKind> ParseWorkloadKind(const std::string& name) {
  for (WorkloadKind kind : {WorkloadKind::kGeoPoint, WorkloadKind::kGeoScan,
                            WorkloadKind::kBomTxn}) {
    if (name == WorkloadName(kind)) return kind;
  }
  return mad::Status::InvalidArgument(
      "unknown workload '" + name + "' (geo_point, geo_scan, bom_txn)");
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kGeoPoint: return "geo_point";
    case WorkloadKind::kGeoScan: return "geo_scan";
    case WorkloadKind::kBomTxn: return "bom_txn";
  }
  return "?";
}

size_t ConnectionCount(WorkloadKind kind, unsigned nproc) {
  size_t wanted = kind == WorkloadKind::kGeoScan ? 1 : 3;
  return std::max<size_t>(1, std::min<size_t>(wanted, nproc));
}

mad::Result<std::unique_ptr<Fixture>> Fixture::Create(
    WorkloadKind kind, const std::string& workdir) {
  std::unique_ptr<Fixture> f(new Fixture());
  f->kind_ = kind;
  if (kind == WorkloadKind::kBomTxn) {
    static std::atomic<int> serial{0};
    f->dir_ = workdir + "/bom-" + std::to_string(::getpid()) + "-" +
              std::to_string(serial++);
    std::error_code ec;
    std::filesystem::remove_all(f->dir_, ec);
    f->durability_.database_name = "BOM";
    f->durability_.sync = false;
    MAD_ASSIGN_OR_RETURN(f->durable_,
                         mad::DurableDatabase::Open(f->dir_, f->durability_));
    f->db_ = &f->durable_->database();
    mad::workload::BomScale scale;
    scale.roots = kBomRoots;
    scale.depth = kBomDepth;
    scale.fanout = kBomFanout;
    scale.share_fraction = kBomShare;
    MAD_ASSIGN_OR_RETURN(mad::workload::BomStats stats,
                         mad::workload::GenerateBom(*f->db_, scale));
    MAD_RETURN_IF_ERROR(f->db_->CreateIndex("part", "name"));
    f->info_.levels = PartLevels(*f->db_);
    for (const auto& level : f->info_.levels) {
      f->info_.part_names.insert(f->info_.part_names.end(), level.begin(),
                                 level.end());
    }
    if (f->info_.part_names.size() != stats.parts) {
      return mad::Status::Internal("bom part naming differs from GenerateBom");
    }
  } else {
    f->memory_db_ = std::make_unique<mad::Database>("GEO");
    f->db_ = f->memory_db_.get();
    mad::workload::GeoScale scale;
    scale.states = kGeoStates;
    scale.rivers = kGeoStates / 5;
    MAD_RETURN_IF_ERROR(
        mad::workload::GenerateScaledGeo(*f->db_, scale).status());
    MAD_RETURN_IF_ERROR(f->db_->CreateIndex("state", "name"));
  }
  f->info_.atoms = f->db_->total_atom_count();
  f->info_.links = f->db_->total_link_count();
  f->server_ = std::make_unique<mad::server::MadServer>(f->db_, f->options_,
                                                        f->durable_.get());
  MAD_RETURN_IF_ERROR(f->server_->Start());
  return f;
}

Fixture::~Fixture() {
  if (server_ != nullptr) server_->Shutdown();
  server_.reset();
  durable_.reset();
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

std::vector<std::string> SessionPrelude(WorkloadKind kind) {
  if (kind == WorkloadKind::kBomTxn) return {};
  return {
      "SELECT ALL FROM map(state-area-edge-point) WHERE state.name = 'S1';"};
}

std::vector<std::string> TransferStatements(const Transfer& t) {
  const std::string amount = std::to_string(t.amount);
  return {"BEGIN;",
          "UPDATE part SET cost = cost - " + amount +
              " WHERE name = " + Quote(t.from) + ";",
          "UPDATE part SET cost = cost + " + amount +
              " WHERE name = " + Quote(t.to) + ";",
          "COMMIT;"};
}

int64_t TotalPartCost(const mad::Database& db) {
  int64_t total = 0;
  auto part = db.GetAtomType("part");
  if (!part.ok()) return 0;
  for (const mad::Atom& atom : (*part)->occurrence().atoms()) {
    total += atom.values[1].AsInt64();
  }
  return total;
}

std::string StripTimings(const std::string& rendered) {
  std::string out;
  size_t pos = 0;
  while (pos < rendered.size()) {
    size_t end = rendered.find('\n', pos);
    if (end == std::string::npos) end = rendered.size() - 1;
    std::string_view line(rendered.data() + pos, end - pos + 1);
    if (line.rfind("derived ", 0) != 0) out += line;
    pos = end + 1;
  }
  return out;
}

KeyStream::KeyStream(const Workload& workload, uint64_t seed, size_t stream,
                     size_t conn)
    : workload_(workload),
      conn_(conn),
      rng_(SplitMix(SplitMix(seed) + stream + 1)),
      round_(workload.classes().size()),
      pos_(round_.size()) {
  for (size_t c = 0; c < round_.size(); ++c) round_[c] = c;
}

Workload::Op KeyStream::Next() {
  if (pos_ == round_.size()) {
    std::shuffle(round_.begin(), round_.end(), rng_);
    pos_ = 0;
  }
  return NextOf(round_[pos_++]);
}

std::unique_ptr<Workload> Workload::Make(const Fixture& fixture,
                                         uint64_t seed) {
  std::unique_ptr<Workload> w(new Workload());
  w->kind_ = fixture.kind();
  w->connections_ = ConnectionCount(
      w->kind_, std::max(1u, std::thread::hardware_concurrency()));
  std::mt19937_64 rng(SplitMix(seed));
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  auto fill = [&](Class& c, auto&& make) {
    for (size_t i = 0; i < kPoolSize; ++i) c.pool.push_back(make());
    std::sort(c.pool.begin(), c.pool.end());
    c.pool.erase(std::unique(c.pool.begin(), c.pool.end()), c.pool.end());
  };
  auto state = [&] {
    return std::string("S").append(std::to_string(pick(kGeoStates) + 1));
  };
  // Numeric thresholds are stratified: the i-th draw of a pool falls in the
  // i-th of kPoolSize equal slices of the range, so every seed's pool spans
  // the range evenly and runs differ in keys, not in selectivity mix.
  size_t draw = 0;
  auto stratified = [&](size_t range) {
    const size_t i = draw++ % kPoolSize;
    return (i * range + pick(range)) / kPoolSize;
  };
  auto coordinate = [&] {
    return Decimal(static_cast<double>(stratified(10000)) / 10.0);
  };

  switch (w->kind_) {
    case WorkloadKind::kGeoPoint: {
      w->classes_ = {{"state_eq", {}}, {"point_nbhd", {}}, {"leaf_proj", {}}};
      fill(w->classes_[0], [&] {
        return "SELECT ALL FROM map WHERE state.name = " + Quote(state()) + ";";
      });
      // Corner points p<state>_<k>, k in 1..10 (GeoScale's point pool).
      fill(w->classes_[1], [&] {
        std::string point = std::string("p")
                                .append(std::to_string(pick(kGeoStates) + 1))
                                .append("_")
                                .append(std::to_string(pick(10) + 1));
        return "SELECT ALL FROM point-edge-(area-state,net-river) WHERE "
               "point.name = " + Quote(point) + ";";
      });
      fill(w->classes_[2], [&] {
        return "SELECT state.name, point.x FROM map WHERE state.name = " +
               Quote(state()) + " AND point.x >= " + coordinate() + ";";
      });
      break;
    }
    case WorkloadKind::kGeoScan: {
      w->classes_ = {{"full_map", {"SELECT ALL FROM map;"}},
                     {"hectare_gt", {}},
                     {"point_x_ge", {}},
                     {"projection",
                      {"SELECT state.name, area.hectare, point.x FROM map;"}}};
      fill(w->classes_[1], [&] {
        return "SELECT ALL FROM map WHERE state.hectare > " +
               std::to_string(stratified(2000)) + ";";
      });
      fill(w->classes_[2], [&] {
        return "SELECT ALL FROM map WHERE point.x >= " + coordinate() + ";";
      });
      break;
    }
    case WorkloadKind::kBomTxn: {
      const DatasetInfo& info = fixture.info();
      w->classes_ = {{"explosion", {}}, {"bounded", {}}, {"transfer", {}}};
      fill(w->classes_[0], [&] {
        return "SELECT ALL FROM part-[composition*] WHERE root.name = " +
               Quote(info.levels[0][pick(info.levels[0].size())]) + ";";
      });
      // Mid-level parts: BOM levels 2..4.
      std::vector<std::string> mid;
      for (size_t d = 2; d <= 4 && d < info.levels.size(); ++d) {
        mid.insert(mid.end(), info.levels[d].begin(), info.levels[d].end());
      }
      fill(w->classes_[1], [&] {
        return "SELECT ALL FROM part-[composition*2] WHERE root.name = " +
               Quote(mid[pick(mid.size())]) + ";";
      });
      std::vector<std::string> parts = info.part_names;
      std::shuffle(parts.begin(), parts.end(), rng);
      w->partitions_.resize(w->connections_);
      for (size_t i = 0; i < parts.size(); ++i) {
        w->partitions_[i % w->connections_].push_back(parts[i]);
      }
      break;
    }
  }
  return w;
}

mad::Status Workload::BuildOracle(Fixture& fixture) {
  // The same statements through an in-process Session over the same
  // database, rendered by the server's own renderer.
  mad::mql::Session oracle(&fixture.db());
  for (const std::string& text : SessionPrelude(kind_)) {
    MAD_RETURN_IF_ERROR(oracle.Execute(text).status());
  }
  for (const Class& c : classes_) {
    for (const std::string& text : c.pool) {
      MAD_ASSIGN_OR_RETURN(mad::mql::QueryResult result, oracle.Execute(text));
      if (kind_ == WorkloadKind::kBomTxn) {
        if (result.recursive.size() != 1) {
          return mad::Status::Internal("closure oracle: no single root for " +
                                       text);
        }
        closure_size_[text] = result.recursive[0].atom_count();
      } else {
        expected_[text] = StripTimings(
            mad::server::RenderQueryResult(oracle.database(), result));
      }
    }
  }
  return mad::Status::OK();
}

Workload::Op Workload::Draw(size_t cls, std::mt19937_64& rng,
                           size_t conn) const {
  Op op;
  op.cls = cls;
  const Class& c = classes_[cls];
  if (!c.pool.empty()) {
    op.text = &c.pool[rng() % c.pool.size()];
    return op;
  }
  const std::vector<std::string>& parts = partitions_[conn];
  size_t a = rng() % parts.size();
  size_t b = rng() % (parts.size() - 1);
  if (b >= a) ++b;
  op.transfer = {parts[a], parts[b], static_cast<int64_t>(rng() % 9 + 1)};
  return op;
}

bool Workload::Check(const std::string& text, const std::string& body) const {
  if (kind_ != WorkloadKind::kBomTxn) {
    auto it = expected_.find(text);
    return it != expected_.end() && StripTimings(body) == it->second;
  }
  auto it = closure_size_.find(text);
  if (it == closure_size_.end()) return false;
  if (body.rfind("1 recursive molecule(s)\n", 0) != 0) return false;
  // Count the atoms of the "  level d: {<...>, <...>}" lines. Part values
  // never contain '<', so each atom body opens exactly one.
  size_t atoms = 0;
  size_t pos = 0;
  while ((pos = body.find("\n  level ", pos)) != std::string::npos) {
    size_t end = body.find('\n', pos + 1);
    atoms += static_cast<size_t>(
        std::count(body.begin() + static_cast<std::ptrdiff_t>(pos),
                   end == std::string::npos
                       ? body.end()
                       : body.begin() + static_cast<std::ptrdiff_t>(end),
                   '<'));
    pos = end == std::string::npos ? body.size() : end;
  }
  return atoms == it->second;
}

}  // namespace servebench
