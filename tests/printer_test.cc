#include "text/printer.h"

#include <gtest/gtest.h>

#include "er/er_model.h"
#include "molecule/derivation.h"
#include "workload/bom.h"
#include "workload/geo.h"

namespace mad {
namespace {

class PrinterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = workload::BuildFigure4GeoDatabase(db_);
    ASSERT_TRUE(ids.ok());
    ids_ = *ids;
  }

  Database db_{"GEO_DB"};
  workload::GeoIds ids_;
};

TEST_F(PrinterTest, FormatAtom) {
  EXPECT_EQ(text::FormatAtom(db_, "state", ids_.states["SP"]),
            "<'SP', 1000>");
  EXPECT_EQ(text::FormatAtom(db_, "state", AtomId{99999}), "<#99999?>");
  EXPECT_EQ(text::FormatAtom(db_, "bogus", AtomId{1}), "<?>");
}

TEST_F(PrinterTest, DatabaseSpecMatchesFigure4Shape) {
  std::string spec = text::FormatDatabaseSpec(db_, 2);
  // Every atom/link type appears as a formal triple, Fig. 4 style.
  EXPECT_NE(spec.find("state = <state, {name: STRING, hectare: INT64}, {"),
            std::string::npos);
  EXPECT_NE(spec.find("river-net = <river-net, {river, net}, {"),
            std::string::npos);
  // Truncation marker.
  EXPECT_NE(spec.find(", ...}"), std::string::npos);
  // The closing database line.
  EXPECT_NE(spec.find("GEO_DB = <{state, city, river, area, net, edge, "
                      "point}, {state-area, city-point, river-net, "
                      "area-edge, net-edge, edge-point}> in DB*"),
            std::string::npos);
}

TEST_F(PrinterTest, MadDiagramListsReflexivity) {
  Database bom("BOM");
  ASSERT_TRUE(workload::BuildCarBom(bom).ok());
  std::string diagram = text::FormatMadDiagram(bom);
  EXPECT_NE(diagram.find("part ---composition--- part  (reflexive)"),
            std::string::npos);
}

TEST_F(PrinterTest, ErDiagramShowsCardinalities) {
  std::string diagram = text::FormatErDiagram(er::Figure1ErSchema());
  EXPECT_NE(diagram.find("area <area-edge n:m> edge"), std::string::npos);
  EXPECT_NE(diagram.find("state <state-area 1:1> area"), std::string::npos);
}

TEST_F(PrinterTest, MoleculeFormatting) {
  auto md = MoleculeDescription::CreateFromTypes(
      db_, {"state", "area"}, {{"state-area", "state", "area", false}});
  ASSERT_TRUE(md.ok());
  auto m = DeriveMoleculeFor(db_, *md, ids_.states["SP"]);
  ASSERT_TRUE(m.ok());
  std::string molecule_text = text::FormatMolecule(db_, *md, *m);
  EXPECT_NE(molecule_text.find("molecule(root=<'SP', 1000>)"),
            std::string::npos);
  EXPECT_NE(molecule_text.find("area: {<'a7', 1000>}"), std::string::npos);

  auto mt = DefineMoleculeType(db_, "pairs", *md);
  ASSERT_TRUE(mt.ok());
  std::string type_text = text::FormatMoleculeType(db_, *mt, 2);
  EXPECT_NE(type_text.find("molecule type 'pairs'"), std::string::npos);
  EXPECT_NE(type_text.find("structure: state-area"), std::string::npos);
  EXPECT_NE(type_text.find("molecule set (10 molecules)"), std::string::npos);
  EXPECT_NE(type_text.find("..."), std::string::npos);  // truncated at 2
}

TEST_F(PrinterTest, RecursiveMoleculeFormatting) {
  Database bom("BOM");
  auto ids = workload::BuildCarBom(bom);
  ASSERT_TRUE(ids.ok());
  RecursiveDescription rd{"part", "composition", LinkDirection::kForward, -1};
  auto m = DeriveRecursiveMoleculeFor(bom, rd, (*ids)["car"]);
  ASSERT_TRUE(m.ok());
  std::string recursive_text = text::FormatRecursiveMolecule(bom, rd, *m);
  EXPECT_NE(recursive_text.find("part-[composition*]"), std::string::npos);
  EXPECT_NE(recursive_text.find("level 0: {<'car', 20000>}"),
            std::string::npos);
  EXPECT_NE(recursive_text.find("level 2:"), std::string::npos);

  RecursiveDescription up{"part", "composition", LinkDirection::kBackward, -1};
  auto bolt = DeriveRecursiveMoleculeFor(bom, up, (*ids)["bolt"]);
  ASSERT_TRUE(bolt.ok());
  EXPECT_NE(text::FormatRecursiveMolecule(bom, up, *bolt)
                .find("part-[composition~*]"),
            std::string::npos);
}

namespace {

// Minimal field extraction for the flat JSON the printer emits; enough to
// round-trip every span back out of QueryTraceToJson.
int64_t JsonInt(const std::string& json, size_t object_start,
                const std::string& key) {
  size_t pos = json.find("\"" + key + "\": ", object_start);
  EXPECT_NE(pos, std::string::npos) << key;
  return std::stoll(json.substr(pos + key.size() + 4));
}

std::string JsonString(const std::string& json, size_t object_start,
                       const std::string& key) {
  size_t pos = json.find("\"" + key + "\": \"", object_start);
  EXPECT_NE(pos, std::string::npos) << key;
  size_t begin = pos + key.size() + 5;
  return json.substr(begin, json.find('"', begin) - begin);
}

// QueryTrace owns a mutex (immovable), so the caller provides it.
void RecordSampleTrace(QueryTrace* trace) {
  {
    TraceScope scope(trace);
    ScopedSpan select("select", "state-area");
    select.set_rows_out(10);
    {
      ScopedSpan derive("derive", "1 thread(s)");
      derive.set_rows_in(10);
      derive.set_rows_out(10);
    }
    for (int i = 0; i < 5; ++i) {
      ScopedSpan append("wal.append");
      append.set_rows_out(32);
    }
  }
}

}  // namespace

TEST_F(PrinterTest, QueryTraceFormattingCollapsesSiblingRuns) {
  QueryTrace trace;
  RecordSampleTrace(&trace);
  std::string out = text::FormatQueryTrace(trace);
  EXPECT_NE(out.find("trace: 7 spans, total "), std::string::npos) << out;
  EXPECT_NE(out.find("select [state-area]"), std::string::npos) << out;
  EXPECT_NE(out.find("derive [1 thread(s)]"), std::string::npos) << out;
  EXPECT_NE(out.find("10 -> 10"), std::string::npos) << out;
  // Five wal.append siblings exceed the run limit of three: the first is
  // printed, the other four collapse into one aggregate line.
  EXPECT_NE(out.find("... 4 more wal.append spans, total "),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("rows out 32", out.find("... 4 more")),
            std::string::npos)
      << out;
}

TEST_F(PrinterTest, QueryTraceJsonRoundTrips) {
  QueryTrace trace;
  RecordSampleTrace(&trace);
  std::string json = text::QueryTraceToJson(trace);
  EXPECT_EQ(static_cast<uint64_t>(JsonInt(json, 0, "total_ns")),
            trace.total_duration_ns());

  // Walk the span objects in order and reconstruct each field.
  size_t pos = json.find("\"spans\": [");
  ASSERT_NE(pos, std::string::npos);
  for (const TraceSpan& span : trace.spans()) {
    pos = json.find("{\"id\":", pos);
    ASSERT_NE(pos, std::string::npos) << "missing object for span " << span.id;
    EXPECT_EQ(JsonInt(json, pos, "id"), span.id);
    EXPECT_EQ(JsonInt(json, pos, "parent"), span.parent);
    EXPECT_EQ(JsonString(json, pos, "name"), span.name);
    EXPECT_EQ(JsonString(json, pos, "note"), span.note);
    EXPECT_EQ(static_cast<uint64_t>(JsonInt(json, pos, "start_ns")),
              span.start_ns);
    EXPECT_EQ(static_cast<uint64_t>(JsonInt(json, pos, "duration_ns")),
              span.duration_ns);
    EXPECT_EQ(JsonInt(json, pos, "rows_in"), span.rows_in);
    EXPECT_EQ(JsonInt(json, pos, "rows_out"), span.rows_out);
    ++pos;
  }
  EXPECT_EQ(json.find("{\"id\":", pos), std::string::npos)
      << "more span objects than spans";
}

TEST_F(PrinterTest, MetricsSnapshotFormattingAndJson) {
  Registry registry;
  registry.GetCounter("c.scans").Add(5);
  registry.GetGauge("g.inflight").Set(-2);
  registry.GetHistogram("h.latency").Observe(3);
  MetricsSnapshot snapshot = registry.Snapshot();

  std::string table = text::FormatMetricsSnapshot(snapshot);
  EXPECT_NE(table.find("c.scans"), std::string::npos);
  EXPECT_NE(table.find("5"), std::string::npos);
  EXPECT_NE(table.find("count 1, mean "), std::string::npos) << table;
  EXPECT_NE(table.find("p50 <= "), std::string::npos) << table;
  EXPECT_EQ(text::FormatMetricsSnapshot(MetricsSnapshot{}),
            "no metrics recorded\n");

  // The JSON form is deterministic for a fixed snapshot — pin it exactly so
  // downstream consumers (bench_compare-style tooling) can rely on it.
  EXPECT_EQ(text::MetricsSnapshotToJson(snapshot),
            "{\"counters\": {\"c.scans\": 5}, "
            "\"gauges\": {\"g.inflight\": -2}, "
            "\"histograms\": {\"h.latency\": {\"count\": 1, \"sum_us\": 3, "
            "\"max_us\": 3, \"p50_us\": 3, \"p99_us\": 3}}}");
}

TEST_F(PrinterTest, HistogramMeanKeepsTheFraction) {
  // 0 us and 5 us average to 2.5 us; dividing in whole microseconds
  // printed 2.0 us.
  Registry registry;
  registry.GetHistogram("h.latency").Observe(0);
  registry.GetHistogram("h.latency").Observe(5);
  std::string table = text::FormatMetricsSnapshot(registry.Snapshot());
  EXPECT_NE(table.find("count 2, mean 2.5 us, "), std::string::npos) << table;
}

TEST_F(PrinterTest, ConceptComparisonContainsAllFigure3Rows) {
  std::string table = text::FormatConceptComparison();
  for (const char* row :
       {"attribute", "relation schema", "atom-type description", "tuple",
        "atom", "link type", "referential integrity(?)",
        "referential integrity(!)", "database domain"}) {
    EXPECT_NE(table.find(row), std::string::npos) << row;
  }
}

}  // namespace
}  // namespace mad
