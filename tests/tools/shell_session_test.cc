#include "tools/shell_session.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace aib::tools {
namespace {

class ShellTest : public ::testing::Test {
 protected:
  ShellTest() : session_(out_) {}

  bool Exec(const std::string& line) { return session_.ExecuteLine(line); }
  std::string Output() { return out_.str(); }

  std::ostringstream out_;
  ShellSession session_;
};

TEST_F(ShellTest, EmptyAndCommentLinesAccepted) {
  EXPECT_TRUE(Exec(""));
  EXPECT_TRUE(Exec("   "));
  EXPECT_TRUE(Exec("# just a comment"));
  EXPECT_TRUE(Output().empty());
}

TEST_F(ShellTest, UnknownCommandFails) {
  EXPECT_FALSE(Exec("frobnicate"));
  EXPECT_NE(Output().find("unknown command"), std::string::npos);
}

TEST_F(ShellTest, CreateLoadIndexQueryFlow) {
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("load_random t 500 1 100 5"));
  EXPECT_TRUE(Exec("create_index t 0 1 10"));
  EXPECT_TRUE(Exec("query t 0 5"));
  EXPECT_NE(Output().find("[index]"), std::string::npos);
  EXPECT_TRUE(Exec("query t 0 50"));
  EXPECT_NE(Output().find("[buffer]"), std::string::npos);
}

TEST_F(ShellTest, CreateIndexRejectsUnknownStructure) {
  EXPECT_TRUE(Exec("create_table t 1"));
  for (const char* name : {"csb", "bogus"}) {
    EXPECT_FALSE(Exec(std::string("create_index t 0 1 10 ") + name)) << name;
  }
  EXPECT_NE(Output().find("create_index NAME COLUMN LO HI [btree|hash]"),
            std::string::npos);
  Table* table = session_.catalog()->GetTable("t");
  EXPECT_EQ(session_.catalog()->GetIndex(table, 0), nullptr);
  EXPECT_TRUE(Exec("create_index t 0 1 10 hash"));
  EXPECT_EQ(session_.catalog()->GetIndex(table, 0)->structure_kind(),
            IndexStructureKind::kHash);
}

TEST_F(ShellTest, ConfigRecreatesCatalog) {
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("config space_entries=123 imax=7"));
  EXPECT_EQ(session_.catalog()->GetTable("t"), nullptr);  // fresh catalog
  EXPECT_EQ(session_.catalog()->options().space.max_entries, 123u);
  EXPECT_EQ(session_.catalog()->options().space.max_pages_per_scan, 7u);
}

TEST_F(ShellTest, ConfigRejectsUnknownKey) {
  EXPECT_FALSE(Exec("config bogus=1"));
}

TEST_F(ShellTest, QueryOnMissingTableFails) {
  EXPECT_FALSE(Exec("query nope 0 5"));
  EXPECT_NE(Output().find("no table"), std::string::npos);
}

TEST_F(ShellTest, BadNumberIsReportedNotThrown) {
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_FALSE(Exec("query t 0 not-a-number"));
  EXPECT_NE(Output().find("bad argument"), std::string::npos);
}

TEST_F(ShellTest, InsertValidatesArity) {
  EXPECT_TRUE(Exec("create_table t 2"));
  EXPECT_FALSE(Exec("insert t 1"));
  EXPECT_TRUE(Exec("insert t 1 2"));
  EXPECT_NE(Output().find("inserted at"), std::string::npos);
}

TEST_F(ShellTest, RunReportsMeanCost) {
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("load_random t 400 1 100 3"));
  EXPECT_TRUE(Exec("create_index t 0 1 10"));
  EXPECT_TRUE(Exec("run t 0 5 11 100 9"));
  EXPECT_NE(Output().find("mean cost"), std::string::npos);
}

TEST_F(ShellTest, BuffersAndStatsAndConsistency) {
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("load_random t 400 1 100 3"));
  EXPECT_TRUE(Exec("create_index t 0 1 10"));
  EXPECT_TRUE(Exec("query t 0 42"));
  EXPECT_TRUE(Exec("buffers"));
  EXPECT_NE(Output().find("t.col0"), std::string::npos);
  EXPECT_TRUE(Exec("stats"));
  EXPECT_NE(Output().find("storage.pages_read"), std::string::npos);
  EXPECT_TRUE(Exec("consistency t"));
  EXPECT_NE(Output().find("consistent"), std::string::npos);
}

TEST_F(ShellTest, TunerAttachAndAdapt) {
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("load_random t 300 1 100 3"));
  EXPECT_TRUE(Exec("create_index t 0 1 10"));
  EXPECT_TRUE(Exec("attach_tuner t 0 20 2 0"));
  EXPECT_TRUE(Exec("query t 0 50"));
  EXPECT_TRUE(Exec("query t 0 50"));
  Table* table = session_.catalog()->GetTable("t");
  EXPECT_TRUE(session_.catalog()->GetIndex(table, 0)->Covers(50));
}

TEST_F(ShellTest, ExplainPrintsPlanTree) {
  EXPECT_TRUE(Exec("create_table t 2"));
  EXPECT_TRUE(Exec("load_random t 500 1 100 5"));
  EXPECT_TRUE(Exec("create_index t 0 1 10"));
  EXPECT_TRUE(Exec("explain t 0 5 5"));
  EXPECT_NE(Output().find("Materialize"), std::string::npos);
  EXPECT_NE(Output().find("PartialIndexProbe(col0 = 5)"), std::string::npos);
  out_.str("");
  EXPECT_TRUE(Exec("explain t 0 50 50"));
  EXPECT_NE(Output().find("IndexingTableScan(col0 = 50)"), std::string::npos);
  EXPECT_NE(Output().find("IndexBufferProbe"), std::string::npos);
  out_.str("");
  // Conjunctive: covered driver + residual triplet renders a Filter node.
  EXPECT_TRUE(Exec("explain t 0 5 5 1 1 50"));
  EXPECT_NE(Output().find("Filter(col1 in [1,50])"), std::string::npos);
  EXPECT_FALSE(Exec("explain t 0 5 5 1 1"));  // malformed triplet
}

TEST_F(ShellTest, ConjunctiveQueryViaShell) {
  EXPECT_TRUE(Exec("create_table t 2"));
  EXPECT_TRUE(Exec("load_random t 500 1 100 5"));
  EXPECT_TRUE(Exec("create_index t 0 1 10"));
  EXPECT_TRUE(Exec("query t 0 5 1 1 100"));
  EXPECT_NE(Output().find("[index]"), std::string::npos);
  EXPECT_TRUE(Exec("range t 0 20 60 1 1 50"));
  EXPECT_NE(Output().find("[buffer]"), std::string::npos);
}

TEST_F(ShellTest, StatsIncludesRobustnessSummary) {
  EXPECT_TRUE(Exec("stats"));
  EXPECT_NE(Output().find("robustness: faults_armed=no"), std::string::npos);
  EXPECT_NE(Output().find("quarantined=0"), std::string::npos);
}

TEST_F(ShellTest, StatsIncludesBufferPoolSummary) {
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("load_random t 400 1 100 3"));
  EXPECT_TRUE(Exec("stats"));
  const std::string output = Output();
  const size_t line = output.find("buffer: hit_rate=");
  ASSERT_NE(line, std::string::npos);
  // The line is exactly "buffer: hit_rate=<ratio> page_reuse=<ratio>".
  std::istringstream fields(
      output.substr(line, output.find('\n', line) - line));
  std::string label, hit_rate, page_reuse, extra;
  fields >> label >> hit_rate >> page_reuse;
  EXPECT_FALSE(fields >> extra) << "unexpected field " << extra;
  ASSERT_EQ(hit_rate.rfind("hit_rate=", 0), 0u);
  const double rate = std::stod(hit_rate.substr(9));
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
  EXPECT_EQ(page_reuse.rfind("page_reuse=", 0), 0u);
}

TEST_F(ShellTest, FaultArmAndDisarm) {
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("load_random t 400 1 100 3"));
  EXPECT_TRUE(Exec("create_index t 0 1 10"));
  EXPECT_TRUE(Exec("fault arm 42 0.05"));
  EXPECT_NE(Output().find("faults armed seed=42"), std::string::npos);
  EXPECT_TRUE(Exec("stats"));
  EXPECT_NE(Output().find("faults_armed=yes"), std::string::npos);
  // Queries under faults still succeed: the pool retries transients and the
  // shell re-plans whole queries on corruption, like the QueryService.
  EXPECT_TRUE(Exec("run t 0 50 1 100 9"));
  // The consistency audit masks injection, so it stays clean even while
  // faults are armed at a rate that would otherwise trip its page reads.
  EXPECT_TRUE(Exec("consistency t"));
  EXPECT_NE(Output().find("consistent"), std::string::npos);
  EXPECT_TRUE(Exec("fault off"));
  EXPECT_NE(Output().find("faults disarmed"), std::string::npos);
  out_.str("");
  EXPECT_TRUE(Exec("stats"));
  EXPECT_NE(Output().find("faults_armed=no"), std::string::npos);
  EXPECT_TRUE(Exec("consistency t"));
  EXPECT_NE(Output().find("consistent"), std::string::npos);
}

TEST_F(ShellTest, FaultCommandValidatesArguments) {
  EXPECT_FALSE(Exec("fault"));
  EXPECT_FALSE(Exec("fault arm"));
  EXPECT_FALSE(Exec("fault arm 1"));
  EXPECT_FALSE(Exec("fault sideways 1 0.5"));
  EXPECT_FALSE(Exec("fault arm x 0.5"));
  EXPECT_NE(Output().find("bad argument"), std::string::npos);
}

TEST_F(ShellTest, DeadlineSetAndClear) {
  EXPECT_TRUE(Exec("deadline 250"));
  EXPECT_NE(Output().find("deadline 250 ms"), std::string::npos);
  EXPECT_TRUE(Exec("deadline 0"));
  EXPECT_NE(Output().find("deadline cleared"), std::string::npos);
  EXPECT_FALSE(Exec("deadline"));
  EXPECT_FALSE(Exec("deadline -5"));
}

TEST_F(ShellTest, GenerousDeadlineDoesNotPerturbQueries) {
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("load_random t 400 1 100 3"));
  EXPECT_TRUE(Exec("create_index t 0 1 10"));
  EXPECT_TRUE(Exec("deadline 60000"));
  EXPECT_TRUE(Exec("query t 0 50"));
  EXPECT_NE(Output().find("[buffer]"), std::string::npos);
  EXPECT_TRUE(Exec("run t 0 5 11 100 9"));
  EXPECT_NE(Output().find("mean cost"), std::string::npos);
}

TEST_F(ShellTest, RunScriptCountsFailures) {
  std::istringstream script(
      "create_table t 1\n"
      "load_random t 100 1 50 1\n"
      "bogus_command\n"
      "query t 0 5\n");
  EXPECT_EQ(session_.Run(script), 1u);
}

TEST_F(ShellTest, ShardedModeFlow) {
  EXPECT_TRUE(Exec("shards 4"));
  EXPECT_NE(Output().find("4 shards"), std::string::npos);
  EXPECT_TRUE(Exec("create_table t 2"));
  EXPECT_TRUE(Exec("load_random t 300 1 2000 3"));
  EXPECT_TRUE(Exec("create_index t 0 1 200"));
  EXPECT_TRUE(Exec("query t 0 50"));
  EXPECT_NE(Output().find("legs=1/4"), std::string::npos);
  EXPECT_TRUE(Exec("range t 1 1 2000"));
  EXPECT_NE(Output().find("legs=4/4"), std::string::npos);
  EXPECT_TRUE(Exec("run t 0 5 1 2000 9"));
  EXPECT_NE(Output().find("mean cost"), std::string::npos);
}

TEST_F(ShellTest, ShardedQueryMatchesSingleNodeRowCount) {
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("load_random t 400 1 100 5"));
  EXPECT_TRUE(Exec("query t 0 50"));
  const std::string single = Output();
  const size_t rows_at = single.rfind("rows=");
  ASSERT_NE(rows_at, std::string::npos);
  const std::string single_rows =
      single.substr(rows_at, single.find(' ', rows_at) - rows_at);

  EXPECT_TRUE(Exec("shards 3"));
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("load_random t 400 1 100 5"));  // same seed, same rows
  EXPECT_TRUE(Exec("query t 0 50"));
  const std::string sharded = Output().substr(single.size());
  EXPECT_NE(sharded.find(single_rows + " "), std::string::npos)
      << "sharded row count diverged: " << sharded;
}

TEST_F(ShellTest, ShardedDmlWithShardQualifiedRids) {
  EXPECT_TRUE(Exec("shards 2"));
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("insert t 42"));
  EXPECT_NE(Output().find("inserted at [shard "), std::string::npos);
  // Parse "[shard S (P,L)]" out of the insert echo.
  const std::string echoed = Output();
  const size_t at = echoed.find("inserted at [shard ");
  ASSERT_NE(at, std::string::npos);
  const int shard = std::stoi(echoed.substr(at + 19));
  const size_t paren = echoed.find('(', at);
  ASSERT_NE(paren, std::string::npos);
  const int page = std::stoi(echoed.substr(paren + 1));
  const size_t comma = echoed.find(',', paren);
  const int slot = std::stoi(echoed.substr(comma + 1));
  EXPECT_TRUE(Exec("update t " + std::to_string(shard) + " " +
                   std::to_string(page) + " " + std::to_string(slot) +
                   " 43"));
  EXPECT_NE(Output().find("updated [shard "), std::string::npos);
  EXPECT_TRUE(Exec("query t 0 43"));
  EXPECT_NE(Output().find("rows=1"), std::string::npos);
}

TEST_F(ShellTest, ShardedExplainShowsLegs) {
  EXPECT_TRUE(Exec("shards 4"));
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("load_random t 200 1 500 1"));
  EXPECT_TRUE(Exec("explain t 0 1 500"));
  EXPECT_NE(Output().find("ScatterGatherScan"), std::string::npos);
  EXPECT_NE(Output().find("legs=4/4"), std::string::npos);
  EXPECT_NE(Output().find("Leg[shard 3]"), std::string::npos);
}

TEST_F(ShellTest, ShardedStatsPrintsShardsAndFleetRollup) {
  EXPECT_TRUE(Exec("shards 2"));
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("load_random t 100 1 500 1"));
  EXPECT_TRUE(Exec("query t 0 50"));
  EXPECT_TRUE(Exec("query t 0 60"));
  EXPECT_TRUE(Exec("stats"));
  EXPECT_NE(Output().find("fleet:"), std::string::npos);
  EXPECT_NE(Output().find("shard 1:"), std::string::npos);
  EXPECT_NE(Output().find("shard.statements_routed=2"), std::string::npos);
}

TEST_F(ShellTest, ShardedFaultsRetryTransparently) {
  EXPECT_TRUE(Exec("config pool_pages=8"));
  EXPECT_TRUE(Exec("shards 2"));
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("load_random t 300 1 500 2"));
  EXPECT_TRUE(Exec("fault arm 11 0.02 0.3"));
  EXPECT_NE(Output().find("armed on every shard"), std::string::npos);
  EXPECT_TRUE(Exec("run t 0 30 1 500 5"));
  EXPECT_TRUE(Exec("fault off"));
  EXPECT_TRUE(Exec("consistency t"));
  EXPECT_NE(Output().find("every shard consistent"), std::string::npos);
}

TEST_F(ShellTest, ShardedModeRejectsSnapshots) {
  EXPECT_TRUE(Exec("shards 2"));
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_FALSE(Exec("snapshot_save /tmp/nope.bin"));
  EXPECT_NE(Output().find("single-node-only"), std::string::npos);
}

TEST_F(ShellTest, ShardsOffReturnsToCatalogMode) {
  EXPECT_TRUE(Exec("shards 2"));
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(session_.sharded());
  EXPECT_TRUE(Exec("shards off"));
  EXPECT_FALSE(session_.sharded());
  EXPECT_EQ(session_.sharded_table("t"), nullptr);
  EXPECT_TRUE(Exec("create_table t 1"));  // catalog table again
  EXPECT_TRUE(Exec("load_random t 50 1 50 1"));
  EXPECT_TRUE(Exec("query t 0 5"));
}

TEST_F(ShellTest, ShardsRejectsBadArguments) {
  EXPECT_FALSE(Exec("shards"));
  EXPECT_FALSE(Exec("shards 0"));
  EXPECT_FALSE(Exec("shards 2 bogus"));
  EXPECT_TRUE(Exec("shards 2 range 0"));
  EXPECT_FALSE(Exec("create_table t 0"));  // routing column out of range
}

TEST_F(ShellTest, SnapshotRoundTripViaShell) {
  const std::string path = ::testing::TempDir() + "/shell_snapshot.bin";
  EXPECT_TRUE(Exec("create_table t 1"));
  EXPECT_TRUE(Exec("load_random t 300 1 100 3"));
  EXPECT_TRUE(Exec("create_index t 0 1 10"));
  EXPECT_TRUE(Exec("snapshot_save " + path));
  EXPECT_TRUE(Exec("config"));  // wipe
  EXPECT_TRUE(Exec("snapshot_load " + path));
  EXPECT_TRUE(Exec("query t 0 5"));
  EXPECT_NE(Output().find("[index]"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aib::tools
