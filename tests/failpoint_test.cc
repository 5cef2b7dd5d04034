// Deterministic fault injection: the failpoint facility itself, bounded
// retry of transient temp-file write failures, clean SqlError reporting
// when retries exhaust, and forced mid-query hash->sort fallbacks.
//
// Failpoints compile to a literal `false` in optimized builds unless
// OVC_ENABLE_FAILPOINTS is defined (the CMake option CI's TSan job sets);
// every test here skips itself when the facility is compiled out.

#include <string>

#include <gtest/gtest.h>

#include "common/counters.h"
#include "common/failpoint.h"
#include "common/temp_file.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/scan.h"
#include "plan/plan_executor.h"
#include "sql/catalog.h"
#include "sql/session.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::DrainValidated;
using ::ovc::testing::MakeTable;
using ::ovc::testing::RowVec;
using ::ovc::testing::ToRowVec;

#if OVC_FAILPOINTS_ENABLED
#define SKIP_WITHOUT_FAILPOINTS()
#else
#define SKIP_WITHOUT_FAILPOINTS() \
  GTEST_SKIP() << "failpoints compiled out (NDEBUG without OVC_ENABLE_FAILPOINTS)"
#endif

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }

  void RegisterTables(sql::Catalog* catalog) {
    sql::Catalog::GeneratedSpec spec;
    spec.distinct_per_column = 500;
    spec.seed = 21;
    ASSERT_TRUE(catalog
                    ->RegisterGenerated("fact", {"k", "v"}, Schema(1, 1),
                                        10000, spec)
                    .ok());
    spec.seed = 22;
    ASSERT_TRUE(catalog
                    ->RegisterGenerated("dim", {"k", "p"}, Schema(1, 1), 500,
                                        spec)
                    .ok());
  }

  static sql::SqlSession::Options SpillingOptions() {
    sql::SqlSession::Options options;
    options.validate = true;
    options.abort_on_violation = false;
    // A tiny sort workspace so every ORDER BY spills run files.
    options.planner.sort_config.memory_rows = 256;
    return options;
  }
};

TEST_F(FailpointTest, ArmTriggerCountsAndDisarm) {
  SKIP_WITHOUT_FAILPOINTS();
  // skip_first=2, fail_times=3: hits 0..1 pass, 2..4 fail, 5.. pass.
  failpoint::Arm("test.point", /*skip_first=*/2, /*fail_times=*/3);
  int failures = 0;
  for (int i = 0; i < 8; ++i) {
    if (OVC_FAILPOINT("test.point")) ++failures;
  }
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(failpoint::Hits("test.point"), 8u);
  failpoint::Disarm("test.point");
  EXPECT_FALSE(OVC_FAILPOINT("test.point"));
  EXPECT_EQ(failpoint::Hits("test.point"), 0u);
}

TEST_F(FailpointTest, TransientWriteFailureIsRetriedAndCounted) {
  SKIP_WITHOUT_FAILPOINTS();
  // One injected write failure, then real writes succeed: the bounded
  // retry loop must absorb it invisibly -- same rows, io_retries counted.
  sql::Catalog catalog;
  RegisterTables(&catalog);
  const std::string query = "SELECT k, v FROM fact ORDER BY k";

  sql::SqlSession oracle_session(&catalog, SpillingOptions());
  sql::SqlResult<sql::QueryResult> oracle = oracle_session.Run(query);
  ASSERT_TRUE(oracle.ok());

  failpoint::Arm("tempfile.write", /*skip_first=*/0, /*fail_times=*/1);
  sql::SqlSession session(&catalog, SpillingOptions());
  sql::SqlResult<sql::QueryResult> got = session.Run(query);
  ASSERT_TRUE(got.ok()) << got.error().ToString();
  EXPECT_EQ(ToRowVec(got.value().result.rows),
            ToRowVec(oracle.value().result.rows));
  EXPECT_GE(session.counters()->io_retries, 1u);
  EXPECT_GT(failpoint::Hits("tempfile.write"), 0u);
}

TEST_F(FailpointTest, ExhaustedWriteRetriesReportCleanSqlError) {
  SKIP_WITHOUT_FAILPOINTS();
  // Every write fails: retries exhaust, the spilling sort degrades, and
  // the session reports a SqlError -- never a truncated row set, never an
  // abort. Disarming afterwards fully recovers the same session.
  sql::Catalog catalog;
  RegisterTables(&catalog);
  const std::string query = "SELECT k, v FROM fact ORDER BY k";

  failpoint::Arm("tempfile.write");
  sql::SqlSession session(&catalog, SpillingOptions());
  sql::SqlResult<sql::QueryResult> got = session.Run(query);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.error().message.find("execution failed"), std::string::npos)
      << got.error().message;
  EXPECT_NE(got.error().message.find("injected"), std::string::npos)
      << got.error().message;

  failpoint::DisarmAll();
  sql::SqlResult<sql::QueryResult> retry = session.Run(query);
  ASSERT_TRUE(retry.ok()) << retry.error().ToString();
  EXPECT_EQ(retry.value().result.row_count(), 10000u);
}

TEST_F(FailpointTest, ExhaustedOpenRetriesReportCleanSqlError) {
  SKIP_WITHOUT_FAILPOINTS();
  sql::Catalog catalog;
  RegisterTables(&catalog);
  failpoint::Arm("tempfile.open");
  sql::SqlSession session(&catalog, SpillingOptions());
  sql::SqlResult<sql::QueryResult> got =
      session.Run("SELECT k, v FROM fact ORDER BY k");
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.error().message.find("execution failed"), std::string::npos)
      << got.error().message;
}

TEST_F(FailpointTest, FailedOpenInLimitedSortReportsCleanSqlError) {
  SKIP_WITHOUT_FAILPOINTS();
  // A spilling sort under LIMIT writes cut runs: the first buffer's, then
  // the survivors of the intake cutoff at the end. Failing either open
  // must fail the statement cleanly, and the same session then serves the
  // first 10 rows of the unlimited sort.
  sql::Catalog catalog;
  RegisterTables(&catalog);
  const std::string query = "SELECT k, v FROM fact ORDER BY k LIMIT 10";
  sql::SqlSession oracle_session(&catalog, SpillingOptions());
  sql::SqlResult<sql::QueryResult> oracle =
      oracle_session.Run("SELECT k, v FROM fact ORDER BY k");
  ASSERT_TRUE(oracle.ok());
  RowVec first10 = ToRowVec(oracle.value().result.rows);
  first10.resize(10);
  for (uint64_t skip : {0, 1}) {
    SCOPED_TRACE("opens before the failure: " + std::to_string(skip));
    failpoint::Arm("tempfile.open", skip);
    sql::SqlSession session(&catalog, SpillingOptions());
    sql::SqlResult<sql::QueryResult> got = session.Run(query);
    ASSERT_FALSE(got.ok());
    EXPECT_NE(got.error().message.find("execution failed"), std::string::npos)
        << got.error().message;
    EXPECT_GT(failpoint::Hits("tempfile.open"), skip);
    failpoint::DisarmAll();
    sql::SqlResult<sql::QueryResult> retry = session.Run(query);
    ASSERT_TRUE(retry.ok()) << retry.error().ToString();
    EXPECT_EQ(ToRowVec(retry.value().result.rows), first10);
  }
}

TEST_F(FailpointTest, FailedOpenDuringRepartitionDegradesCleanly) {
  SKIP_WITHOUT_FAILPOINTS();
  // 2000 build rows over 16 level-0 partitions overflow a 64-row budget,
  // so the first pair loaded is split again. The level-0 split's 32 temp
  // files (16 build, 16 probe) open; every open after them fails, so the
  // level-1 split stops at its first writer. The join must record the
  // error and end its output -- not touch the writers it never opened.
  Schema ps(1, 1), bs(1, 1);
  RowBuffer pt = MakeTable(ps, 500, 1000, /*seed=*/31);
  RowBuffer bt = MakeTable(bs, 2000, 1000, /*seed=*/32);
  BufferScan pscan(&ps, &pt), bscan(&bs, &bt);
  QueryCounters counters;
  TempFileManager temp;
  GraceHashJoin join(&pscan, &bscan, /*bind_columns=*/1,
                     JoinTypeHash::kInner, /*memory_rows=*/64, &counters,
                     &temp, FallbackPolicy::kPartition);
  failpoint::Arm("tempfile.open", /*skip_first=*/2 * kHashPartitions);
  DrainValidated(&join, /*check_codes=*/false);
  EXPECT_GT(failpoint::Hits("tempfile.open"), 2 * kHashPartitions);
  const Status error = temp.first_error();
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.ToString().find("injected"), std::string::npos)
      << error.ToString();
}

TEST_F(FailpointTest, FailedSpillFileAtEveryGraceSplitDegradesCleanly) {
  SKIP_WITHOUT_FAILPOINTS();
  // A kPartition grace join whose level-0 pairs re-split, and a hash
  // aggregate that re-spills recursively, with one temp-file open or write
  // failing at a time: in the level-0 build or probe split, or in a
  // deeper one. Each must record the error and end its output. The join's
  // first re-split makes opens 32-47 (its build files) and 48-63 (its
  // probe files).
  Schema ps(1, 1), bs(1, 1), as(2, 1);
  RowBuffer pt = MakeTable(ps, 500, 1000, /*seed=*/31);
  RowBuffer bt = MakeTable(bs, 2000, 1000, /*seed=*/32);
  RowBuffer at = MakeTable(as, 5000, 30, /*seed=*/33);
  for (const char* point : {"tempfile.open", "tempfile.write"}) {
    for (uint64_t skip : {0, 7, 16, 20, 32, 33, 40, 41, 48, 55}) {
      SCOPED_TRACE(std::string(point) + " after " + std::to_string(skip));
      {
        BufferScan pscan(&ps, &pt), bscan(&bs, &bt);
        QueryCounters counters;
        TempFileManager temp;
        GraceHashJoin join(&pscan, &bscan, /*bind_columns=*/1,
                           JoinTypeHash::kInner, /*memory_rows=*/64,
                           &counters, &temp, FallbackPolicy::kPartition);
        failpoint::Arm(point, skip);
        DrainValidated(&join, /*check_codes=*/false);
        failpoint::DisarmAll();
        EXPECT_FALSE(temp.first_error().ok());
      }
      {
        BufferScan scan(&as, &at);
        QueryCounters counters;
        TempFileManager temp;
        HashAggregate agg(&scan, /*group_prefix=*/2, {{AggFn::kCount, 0}},
                          /*memory_groups=*/16, &counters, &temp,
                          FallbackPolicy::kPartition);
        failpoint::Arm(point, skip);
        DrainValidated(&agg, /*check_codes=*/false);
        failpoint::DisarmAll();
        EXPECT_FALSE(temp.first_error().ok());
      }
    }
  }
}

TEST_F(FailpointTest, ForcedJoinOverflowFallsBackDeterministically) {
  SKIP_WITHOUT_FAILPOINTS();
  // The build side fits comfortably; the failpoint forces the overflow
  // decision anyway. The fallback must be invisible in the output and
  // visible in the counters and the EXPLAIN ANALYZE rendering.
  sql::Catalog catalog;
  RegisterTables(&catalog);
  const std::string query =
      "SELECT f.k, f.v, d.p FROM fact f JOIN dim d ON f.k = d.k";
  sql::SqlSession::Options options = SpillingOptions();
  options.planner.cost_policy = plan::CostPolicy::kRuleBased;

  sql::SqlSession oracle_session(&catalog, options);
  sql::SqlResult<sql::QueryResult> oracle = oracle_session.Run(query);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle_session.counters()->hash_join_fallbacks, 0u);

  failpoint::Arm("grace_hash_join.force_overflow");
  sql::SqlSession session(&catalog, options);
  sql::SqlResult<sql::QueryResult> got = session.Run(query);
  ASSERT_TRUE(got.ok()) << got.error().ToString();
  RowVec want = ToRowVec(oracle.value().result.rows);
  RowVec rows = ToRowVec(got.value().result.rows);
  Canonicalize(&want);
  Canonicalize(&rows);
  EXPECT_EQ(rows, want);
  EXPECT_EQ(session.counters()->hash_join_fallbacks, 1u);

  sql::SqlResult<sql::QueryResult> analyzed =
      session.Run("EXPLAIN ANALYZE " + query);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed.value().explain_text.find("!fallback(hash->sort)"),
            std::string::npos)
      << analyzed.value().explain_text;
  EXPECT_NE(analyzed.value().profile_json.find("\"hash_join_fallbacks\":1"),
            std::string::npos)
      << analyzed.value().profile_json;
}

TEST_F(FailpointTest, ForcedAggregateOverflowFallsBackDeterministically) {
  SKIP_WITHOUT_FAILPOINTS();
  sql::Catalog catalog;
  RegisterTables(&catalog);
  const std::string query =
      "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM fact GROUP BY k";
  sql::SqlSession::Options options = SpillingOptions();
  options.planner.cost_policy = plan::CostPolicy::kRuleBased;

  sql::SqlSession oracle_session(&catalog, options);
  sql::SqlResult<sql::QueryResult> oracle = oracle_session.Run(query);
  ASSERT_TRUE(oracle.ok());

  failpoint::Arm("hash_aggregate.force_overflow");
  sql::SqlSession session(&catalog, options);
  sql::SqlResult<sql::QueryResult> got = session.Run(query);
  ASSERT_TRUE(got.ok()) << got.error().ToString();
  RowVec want = ToRowVec(oracle.value().result.rows);
  RowVec rows = ToRowVec(got.value().result.rows);
  Canonicalize(&want);
  Canonicalize(&rows);
  EXPECT_EQ(rows, want);
  EXPECT_EQ(session.counters()->hash_agg_fallbacks, 1u);
}

}  // namespace
}  // namespace ovc
