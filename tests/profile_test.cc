// Observability tests: per-operator QueryProfile actuals cross-checked
// against oracle cardinalities at parallelism 1 and 4 (exact roll-up across
// exchange worker threads), timing sanity, JSON profile round-trips, the
// EXPLAIN ANALYZE rendering's stability for a fixed seed, and the
// estimate-versus-actual feedback loop into TableStats.

#include <cctype>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/profile.h"
#include "plan/logical_plan.h"
#include "plan/physical_plan.h"
#include "plan/plan_executor.h"
#include "sql/catalog.h"
#include "sql/session.h"
#include "tests/test_util.h"

namespace ovc {
namespace {

using plan::BufferSource;
using plan::ExecutionResult;
using plan::LogicalNode;
using plan::PhysicalPlan;
using plan::PlanBuilder;
using plan::PlanExecutor;

using ovc::testing::JsonReader;
using ovc::testing::JsonValue;

/// Replaces every millisecond rendering ("12.345ms") with "?ms" -- the same
/// normalization tools/check_docs.sh applies, so EXPLAIN ANALYZE text is
/// comparable across runs.
std::string NormalizeMs(const std::string& text) {
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    if (std::isdigit(static_cast<unsigned char>(text[i]))) {
      size_t j = i;
      while (j < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[j])) ||
              text[j] == '.')) {
        ++j;
      }
      if (text.compare(j, 2, "ms") == 0) {
        out += "?ms";
        i = j + 2;
        continue;
      }
    }
    out.push_back(text[i++]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// PlanExecutor-level profiles: hand-built join + group-by.
// ---------------------------------------------------------------------------

class ProfileTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kFactRows = 2000;
  static constexpr uint64_t kDimRows = 400;

  ProfileTest()
      : fact_schema_(1, 2),
        dim_schema_(1, 1),
        fact_(testing::MakeTable(fact_schema_, kFactRows, 50, /*seed=*/21)),
        dim_(testing::MakeTable(dim_schema_, kDimRows, 50, /*seed=*/22)) {}

  /// fact JOIN dim on the key column, then COUNT per key -- the acceptance
  /// query shape (join + group-by).
  std::unique_ptr<LogicalNode> BuildJoinAgg() {
    return PlanBuilder::Scan(BufferSource("fact", &fact_schema_, &fact_))
        .Join(PlanBuilder::Scan(BufferSource("dim", &dim_schema_, &dim_)),
              JoinType::kInner)
        .Aggregate(1, {{AggFn::kCount, 0}})
        .Build();
  }

  PlanExecutor::Options MakeOptions(uint32_t parallelism) {
    PlanExecutor::Options options;
    options.validate = true;  // turns on the roll-up self-consistency checks
    options.planner.profile = true;
    options.planner.parallelism = parallelism;
    options.planner.exchange.batch_rows = 128;  // several batches per worker
    return options;
  }

  /// Oracle result: the same logical plan, serial and un-profiled.
  testing::RowVec OracleRows() {
    QueryCounters counters;
    PlanExecutor::Options options;
    options.validate = true;
    PlanExecutor executor(&counters, &temp_, options);
    auto logical = BuildJoinAgg();
    ExecutionResult result = executor.Run(logical.get());
    EXPECT_TRUE(result.ok()) << result.validation_error;
    testing::RowVec rows = testing::ToRowVec(result.rows);
    testing::Canonicalize(&rows);
    return rows;
  }

  Schema fact_schema_;
  Schema dim_schema_;
  RowBuffer fact_;
  RowBuffer dim_;
  TempFileManager temp_;
};

TEST_F(ProfileTest, ActualRowsMatchOracleCardinalities) {
  const testing::RowVec oracle = OracleRows();
  for (uint32_t parallelism : {1u, 4u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    QueryCounters counters;
    PlanExecutor executor(&counters, &temp_, MakeOptions(parallelism));
    auto logical = BuildJoinAgg();
    ExecutionResult result = executor.Run(logical.get());
    ASSERT_TRUE(result.ok()) << result.validation_error;

    testing::RowVec rows = testing::ToRowVec(result.rows);
    testing::Canonicalize(&rows);
    EXPECT_EQ(rows, oracle);

    const QueryProfile* profile = executor.last_plan()->profile();
    ASSERT_NE(profile, nullptr);
    EXPECT_EQ(profile->runs(), 1u);
    // Root actuals equal the materialized result -- even at parallelism 4,
    // where the root's rows pass through the merging exchange.
    EXPECT_EQ(profile->ActualRows(profile->root()), oracle.size());
    // Scan actuals equal the full table cardinalities: the split-exchange
    // partition slices must roll up without losing or double-counting rows.
    for (int i = 0; i < static_cast<int>(profile->nodes().size()); ++i) {
      const QueryProfile::Node& node = profile->nodes()[i];
      if (node.table == "fact") {
        EXPECT_EQ(profile->ActualRows(i), kFactRows);
      } else if (node.table == "dim") {
        EXPECT_EQ(profile->ActualRows(i), kDimRows);
      }
    }
    // With profiling on, *all* operator work is attributed to plan nodes:
    // the per-node totals must reproduce the session counters exactly.
    EXPECT_TRUE(profile->TreeCounterTotals() == counters);
    EXPECT_GT(counters.column_comparisons + counters.code_comparisons, 0u);
  }
}

TEST_F(ProfileTest, RepeatedRunsDoNotDoubleCountActuals) {
  QueryCounters counters;
  PlanExecutor executor(&counters, &temp_, MakeOptions(1));
  auto logical = BuildJoinAgg();
  PhysicalPlan plan = executor.Plan(logical.get(), MakeOptions(1).planner);

  const ExecutionResult first = executor.Run(&plan);
  const uint64_t rows_first = plan.profile()->ActualRows(plan.profile()->root());
  const ExecutionResult second = executor.Run(&plan);
  const uint64_t rows_second =
      plan.profile()->ActualRows(plan.profile()->root());

  // FinishRun resets the slices: the second run's actuals replace the
  // first's instead of accumulating.
  EXPECT_EQ(first.row_count(), second.row_count());
  EXPECT_EQ(rows_first, first.row_count());
  EXPECT_EQ(rows_second, second.row_count());
  EXPECT_EQ(plan.profile()->runs(), 2u);
}

TEST_F(ProfileTest, TimingsAreInclusiveAndBounded) {
  // Two single-threaded runs. The first is small: every wrapper stays
  // inside the timing warmup, so times are exact. The second is large,
  // sort-based and parallel with inline exchange pulls: the partition
  // streams leave the warmup and are sampled, and a partition's first pull
  // runs the whole inserted sort below the split -- the call the sampling
  // must not scale.
  const Schema big_schema(1, 2);
  const Schema small_schema(1, 1);
  const RowBuffer big = testing::MakeTable(big_schema, 200'000, 50, 23);
  const RowBuffer small = testing::MakeTable(small_schema, 50, 50, 24);
  struct Run {
    std::unique_ptr<LogicalNode> logical;
    PlanExecutor::Options options;
  };
  std::vector<Run> runs;
  runs.push_back({BuildJoinAgg(), MakeOptions(1)});
  runs.push_back(
      {PlanBuilder::Scan(BufferSource("big", &big_schema, &big))
           .Join(PlanBuilder::Scan(
                     BufferSource("small", &small_schema, &small)),
                 JoinType::kInner)
           .Aggregate(1, {{AggFn::kCount, 0}})
           .Build(),
       MakeOptions(4)});
  runs.back().options.planner.exchange.threaded = false;
  runs.back().options.planner.prefer_sort_based = true;

  for (Run& run : runs) {
    SCOPED_TRACE("parallelism " +
                 std::to_string(run.options.planner.parallelism));
    QueryCounters counters;
    PlanExecutor executor(&counters, &temp_, run.options);
    ExecutionResult result = executor.Run(run.logical.get());
    ASSERT_TRUE(result.ok()) << result.validation_error;

    const QueryProfile* profile = executor.last_plan()->profile();
    ASSERT_NE(profile, nullptr);
    EXPECT_GT(profile->wall_ns(), 0u);
    // One thread: every node's inclusive time is bounded by the run's wall
    // clock (generous slack for tick-rate conversion rounding and the
    // sampled estimate), and a parent never reports less inclusive time
    // than any child -- the parent's timed window contains the child's.
    const uint64_t slack = profile->wall_ns() / 2 + 2'000'000;
    for (int i = 0; i < static_cast<int>(profile->nodes().size()); ++i) {
      const QueryProfile::Node& node = profile->nodes()[i];
      EXPECT_LE(profile->ActualNs(i), profile->wall_ns() + slack)
          << node.label;
      for (int child : node.children) {
        EXPECT_LE(profile->ActualNs(child), profile->ActualNs(i) + slack)
            << "child " << child << " of node " << i << " " << node.label;
      }
    }
  }
}

TEST(OperatorStats, OnlyTheSampleAfterWarmupIsScaled) {
  OperatorStats stats;
  // Inside the warmup every call is timed: the time is exact.
  stats.next_calls = stats.warmup_calls = kTimeWarmupCalls;
  stats.warmup_ticks = 5000;
  EXPECT_EQ(stats.scaled_next_ticks(), 5000u);
  // 160 calls after the warmup, 10 of them timed at 30 ticks in all: the
  // sample scales by 16, the warmup (say, one bulk first pull) does not.
  stats.next_calls += 160;
  stats.sampled_calls = 10;
  stats.sample_ticks = 30;
  EXPECT_EQ(stats.scaled_next_ticks(), 5000u + 480u);
  // Slices merge into node totals without mixing the two.
  OperatorStats total;
  total.Merge(stats);
  total.Merge(stats);
  EXPECT_EQ(total.scaled_next_ticks(), 2 * (5000u + 480u));
}

TEST(OperatorStats, SampledTimeIsClampedToTheLiveSpan) {
  // One timed call after the warmup stands for kTimeSampleEvery calls, so
  // a single call the host preempted overshoots the span the operator was
  // open at all. FinishRun caps each slice at that span before merging.
  QueryProfile profile;
  const int node = profile.AddNode("sort [sorted(1)+ovc]", 1, 1, {});
  profile.SetRoot(node);
  OperatorStats* oversized = profile.AddSlice(node);
  oversized->open_start_ticks = 1000;
  oversized->open_ticks = 100;
  oversized->next_calls = kTimeWarmupCalls + kTimeSampleEvery;
  oversized->warmup_calls = kTimeWarmupCalls;
  oversized->warmup_ticks = 2000;
  oversized->sampled_calls = 1;
  oversized->sample_ticks = 5000;  // stands for 16 x 5000 ticks
  oversized->close_ticks = 50;
  oversized->close_end_ticks = 1000 + 10000;
  ASSERT_GT(oversized->total_ticks(), 10000u);
  // A second slice (another thread) that fits its span keeps its estimate.
  OperatorStats* fitting = profile.AddSlice(node);
  fitting->open_start_ticks = 500;
  fitting->next_calls = fitting->warmup_calls = 4;
  fitting->warmup_ticks = 700;
  fitting->close_end_ticks = 500 + 800;

  (void)profile.FinishRun(nullptr, /*wall_ns=*/0);
  const OperatorStats& total = profile.nodes()[node].total;
  EXPECT_EQ(total.total_ticks(), 10000u + 700u);
  EXPECT_EQ(total.open_ticks, 100u);
  EXPECT_EQ(total.close_ticks, 50u);
  EXPECT_EQ(total.next_calls, kTimeWarmupCalls + kTimeSampleEvery + 4);
}

TEST_F(ProfileTest, JsonProfileRoundTrips) {
  for (uint32_t parallelism : {1u, 4u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    QueryCounters counters;
    PlanExecutor executor(&counters, &temp_, MakeOptions(parallelism));
    auto logical = BuildJoinAgg();
    ExecutionResult result = executor.Run(logical.get());
    ASSERT_TRUE(result.ok()) << result.validation_error;
    const QueryProfile* profile = executor.last_plan()->profile();
    ASSERT_NE(profile, nullptr);

    JsonValue root = JsonReader(profile->ToJson()).Parse();
    ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
    EXPECT_DOUBLE_EQ(root.at("runs").number, 1.0);
    EXPECT_NEAR(root.at("wall_ms").number,
                static_cast<double>(profile->wall_ns()) / 1e6, 1e-3);
    EXPECT_NEAR(root.at("worst_q_error").number, profile->WorstQError(),
                1e-3);

    // The JSON plan tree mirrors the profile: same labels, actuals, and
    // counter attribution, node for node.
    uint64_t json_rows_sum = 0;
    uint64_t json_col_cmp_sum = 0;
    int json_nodes = 0;
    const std::function<void(const JsonValue&)> walk =
        [&](const JsonValue& node) {
          ASSERT_EQ(node.kind, JsonValue::Kind::kObject);
          ++json_nodes;
          EXPECT_FALSE(node.at("op").str.empty());
          EXPECT_GE(node.at("q_error").number, 1.0);
          EXPECT_GE(node.at("time_ms").number, 0.0);
          json_rows_sum += static_cast<uint64_t>(node.at("actual_rows").number);
          json_col_cmp_sum += static_cast<uint64_t>(
              node.at("counters").at("column_comparisons").number);
          for (const JsonValue& child : node.at("children").array) {
            walk(child);
          }
        };
    walk(root.at("plan"));

    EXPECT_EQ(json_nodes, static_cast<int>(profile->nodes().size()));
    EXPECT_EQ(json_col_cmp_sum,
              profile->TreeCounterTotals().column_comparisons);
    uint64_t profile_rows_sum = 0;
    for (int i = 0; i < static_cast<int>(profile->nodes().size()); ++i) {
      profile_rows_sum += profile->ActualRows(i);
    }
    EXPECT_EQ(json_rows_sum, profile_rows_sum);

    // The root JSON node is the plan root.
    EXPECT_EQ(static_cast<uint64_t>(root.at("plan").at("actual_rows").number),
              profile->ActualRows(profile->root()));
  }
}

// ---------------------------------------------------------------------------
// SQL-level EXPLAIN ANALYZE and the feedback loop.
// ---------------------------------------------------------------------------

class SqlProfileTest : public ::testing::Test {
 protected:
  void RegisterTables(sql::Catalog* catalog) {
    sql::Catalog::GeneratedSpec spec;
    spec.distinct_per_column = 100;
    spec.seed = 1;
    ASSERT_TRUE(catalog
                    ->RegisterGenerated("lineitem",
                                        {"orderkey", "qty", "price"},
                                        Schema(1, 2), 2000, spec)
                    .ok());
    spec.seed = 2;
    spec.sorted = true;
    ASSERT_TRUE(catalog
                    ->RegisterGenerated("orders", {"orderkey", "custkey"},
                                        Schema(1, 1), 500, spec)
                    .ok());
  }

  sql::SqlSession MakeSession(const sql::Catalog* catalog,
                              uint32_t parallelism) {
    plan::PlanExecutor::Options options;
    options.validate = true;
    options.abort_on_violation = false;
    options.planner.parallelism = parallelism;
    return sql::SqlSession(catalog, options);
  }

  static constexpr const char* kJoinGroupBy =
      "EXPLAIN ANALYZE SELECT l.orderkey, COUNT(*) AS n, SUM(l.qty) AS q "
      "FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey "
      "GROUP BY l.orderkey ORDER BY l.orderkey";
};

TEST_F(SqlProfileTest, ExplainAnalyzeRendersActualsOnEveryLine) {
  for (uint32_t parallelism : {1u, 4u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    sql::Catalog catalog;
    RegisterTables(&catalog);
    sql::SqlSession session = MakeSession(&catalog, parallelism);

    sql::SqlResult<sql::QueryResult> got = session.Run(kJoinGroupBy);
    ASSERT_TRUE(got.ok()) << got.error().Render(kJoinGroupBy);
    const sql::QueryResult& result = got.value();

    // EXPLAIN ANALYZE returns the annotated plan, not rows.
    EXPECT_TRUE(result.is_explain);
    EXPECT_EQ(result.result.row_count(), 0u);
    EXPECT_FALSE(result.profile_json.empty());

    // Every plan line carries rows=est/actual and the counter annotations;
    // the trailer carries wall time and the worst q-error.
    ASSERT_FALSE(result.explain_text.empty());
    size_t lines = 0;
    size_t start = 0;
    while (start < result.explain_text.size()) {
      size_t end = result.explain_text.find('\n', start);
      if (end == std::string::npos) end = result.explain_text.size();
      const std::string line = result.explain_text.substr(start, end - start);
      start = end + 1;
      if (line.empty()) continue;
      ++lines;
      if (line.rfind("--", 0) == 0) {
        EXPECT_NE(line.find("wall="), std::string::npos) << line;
        EXPECT_NE(line.find("worst-q-error="), std::string::npos) << line;
      } else {
        EXPECT_NE(line.find("rows="), std::string::npos) << line;
        EXPECT_NE(line.find("/"), std::string::npos) << line;
        EXPECT_NE(line.find("time="), std::string::npos) << line;
        EXPECT_NE(line.find("cmp="), std::string::npos) << line;
        EXPECT_NE(line.find("spill="), std::string::npos) << line;
      }
    }
    EXPECT_GE(lines, 4u) << result.explain_text;
    if (parallelism == 4) {
      // The parallel shape is profiled too: exchange operators appear as
      // plan lines with their own actuals.
      EXPECT_NE(result.explain_text.find("exchange"), std::string::npos)
          << result.explain_text;
    }
  }
}

TEST_F(SqlProfileTest, ExplainAnalyzeStableForFixedSeed) {
  // Two fresh sessions over identically-seeded catalogs must render the
  // same EXPLAIN ANALYZE text modulo timings -- row counts, counters, and
  // q-errors are all deterministic for a fixed seed.
  std::vector<std::string> normalized;
  for (int attempt = 0; attempt < 2; ++attempt) {
    sql::Catalog catalog;
    RegisterTables(&catalog);
    sql::SqlSession session = MakeSession(&catalog, /*parallelism=*/1);
    sql::SqlResult<sql::QueryResult> got = session.Run(kJoinGroupBy);
    ASSERT_TRUE(got.ok()) << got.error().Render(kJoinGroupBy);
    normalized.push_back(NormalizeMs(got.value().explain_text));
    EXPECT_NE(normalized.back().find("?ms"), std::string::npos);
  }
  EXPECT_EQ(normalized[0], normalized[1]);
}

TEST_F(SqlProfileTest, FeedbackFlowsIntoTableStats) {
  sql::Catalog catalog;
  RegisterTables(&catalog);
  sql::SqlSession session = MakeSession(&catalog, /*parallelism=*/1);

  sql::SqlResult<sql::QueryResult> got = session.Run(kJoinGroupBy);
  ASSERT_TRUE(got.ok()) << got.error().Render(kJoinGroupBy);

  // The profiled run recorded per-table estimate-vs-actual observations.
  const auto& feedback = session.table_feedback();
  ASSERT_TRUE(feedback.count("lineitem")) << feedback.size();
  ASSERT_TRUE(feedback.count("orders"));
  EXPECT_DOUBLE_EQ(feedback.at("lineitem").actual_rows, 2000.0);
  EXPECT_DOUBLE_EQ(feedback.at("orders").actual_rows, 500.0);
  EXPECT_GE(feedback.at("lineitem").q_error, 1.0);
  EXPECT_EQ(feedback.at("lineitem").runs, 1u);

  // ApplyFeedbackTo writes the observations into the catalog's TableStats
  // for later planning sessions.
  session.ApplyFeedbackTo(&catalog);
  const sql::CatalogTable* lineitem = catalog.Find("lineitem");
  ASSERT_NE(lineitem, nullptr);
  EXPECT_DOUBLE_EQ(lineitem->source.stats.observed_rows, 2000.0);
  EXPECT_EQ(lineitem->source.stats.feedback_runs, 1u);
}

TEST_F(SqlProfileTest, ScanCutShortByLimitFeedsNothingBack) {
  // A LIMIT stops its scan after a few rows. Feeding those rows back as
  // the table's size would make the next plan believe a 100000-row table
  // holds 5 rows (and flip DISTINCT to a hash plan sized for it).
  sql::Catalog catalog;
  sql::Catalog::GeneratedSpec spec;
  spec.distinct_per_column = 1000;
  spec.seed = 9;
  ASSERT_TRUE(catalog
                  .RegisterGenerated("t", {"a", "b", "c"}, Schema(2, 1),
                                     100000, spec)
                  .ok());
  plan::PlanExecutor::Options options;
  options.planner.hash_memory_rows = 5000;
  const std::string distinct = "SELECT DISTINCT a, b FROM t";
  sql::SqlSession fresh(&catalog, options);
  sql::SqlResult<std::string> want = fresh.Explain(distinct);
  ASSERT_TRUE(want.ok());

  sql::SqlSession session(&catalog, options);
  ASSERT_TRUE(session.Run("EXPLAIN ANALYZE SELECT a, c FROM t LIMIT 5").ok());
  EXPECT_EQ(session.table_feedback().count("t"), 0u);
  session.ApplyFeedbackTo(&catalog);
  sql::SqlResult<std::string> got = session.Explain(distinct);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), want.value());

  // A scan that reads the whole table still feeds back.
  ASSERT_TRUE(session.Run("EXPLAIN ANALYZE SELECT a, c FROM t").ok());
  ASSERT_EQ(session.table_feedback().count("t"), 1u);
  EXPECT_DOUBLE_EQ(session.table_feedback().at("t").actual_rows, 100000.0);
}

TEST_F(SqlProfileTest, FeedbackFlipsJoinFromGraceHashToMergeAfterOneRun) {
  // The planner-consumes-feedback loop, end to end: the catalog lies that
  // both join inputs are tiny, so the cost-based planner picks grace hash
  // under a 64-row budget. The first (profiled) run overflows mid-query --
  // graceful degradation finishes it via the sort-merge fallback -- and
  // its observed cardinalities, fed back into the catalog, flip the very
  // next plan to sort + merge join.
  // Both inputs unsorted (a sorted input would make merge join nearly
  // free and decide the race by itself), both claiming 50 rows.
  sql::Catalog catalog;
  sql::Catalog::GeneratedSpec spec;
  spec.distinct_per_column = 100;
  spec.seed = 31;
  ASSERT_TRUE(catalog
                  .RegisterGenerated("lineitem", {"orderkey", "qty"},
                                     Schema(1, 1), 2000, spec)
                  .ok());
  spec.seed = 32;
  ASSERT_TRUE(catalog
                  .RegisterGenerated("orders", {"orderkey", "custkey"},
                                     Schema(1, 1), 500, spec)
                  .ok());
  for (const char* name : {"lineitem", "orders"}) {
    sql::CatalogTable* table = catalog.FindMutable(name);
    ASSERT_NE(table, nullptr);
    table->source.stats.row_count = 50;
    table->source.stats.row_count_known = true;
    table->source.stats.key_distinct.clear();
  }

  plan::PlanExecutor::Options options;
  options.validate = true;
  options.abort_on_violation = false;
  options.planner.hash_memory_rows = 64;
  sql::SqlSession session(&catalog, options);

  const std::string query =
      "SELECT l.orderkey, o.custkey FROM lineitem l "
      "JOIN orders o ON l.orderkey = o.orderkey";

  // Mis-estimated plan: hash join, believing both sides fit the budget.
  sql::SqlResult<std::string> before = session.Explain(query);
  ASSERT_TRUE(before.ok());
  EXPECT_NE(before.value().find("hash-join(grace)"), std::string::npos)
      << before.value();

  // The profiled run overflows the 64-row build budget and completes via
  // the mid-query fallback.
  sql::SqlResult<sql::QueryResult> run =
      session.Run("EXPLAIN ANALYZE " + query);
  ASSERT_TRUE(run.ok()) << run.error().ToString();
  EXPECT_GE(session.counters()->hash_join_fallbacks, 1u);
  EXPECT_NE(run.value().explain_text.find("!fallback(hash->sort)"),
            std::string::npos)
      << run.value().explain_text;

  // Feed the observed cardinalities back; the next plan avoids the hash
  // join entirely.
  session.ApplyFeedbackTo(&catalog);
  sql::SqlResult<std::string> after = session.Explain(query);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after.value().find("merge-join"), std::string::npos)
      << after.value();
  EXPECT_EQ(after.value().find("hash-join(grace)"), std::string::npos)
      << after.value();
}

}  // namespace
}  // namespace ovc
