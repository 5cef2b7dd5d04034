// Cost-model tests: cardinality propagation, estimate surfacing, the
// cost-based planner decisions, and -- the acceptance property -- that the
// estimator ranks plan alternatives consistently with *measured* execution,
// where "measured" prices the counters the run actually accumulated
// (column/code comparisons, hash computations, spilled bytes) with the
// same calibrated constants the estimator used.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "plan/cost_model.h"
#include "plan/logical_plan.h"
#include "plan/physical_plan.h"
#include "plan/plan_executor.h"
#include "tests/test_util.h"

namespace ovc {
namespace {

using plan::AnnotateCardinalities;
using plan::BufferSource;
using plan::CardEstimate;
using plan::CostConstants;
using plan::CostModel;
using plan::CostPolicy;
using plan::LogicalNode;
using plan::NodeEstimate;
using plan::PhysicalAlg;
using plan::PhysicalPlan;
using plan::PlanBuilder;
using plan::Planner;
using plan::PlannerOptions;
using plan::RunSource;
using plan::TableSource;

/// Prices a run's accumulated counters with the calibrated constants --
/// the "measured cost" the estimator's ranking is checked against.
double MeasuredCost(const QueryCounters& counters, const CostConstants& c) {
  return static_cast<double>(counters.column_comparisons) * c.column_compare +
         static_cast<double>(counters.code_comparisons) * c.code_compare +
         static_cast<double>(counters.hash_computations) * c.hash_row +
         static_cast<double>(counters.bytes_spilled) * c.spill_byte;
}

class CostModelTest : public ::testing::Test {
 protected:
  /// An unsorted table with exact distinct-prefix statistics attached (the
  /// same shape the SQL catalog provides for generated tables).
  TableSource StatsSource(const std::string& name, const Schema* schema,
                          const RowBuffer* buffer, double distinct) {
    TableSource source = BufferSource(name, schema, buffer);
    double prefix = 1.0;
    for (uint32_t k = 0; k < schema->key_arity(); ++k) {
      prefix = std::min(prefix * distinct,
                        static_cast<double>(buffer->size()));
      source.stats.key_distinct.push_back(prefix);
    }
    return source;
  }

  PhysicalPlan Plan(LogicalNode* root, PlannerOptions options = {}) {
    Planner planner(&counters_, &temp_, options);
    return planner.Plan(root);
  }

  QueryCounters counters_;
  TempFileManager temp_;
};

// ---------------------------------------------------------------------------
// Cardinality propagation
// ---------------------------------------------------------------------------

TEST_F(CostModelTest, ScanCardinalityComesFromStats) {
  Schema schema(2, 1);
  RowBuffer table = testing::MakeTable(schema, 600, 4, /*seed=*/1);
  auto logical =
      PlanBuilder::Scan(StatsSource("t", &schema, &table, 4.0)).Build();
  AnnotateCardinalities(logical.get(), CostConstants::Calibrated());

  EXPECT_DOUBLE_EQ(logical->card.rows, 600.0);
  EXPECT_DOUBLE_EQ(logical->card.DistinctPrefix(1), 4.0);
  EXPECT_DOUBLE_EQ(logical->card.DistinctPrefix(2), 16.0);
}

TEST_F(CostModelTest, ScanCardinalityDefaultsWithoutStats) {
  Schema schema(1, 0);
  RowBuffer table = testing::MakeTable(schema, 1000, 10, /*seed=*/1);
  auto logical = PlanBuilder::Scan(BufferSource("t", &schema, &table)).Build();
  AnnotateCardinalities(logical.get(), CostConstants::Calibrated());

  // Row count comes from the buffer even without explicit statistics;
  // distinct falls back to rows^(2/3).
  EXPECT_DOUBLE_EQ(logical->card.rows, 1000.0);
  EXPECT_NEAR(logical->card.DistinctPrefix(1), 100.0, 1.0);
}

TEST_F(CostModelTest, FilterJoinAggregatePropagation) {
  Schema schema(1, 1);
  RowBuffer left = testing::MakeTable(schema, 1000, 50, /*seed=*/1);
  RowBuffer right = testing::MakeTable(schema, 200, 50, /*seed=*/2);
  auto logical =
      PlanBuilder::Scan(StatsSource("l", &schema, &left, 50.0))
          .Filter([](const uint64_t*) { return true; })
          .Join(PlanBuilder::Scan(StatsSource("r", &schema, &right, 50.0)),
                JoinType::kInner)
          .Aggregate(1, {{AggFn::kCount, 0}})
          .Build();
  const CostConstants c = CostConstants::Calibrated();
  AnnotateCardinalities(logical.get(), c);

  const LogicalNode* aggregate = logical.get();
  const LogicalNode* join = aggregate->children[0].get();
  const LogicalNode* filter = join->children[0].get();

  EXPECT_DOUBLE_EQ(filter->card.rows, 1000.0 * c.filter_selectivity);
  // Equi-join estimate: |L| * |R| / max(d_l, d_r).
  EXPECT_NEAR(join->card.rows, filter->card.rows * 200.0 / 50.0, 1e-6);
  // The aggregate's output is the distinct grouping prefix.
  EXPECT_NEAR(aggregate->card.rows, 50.0, 1e-6);
}

TEST_F(CostModelTest, LimitCapsCardinality) {
  Schema schema(1, 0);
  RowBuffer table = testing::MakeTable(schema, 500, 16, /*seed=*/3);
  auto logical = PlanBuilder::Scan(StatsSource("t", &schema, &table, 16.0))
                     .Limit(7)
                     .Build();
  AnnotateCardinalities(logical.get(), CostConstants::Calibrated());
  EXPECT_DOUBLE_EQ(logical->card.rows, 7.0);
}

// ---------------------------------------------------------------------------
// Estimates surfaced through the physical plan
// ---------------------------------------------------------------------------

TEST_F(CostModelTest, PlanCarriesPerNodeEstimatesAndExplainRendersThem) {
  Schema schema(2, 1);
  RowBuffer table = testing::MakeTable(schema, 800, 8, /*seed=*/4);
  auto logical = PlanBuilder::Scan(StatsSource("t", &schema, &table, 8.0))
                     .Filter([](const uint64_t*) { return true; })
                     .Sort()
                     .Build();
  PhysicalPlan plan = Plan(logical.get());

  for (const PhysicalPlan::Line& line : plan.lines()) {
    EXPECT_GT(line.est.rows, 0.0);
    EXPECT_GT(line.est.cost, 0.0);
  }
  EXPECT_GT(plan.root_estimate().cost, 0.0);
  const std::string text = plan.ToString();
  EXPECT_NE(text.find("{rows="), std::string::npos) << text;
  EXPECT_NE(text.find("cost="), std::string::npos) << text;
}

TEST_F(CostModelTest, ElidedSortAddsNoCost) {
  Schema schema(2, 0);
  RowBuffer sorted = testing::MakeTable(schema, 400, 8, /*seed=*/5,
                                        /*sorted=*/true);
  InMemoryRun run = testing::RunFromSorted(schema, sorted);
  auto logical =
      PlanBuilder::Scan(RunSource("run", &schema, &run)).Sort().Build();
  PhysicalPlan plan = Plan(logical.get());

  ASSERT_TRUE(plan.Uses(PhysicalAlg::kElidedSort));
  // The elided sort's cumulative estimate equals its child's: resorting
  // sorted coded input is free, which is why elision always wins.
  ASSERT_EQ(plan.lines().size(), 2u);
  EXPECT_DOUBLE_EQ(plan.lines()[0].est.cost, plan.lines()[1].est.cost);
}

// ---------------------------------------------------------------------------
// Cost-based decisions, ranked against measured counter costs
// ---------------------------------------------------------------------------

TEST_F(CostModelTest, ResidentAggregationStaysHashAndMeasurementAgrees) {
  // 30k rows, 4 groups, everything resident: hashing each row beats a
  // full-size run-generation tournament (duplicate collapse shrinks what
  // a sort *spills*, not its tree), so the cost-based planner keeps the
  // hash aggregate in memory -- and pricing the measured counters with
  // the same constants ranks the same way.
  Schema schema(1, 1);
  RowBuffer table = testing::MakeTable(schema, 30000, 4, /*seed=*/11);
  const auto build = [&] {
    return PlanBuilder::Scan(StatsSource("dup", &schema, &table, 4.0))
        .Aggregate(1, {{AggFn::kSum, 1}})
        .Build();
  };

  plan::PlanExecutor::Options exec_options;
  exec_options.validate = false;  // keep the measured runs fast in Debug

  // Cost-based: keeps the hash aggregate.
  QueryCounters hash_counters;
  plan::PlanExecutor hash_exec(&hash_counters, &temp_, exec_options);
  auto logical_a = build();
  plan::ExecutionResult hash_result = hash_exec.Run(logical_a.get());
  EXPECT_TRUE(hash_exec.last_plan()->Uses(PhysicalAlg::kHashAggregate))
      << hash_exec.last_plan()->ToString();
  const double est_hash = hash_exec.last_plan()->root_estimate().cost;

  // The sort-based alternative, forced: in-sort aggregation.
  exec_options.planner.prefer_sort_based = true;
  QueryCounters in_sort_counters;
  plan::PlanExecutor in_sort_exec(&in_sort_counters, &temp_, exec_options);
  auto logical_b = build();
  plan::ExecutionResult in_sort_result = in_sort_exec.Run(logical_b.get());
  EXPECT_TRUE(in_sort_exec.last_plan()->Uses(PhysicalAlg::kInSortAggregate));
  const double est_in_sort = in_sort_exec.last_plan()->root_estimate().cost;

  // Same rows either way (order aside).
  EXPECT_EQ(in_sort_result.row_count(), hash_result.row_count());

  // The estimator ranks hash cheaper, and so do the measured counters.
  EXPECT_LT(est_hash, est_in_sort);
  const CostConstants c = exec_options.planner.cost_constants;
  EXPECT_LT(MeasuredCost(hash_counters, c), MeasuredCost(in_sort_counters, c));
}

TEST_F(CostModelTest, GroupsBeyondHashBudgetFlipToInSortAndMeasurementAgrees) {
  // The aggregation flavor of the Figure 6 race: 40k rows over 5000
  // groups with a 1000-group hash budget. The hash table spills most of
  // its input to partitions; duplicate collapse keeps the sort fully
  // resident. The cost-based planner flips to the in-sort aggregate, and
  // the measured counter costs (including spilled bytes) rank the same
  // way.
  Schema schema(1, 1);
  RowBuffer table = testing::MakeTable(schema, 40000, 5000, /*seed=*/12);
  const auto build = [&] {
    return PlanBuilder::Scan(StatsSource("mid", &schema, &table, 5000.0))
        .Aggregate(1, {{AggFn::kCount, 0}})
        .Build();
  };

  plan::PlanExecutor::Options exec_options;
  exec_options.validate = false;
  exec_options.planner.hash_memory_rows = 1000;
  // This test measures the *partitioning* cost of an overflowing hash
  // aggregate; pin the fallback policy so graceful degradation does not
  // turn the hash plan into the sort plan it is being compared against.
  exec_options.planner.fallback = FallbackPolicy::kPartition;

  // Cost-based under the tiny budget: in-sort aggregation, no hashing.
  QueryCounters in_sort_counters;
  plan::PlanExecutor in_sort_exec(&in_sort_counters, &temp_, exec_options);
  auto logical_a = build();
  in_sort_exec.Run(logical_a.get());
  EXPECT_TRUE(in_sort_exec.last_plan()->Uses(PhysicalAlg::kInSortAggregate))
      << in_sort_exec.last_plan()->ToString();
  const double est_in_sort = in_sort_exec.last_plan()->root_estimate().cost;

  // Rule-based ignores the budget and hashes (the pre-PR5 policy).
  exec_options.planner.cost_policy = CostPolicy::kRuleBased;
  QueryCounters hash_counters;
  plan::PlanExecutor hash_exec(&hash_counters, &temp_, exec_options);
  auto logical_b = build();
  hash_exec.Run(logical_b.get());
  EXPECT_TRUE(hash_exec.last_plan()->Uses(PhysicalAlg::kHashAggregate));
  const double est_hash = hash_exec.last_plan()->root_estimate().cost;
  EXPECT_GT(hash_counters.bytes_spilled, 0u);

  EXPECT_LT(est_in_sort, est_hash);
  const CostConstants c = exec_options.planner.cost_constants;
  EXPECT_LT(MeasuredCost(in_sort_counters, c), MeasuredCost(hash_counters, c));
}

TEST_F(CostModelTest, InMemoryJoinPrefersGraceHashAndMeasurementAgrees) {
  // Foreign-key-ish join of two unsorted 20k-row tables, everything
  // resident: hashing both sides beats sorting both sides.
  Schema schema(1, 1);
  RowBuffer left = testing::MakeTable(schema, 20000, 20000, /*seed=*/13);
  RowBuffer right = testing::MakeTable(schema, 20000, 20000, /*seed=*/14);
  const auto build = [&] {
    return PlanBuilder::Scan(StatsSource("l", &schema, &left, 20000.0))
        .Join(PlanBuilder::Scan(StatsSource("r", &schema, &right, 20000.0)),
              JoinType::kInner)
        .Build();
  };

  plan::PlanExecutor::Options exec_options;
  exec_options.validate = false;

  QueryCounters grace_counters;
  plan::PlanExecutor grace_exec(&grace_counters, &temp_, exec_options);
  auto logical_a = build();
  grace_exec.Run(logical_a.get());
  EXPECT_TRUE(grace_exec.last_plan()->Uses(PhysicalAlg::kGraceHashJoin))
      << grace_exec.last_plan()->ToString();
  const double est_grace = grace_exec.last_plan()->root_estimate().cost;

  // The sort-based alternative (forced): sorts both inputs, merge joins.
  exec_options.planner.prefer_sort_based = true;
  QueryCounters sort_counters;
  plan::PlanExecutor sort_exec(&sort_counters, &temp_, exec_options);
  auto logical_b = build();
  sort_exec.Run(logical_b.get());
  EXPECT_TRUE(sort_exec.last_plan()->Uses(PhysicalAlg::kMergeJoin));
  const double est_sort_merge = sort_exec.last_plan()->root_estimate().cost;

  EXPECT_LT(est_grace, est_sort_merge);
  const CostConstants c = exec_options.planner.cost_constants;
  EXPECT_LT(MeasuredCost(grace_counters, c), MeasuredCost(sort_counters, c));
}

TEST_F(CostModelTest, TinyHashBudgetFlipsJoinToSortMergeAndMeasurementAgrees) {
  // The Figure 6 race: the same join with a hash memory budget far below
  // the build side. Grace hash now pays a full partition write+read round
  // trip for both sides; the sorts fit in memory and spill nothing -- the
  // cost-based planner flips to sort + merge join, and the measured
  // counter costs (including the spilled bytes) rank the same way.
  Schema schema(1, 1);
  RowBuffer left = testing::MakeTable(schema, 20000, 20000, /*seed=*/15);
  RowBuffer right = testing::MakeTable(schema, 20000, 20000, /*seed=*/16);
  const auto build = [&] {
    return PlanBuilder::Scan(StatsSource("l", &schema, &left, 20000.0))
        .Join(PlanBuilder::Scan(StatsSource("r", &schema, &right, 20000.0)),
              JoinType::kInner)
        .Build();
  };

  plan::PlanExecutor::Options exec_options;
  exec_options.validate = false;
  exec_options.planner.hash_memory_rows = 512;
  // As above: the rule-based run must actually pay the grace partition
  // round trip, not gracefully degrade into the competing sort plan.
  exec_options.planner.fallback = FallbackPolicy::kPartition;

  // Cost-based with the tiny budget: sort + merge join, no hash join.
  QueryCounters sort_counters;
  plan::PlanExecutor sort_exec(&sort_counters, &temp_, exec_options);
  auto logical_a = build();
  sort_exec.Run(logical_a.get());
  EXPECT_TRUE(sort_exec.last_plan()->Uses(PhysicalAlg::kMergeJoin))
      << sort_exec.last_plan()->ToString();
  EXPECT_FALSE(sort_exec.last_plan()->Uses(PhysicalAlg::kGraceHashJoin));
  const double est_sort_merge = sort_exec.last_plan()->root_estimate().cost;

  // Rule-based ignores the budget and grace-hashes (the pre-PR5 policy).
  exec_options.planner.cost_policy = CostPolicy::kRuleBased;
  QueryCounters grace_counters;
  plan::PlanExecutor grace_exec(&grace_counters, &temp_, exec_options);
  auto logical_b = build();
  grace_exec.Run(logical_b.get());
  EXPECT_TRUE(grace_exec.last_plan()->Uses(PhysicalAlg::kGraceHashJoin));
  const double est_grace = grace_exec.last_plan()->root_estimate().cost;
  EXPECT_GT(grace_counters.bytes_spilled, 0u);

  EXPECT_LT(est_sort_merge, est_grace);
  const CostConstants c = exec_options.planner.cost_constants;
  EXPECT_LT(MeasuredCost(sort_counters, c), MeasuredCost(grace_counters, c));
}

TEST_F(CostModelTest, SortedInputKeepsInStreamAggregate) {
  // Over sorted coded input the in-stream aggregate costs one code
  // comparison per row -- the estimator prices it far below a hash
  // aggregate of the same stream, and the planner picks it.
  Schema schema(2, 0);
  RowBuffer sorted = testing::MakeTable(schema, 10000, 8, /*seed=*/17,
                                        /*sorted=*/true);
  InMemoryRun run = testing::RunFromSorted(schema, sorted);
  auto logical = PlanBuilder::Scan(RunSource("run", &schema, &run))
                     .Aggregate(1, {{AggFn::kCount, 0}})
                     .Build();
  PhysicalPlan plan = Plan(logical.get());
  EXPECT_TRUE(plan.Uses(PhysicalAlg::kInStreamAggregate));

  const CostModel model(CostConstants::Calibrated(), SortConfig(),
                        uint64_t{1} << 20);
  const double in_stream =
      model.InStreamAggregate(10000.0, 8.0, 1, /*input_coded=*/true);
  const double hash = model.HashAggregate(10000.0, 8.0, 2);
  EXPECT_LT(in_stream, hash);
}

// ---------------------------------------------------------------------------
// Estimate-versus-actual: per-node Q-errors from profiled scenario runs
// ---------------------------------------------------------------------------

TEST_F(CostModelTest, ProfiledScenariosRecordPerNodeQErrors) {
  // Re-runs the cost-model scenario shapes with per-operator profiling on
  // and records each node's Q-error (max(actual/est, est/actual)) into the
  // test log -- the estimator's per-node report card. Exact-stats scans
  // must estimate perfectly; derived nodes are sanity-bounded, not pinned,
  // since their estimates use generic selectivity/distinct models.
  struct Scenario {
    const char* name;
    std::function<std::unique_ptr<LogicalNode>()> build;
  };

  Schema agg_schema(1, 1);
  RowBuffer agg_table = testing::MakeTable(agg_schema, 30000, 4, /*seed=*/11);
  Schema join_schema(1, 1);
  RowBuffer left = testing::MakeTable(join_schema, 20000, 20000, /*seed=*/13);
  RowBuffer right = testing::MakeTable(join_schema, 20000, 20000, /*seed=*/14);

  const Scenario scenarios[] = {
      {"resident-aggregation",
       [&] {
         return PlanBuilder::Scan(StatsSource("dup", &agg_schema, &agg_table,
                                              4.0))
             .Aggregate(1, {{AggFn::kSum, 1}})
             .Build();
       }},
      {"in-memory-join",
       [&] {
         return PlanBuilder::Scan(StatsSource("l", &join_schema, &left,
                                              20000.0))
             .Join(PlanBuilder::Scan(
                       StatsSource("r", &join_schema, &right, 20000.0)),
                   JoinType::kInner)
             .Build();
       }},
  };

  plan::PlanExecutor::Options exec_options;
  exec_options.validate = false;  // keep the measured runs fast in Debug
  exec_options.planner.profile = true;

  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    QueryCounters counters;
    plan::PlanExecutor executor(&counters, &temp_, exec_options);
    auto logical = scenario.build();
    executor.Run(logical.get());

    const QueryProfile* profile = executor.last_plan()->profile();
    ASSERT_NE(profile, nullptr);
    std::printf("[ q-error  ] scenario %s (worst q=%.2f)\n", scenario.name,
                profile->WorstQError());
    for (int i = 0; i < static_cast<int>(profile->nodes().size()); ++i) {
      const QueryProfile::Node& node = profile->nodes()[i];
      const double q = profile->QError(i);
      std::printf("[ q-error  ]   %-40s est=%-8.0f actual=%-8llu q=%.2f\n",
                  node.label.c_str(), node.est_rows,
                  static_cast<unsigned long long>(profile->ActualRows(i)), q);
      EXPECT_GE(q, 1.0);
      // Scans carry exact statistics here, so their estimates are perfect.
      if (!node.table.empty()) EXPECT_DOUBLE_EQ(q, 1.0);
      // Derived estimates can err, but the scenario shapes are the ones
      // the model was built around -- a blow-up past 10x is a regression.
      EXPECT_LT(q, 10.0) << node.label;
    }
  }
}

// ---------------------------------------------------------------------------
// Policy pinning and overrides
// ---------------------------------------------------------------------------

TEST_F(CostModelTest, RuleBasedPolicyReproducesPrePR5Choices) {
  Schema schema(2, 1);
  RowBuffer table = testing::MakeTable(schema, 500, 4, /*seed=*/18);
  PlannerOptions rule;
  rule.cost_policy = CostPolicy::kRuleBased;

  {  // Unsorted join: grace hash, unconditionally.
    auto logical =
        PlanBuilder::Scan(BufferSource("l", &schema, &table))
            .Join(PlanBuilder::Scan(BufferSource("r", &schema, &table)),
                  JoinType::kInner)
            .Build();
    PhysicalPlan plan = Plan(logical.get(), rule);
    EXPECT_TRUE(plan.Uses(PhysicalAlg::kGraceHashJoin));
  }
  {  // Unsorted aggregate without order interest: hash, unconditionally.
    auto logical = PlanBuilder::Scan(BufferSource("t", &schema, &table))
                       .Aggregate(1, {{AggFn::kCount, 0}})
                       .Build();
    PhysicalPlan plan = Plan(logical.get(), rule);
    EXPECT_TRUE(plan.Uses(PhysicalAlg::kHashAggregate));
  }
  {  // Order-interested aggregate: in-sort, no standalone sort.
    auto logical = PlanBuilder::Scan(BufferSource("t", &schema, &table))
                       .Aggregate(1, {{AggFn::kCount, 0}})
                       .Distinct()
                       .Build();
    PhysicalPlan plan = Plan(logical.get(), rule);
    EXPECT_TRUE(plan.Uses(PhysicalAlg::kInSortAggregate));
    EXPECT_EQ(plan.inserted_sorts(), 0u);
  }
}

TEST_F(CostModelTest, ConstantsOverrideFlipsDecisions) {
  // Pricing hashing as catastrophically expensive flips an aggregation
  // the calibrated constants would hash over to the in-sort aggregate:
  // the constants really drive the decision.
  Schema schema(2, 0);
  RowBuffer table = testing::MakeTable(schema, 50000, 16, /*seed=*/19);
  auto logical = PlanBuilder::Scan(StatsSource("t", &schema, &table, 16.0))
                     .Aggregate(2, {{AggFn::kCount, 0}})
                     .Build();

  PlannerOptions expensive_hash;
  expensive_hash.cost_constants.hash_row = 1000.0;
  PhysicalPlan plan = Plan(logical.get(), expensive_hash);
  EXPECT_TRUE(plan.Uses(PhysicalAlg::kInSortAggregate)) << plan.ToString();
}

}  // namespace
}  // namespace ovc
