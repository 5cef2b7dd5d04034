// End-to-end SQL front-end tests: every supported clause combination runs
// through SqlSession and is cross-checked row-for-row against the
// equivalent hand-built PlanBuilder plan, with OvcStreamChecker validation
// on, at parallelism 1 and 4. Also asserts the acceptance property: an
// ORDER BY over a pre-sorted coded table plans as an elided sort.

#include <functional>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "plan/logical_plan.h"
#include "plan/plan_executor.h"
#include "sql/catalog.h"
#include "sql/session.h"
#include "tests/test_util.h"

namespace ovc::sql {
namespace {

using ovc::testing::RowVec;
using ovc::testing::ToRowVec;
using plan::PlanBuilder;

plan::PlanExecutor::Options MakeOptions(uint32_t parallelism) {
  plan::PlanExecutor::Options options;
  options.validate = true;
  options.abort_on_violation = false;
  options.planner.parallelism = parallelism;
  return options;
}

class SqlExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Payload columns carry the running row number (see GenerateRows), so
    // e.g. lineitem.qty equals the pre-sort row id.
    Catalog::GeneratedSpec spec;
    spec.distinct_per_column = 100;
    spec.seed = 1;
    ASSERT_TRUE(catalog_
                    .RegisterGenerated("lineitem",
                                       {"orderkey", "qty", "price"},
                                       Schema(1, 2), 2000, spec)
                    .ok());
    spec.seed = 2;
    spec.sorted = true;
    ASSERT_TRUE(catalog_
                    .RegisterGenerated("orders", {"orderkey", "custkey"},
                                       Schema(1, 1), 500, spec)
                    .ok());
    spec = Catalog::GeneratedSpec();
    spec.distinct_per_column = 8;
    spec.seed = 3;
    ASSERT_TRUE(catalog_
                    .RegisterGenerated("hits", {"site", "day", "visitor"},
                                       Schema(3, 0), 3000, spec)
                    .ok());
    spec.seed = 4;
    spec.sorted = true;
    ASSERT_TRUE(catalog_
                    .RegisterGenerated("events", {"site", "day", "visitor"},
                                       Schema(3, 0), 2000, spec)
                    .ok());
    spec = Catalog::GeneratedSpec();
    spec.distinct_per_column = 32;
    spec.seed = 5;
    ASSERT_TRUE(
        catalog_.RegisterGenerated("s1", {"a", "b"}, Schema(2, 0), 1500, spec)
            .ok());
    spec.seed = 6;
    ASSERT_TRUE(
        catalog_.RegisterGenerated("s2", {"a", "b"}, Schema(2, 0), 1500, spec)
            .ok());
    spec = Catalog::GeneratedSpec();
    spec.distinct_per_column = 6;
    spec.seed = 7;
    ASSERT_TRUE(catalog_
                    .RegisterGenerated("wide", {"a", "b", "c"}, Schema(2, 1),
                                       2000, spec)
                    .ok());
  }

  plan::TableSource Source(const std::string& name) const {
    const CatalogTable* table = catalog_.Find(name);
    EXPECT_NE(table, nullptr) << name;
    return table->source;
  }

  /// Runs `sql_text` through SqlSession and `hand` (the binder-equivalent
  /// hand-built plan) through PlanExecutor at parallelism 1 and 4;
  /// expects validated streams and row-for-row equal results.
  void CheckSql(const std::string& sql_text,
                const std::function<std::unique_ptr<plan::LogicalNode>()>&
                    hand) {
    RowVec rows_at_1;
    for (uint32_t parallelism : {1u, 4u}) {
      SCOPED_TRACE("parallelism " + std::to_string(parallelism));
      const plan::PlanExecutor::Options options = MakeOptions(parallelism);

      SqlSession session(&catalog_, options);
      SqlResult<QueryResult> got = session.Run(sql_text);
      ASSERT_TRUE(got.ok()) << got.error().Render(sql_text);
      EXPECT_TRUE(got.value().result.ok())
          << got.value().result.validation_error;

      QueryCounters counters;
      TempFileManager temp;
      plan::PlanExecutor executor(&counters, &temp, options);
      std::unique_ptr<plan::LogicalNode> logical = hand();
      plan::ExecutionResult want = executor.Run(logical.get());
      EXPECT_TRUE(want.ok()) << want.validation_error;

      const RowVec got_rows = ToRowVec(got.value().result.rows);
      const RowVec want_rows = ToRowVec(want.rows);
      ASSERT_EQ(got_rows.size(), want_rows.size());
      EXPECT_EQ(got_rows, want_rows);

      if (parallelism == 1) {
        rows_at_1 = got_rows;
      } else {
        // Serial and exchange-parallel plans agree on the multiset.
        RowVec serial = rows_at_1, parallel = got_rows;
        ovc::testing::Canonicalize(&serial);
        ovc::testing::Canonicalize(&parallel);
        EXPECT_EQ(serial, parallel);
      }
    }
  }

  Catalog catalog_;
};

TEST_F(SqlExecTest, SelectStar) {
  CheckSql("SELECT * FROM lineitem", [&] {
    return PlanBuilder::Scan(Source("lineitem")).Build();
  });
}

TEST_F(SqlExecTest, ProjectionReorder) {
  CheckSql("SELECT qty, orderkey FROM lineitem", [&] {
    return PlanBuilder::Scan(Source("lineitem"))
        .Project(Schema(1, 1), {1, 0})
        .Build();
  });
}

TEST_F(SqlExecTest, WhereConjunction) {
  CheckSql(
      "SELECT * FROM lineitem WHERE qty < 600 AND orderkey >= 10 "
      "AND qty != price",
      [&] {
        return PlanBuilder::Scan(Source("lineitem"))
            .Filter([](const uint64_t* row) {
              return row[1] < 600 && row[0] >= 10 && row[1] != row[2];
            })
            .Build();
      });
}

TEST_F(SqlExecTest, WhereColumnVsColumn) {
  CheckSql("SELECT a, b FROM s1 WHERE a = b", [&] {
    return PlanBuilder::Scan(Source("s1"))
        .Filter([](const uint64_t* row) { return row[0] == row[1]; })
        .Build();
  });
}

TEST_F(SqlExecTest, JoinSortedProbe) {
  // orders is pre-sorted with codes; the planner sorts lineitem once and
  // merge joins. SELECT * drops the internal match-indicator column.
  CheckSql(
      "SELECT * FROM orders o INNER JOIN lineitem l "
      "ON o.orderkey = l.orderkey",
      [&] {
        PlanBuilder right = PlanBuilder::Scan(Source("lineitem"));
        return PlanBuilder::Scan(Source("orders"))
            .Join(std::move(right), JoinType::kInner)
            .Project(Schema(1, 3), {0, 1, 2, 3})
            .Build();
      });

  SqlSession session(&catalog_, MakeOptions(1));
  SqlResult<std::unique_ptr<PreparedQuery>> prepared = session.Prepare(
      "SELECT * FROM orders o INNER JOIN lineitem l "
      "ON o.orderkey = l.orderkey");
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared.value()->physical->Uses(plan::PhysicalAlg::kMergeJoin));
  EXPECT_NE(prepared.value()->explain_text().find("merge-join"),
            std::string::npos);
}

TEST_F(SqlExecTest, JoinOnNonLeadingColumnRearranges) {
  // l.qty is a payload column: the binder projects lineitem so qty is the
  // key before joining against orders' leading key.
  CheckSql(
      "SELECT * FROM lineitem l INNER JOIN orders o ON l.qty = o.orderkey",
      [&] {
        PlanBuilder right = PlanBuilder::Scan(Source("orders"));
        return PlanBuilder::Scan(Source("lineitem"))
            .Project(Schema(1, 2), {1, 0, 2})
            .Join(std::move(right), JoinType::kInner)
            .Project(Schema(1, 3), {0, 1, 2, 3})
            .Build();
      });
}

TEST_F(SqlExecTest, GroupByLeadingKeyAllAggregates) {
  CheckSql(
      "SELECT orderkey, COUNT(*) AS n, SUM(qty) AS s, MIN(qty) AS lo, "
      "MAX(price) AS hi FROM lineitem GROUP BY orderkey",
      [&] {
        return PlanBuilder::Scan(Source("lineitem"))
            .Aggregate(1, {{AggFn::kCount, 0},
                           {AggFn::kSum, 1},
                           {AggFn::kMin, 1},
                           {AggFn::kMax, 2}})
            .Build();
      });
}

TEST_F(SqlExecTest, GroupByNonLeadingColumnRearranges) {
  // b is the second key column: the binder projects (b, c) -- grouping key
  // plus the single aggregate input -- before aggregating.
  CheckSql("SELECT b, SUM(c) AS s FROM wide GROUP BY b", [&] {
    return PlanBuilder::Scan(Source("wide"))
        .Project(Schema(1, 1), {1, 2})
        .Aggregate(1, {{AggFn::kSum, 1}})
        .Build();
  });
}

TEST_F(SqlExecTest, CountDistinct) {
  // The paper's web-analytics shape: distinct over (site, day, visitor),
  // then a streaming count per (site, day) -- no projection needed when
  // the key is already exactly the distinct key.
  CheckSql(
      "SELECT site, day, COUNT(DISTINCT visitor) AS v FROM hits "
      "GROUP BY site, day",
      [&] {
        return PlanBuilder::Scan(Source("hits"))
            .Distinct()
            .Aggregate(2, {{AggFn::kCount, 0}})
            .Build();
      });
}

TEST_F(SqlExecTest, SelectDistinct) {
  CheckSql("SELECT DISTINCT day FROM hits", [&] {
    return PlanBuilder::Scan(Source("hits"))
        .Project(Schema(1, 0), {1})
        .Distinct()
        .Build();
  });
}

TEST_F(SqlExecTest, OrderByPreSortedTableElidesSort) {
  CheckSql("SELECT * FROM events ORDER BY site, day", [&] {
    return PlanBuilder::Scan(Source("events")).Sort().Build();
  });

  // Acceptance: the EXPLAIN shows the sort elided, and no sort ran.
  SqlSession session(&catalog_, MakeOptions(1));
  SqlResult<std::unique_ptr<PreparedQuery>> prepared =
      session.Prepare("SELECT * FROM events ORDER BY site, day");
  ASSERT_TRUE(prepared.ok());
  const plan::PhysicalPlan& physical = *prepared.value()->physical;
  EXPECT_TRUE(physical.Uses(plan::PhysicalAlg::kElidedSort));
  EXPECT_FALSE(physical.Uses(plan::PhysicalAlg::kSort));
  EXPECT_EQ(physical.inserted_sorts(), 0u);
  EXPECT_EQ(physical.elided_sorts(), 1u);
  EXPECT_NE(prepared.value()->explain_text().find("elided-sort"),
            std::string::npos);
}

TEST_F(SqlExecTest, OrderByDescendingAndNonPrefix) {
  // ORDER BY keys that are not the select list's leading columns: the
  // binder sorts on a rearranged key and restores the select order after.
  CheckSql("SELECT orderkey, qty FROM lineitem ORDER BY qty DESC, orderkey",
           [&] {
             return PlanBuilder::Scan(Source("lineitem"))
                 .Project(Schema(1, 1), {0, 1})
                 .Project(Schema({SortDirection::kDescending,
                                  SortDirection::kAscending},
                                 0),
                          {1, 0})
                 .Sort()
                 .Project(Schema(1, 1), {1, 0})
                 .Build();
           });
}

TEST_F(SqlExecTest, OrderByAlias) {
  CheckSql(
      "SELECT site, COUNT(*) AS n FROM hits GROUP BY site ORDER BY n, site",
      [&] {
        return PlanBuilder::Scan(Source("hits"))
            .Aggregate(1, {{AggFn::kCount, 0}})
            .Project(Schema(2, 0), {1, 0})
            .Sort()
            .Project(Schema(1, 1), {1, 0})
            .Build();
      });
}

TEST_F(SqlExecTest, LimitWithoutOrder) {
  CheckSql("SELECT * FROM lineitem LIMIT 7", [&] {
    return PlanBuilder::Scan(Source("lineitem")).Limit(7).Build();
  });
}

TEST_F(SqlExecTest, OrderByLimit) {
  CheckSql("SELECT * FROM events ORDER BY site, day, visitor LIMIT 5", [&] {
    return PlanBuilder::Scan(Source("events")).Sort().Limit(5).Build();
  });
}

TEST_F(SqlExecTest, SetOperations) {
  const char* kinds[] = {"INTERSECT", "EXCEPT", "UNION ALL"};
  const SetOpType types[] = {SetOpType::kIntersect, SetOpType::kExcept,
                             SetOpType::kUnion};
  const bool alls[] = {false, false, true};
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(kinds[i]);
    CheckSql(
        std::string("SELECT a, b FROM s1 ") + kinds[i] +
            " SELECT a, b FROM s2",
        [&] {
          PlanBuilder right = PlanBuilder::Scan(Source("s2"));
          return PlanBuilder::Scan(Source("s1"))
              .SetOp(std::move(right), types[i], alls[i])
              .Build();
        });
  }
}

TEST_F(SqlExecTest, SetOpWithOrderAndLimit) {
  CheckSql(
      "SELECT a, b FROM s1 INTERSECT SELECT a, b FROM s2 "
      "ORDER BY a, b LIMIT 10",
      [&] {
        PlanBuilder right = PlanBuilder::Scan(Source("s2"));
        return PlanBuilder::Scan(Source("s1"))
            .SetOp(std::move(right), SetOpType::kIntersect, false)
            .Sort()
            .Limit(10)
            .Build();
      });
}

TEST_F(SqlExecTest, JoinWhereGroupOrderLimit) {
  // The kitchen sink: join + filter + aggregation + order + limit. In the
  // join output, l.qty sits at column 2 (key, o.custkey, l.qty, l.price).
  CheckSql(
      "SELECT o.orderkey, COUNT(*) AS n FROM orders o "
      "INNER JOIN lineitem l ON o.orderkey = l.orderkey "
      "WHERE l.qty < 1500 GROUP BY o.orderkey "
      "ORDER BY o.orderkey LIMIT 20",
      [&] {
        PlanBuilder right = PlanBuilder::Scan(Source("lineitem"));
        return PlanBuilder::Scan(Source("orders"))
            .Join(std::move(right), JoinType::kInner)
            .Filter([](const uint64_t* row) { return row[2] < 1500; })
            .Aggregate(1, {{AggFn::kCount, 0}})
            .Sort()
            .Limit(20)
            .Build();
      });
}

TEST_F(SqlExecTest, ParallelPlansUseExchanges) {
  SqlSession session(&catalog_, MakeOptions(4));
  // The ORDER BY gives the aggregation an interesting order, so the
  // planner picks the sort-based aggregate and its exchange-parallel
  // shape (hash-split on the grouping prefix, merged back in order).
  SqlResult<std::string> explain = session.Explain(
      "SELECT site, day, COUNT(*) AS n FROM hits GROUP BY site, day "
      "ORDER BY site, day");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain.value().find("merge-exchange"), std::string::npos)
      << explain.value();
  EXPECT_NE(explain.value().find("split-exchange"), std::string::npos);
}

TEST_F(SqlExecTest, PreparedQueryReruns) {
  SqlSession session(&catalog_, MakeOptions(1));
  SqlResult<std::unique_ptr<PreparedQuery>> prepared = session.Prepare(
      "SELECT orderkey, COUNT(*) AS n FROM lineitem GROUP BY orderkey");
  ASSERT_TRUE(prepared.ok());
  QueryResult first = session.Run(prepared.value().get());
  QueryResult second = session.Run(prepared.value().get());
  EXPECT_GT(first.result.row_count(), 0u);
  EXPECT_EQ(ToRowVec(first.result.rows), ToRowVec(second.result.rows));
  ASSERT_EQ(first.columns.size(), 2u);
  EXPECT_EQ(first.columns[0], "orderkey");
  EXPECT_EQ(first.columns[1], "n");
}

TEST_F(SqlExecTest, ExplainStatementReturnsPlanText) {
  SqlSession session(&catalog_, MakeOptions(1));
  SqlResult<QueryResult> result =
      session.Run("EXPLAIN SELECT * FROM events ORDER BY site");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().is_explain);
  EXPECT_EQ(result.value().result.row_count(), 0u);
  EXPECT_NE(result.value().explain_text.find("elided-sort"),
            std::string::npos);
}

// --- Cost model surfacing --------------------------------------------------

TEST_F(SqlExecTest, ExplainShowsCostAnnotations) {
  // Every physical node's EXPLAIN line carries the cost model's
  // {rows=... cost=...} estimate (docs/COST_MODEL.md shows worked
  // examples; tools/check_docs.sh keeps them in sync with this output).
  SqlSession session(&catalog_, MakeOptions(1));
  SqlResult<std::string> explain = session.Explain(
      "SELECT * FROM orders o INNER JOIN lineitem l "
      "ON o.orderkey = l.orderkey");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain.value().find("{rows="), std::string::npos)
      << explain.value();
  EXPECT_NE(explain.value().find("cost="), std::string::npos);
  // The scan of lineitem reports the catalog's exact row count.
  EXPECT_NE(explain.value().find("{rows=2000"), std::string::npos)
      << explain.value();
}

TEST_F(SqlExecTest, RuleBasedPolicyReproducesPrePR5PlanShapes) {
  // CostPolicy::kRuleBased pins the pure property/policy planner of
  // PR 1..4: every pre-PR5 scenario keeps its plan shape, and the rows
  // match the default cost-based session's rows (plan choice never
  // changes results).
  plan::PlanExecutor::Options rule_options = MakeOptions(1);
  rule_options.planner.cost_policy = plan::CostPolicy::kRuleBased;

  struct Scenario {
    const char* sql;
    std::vector<plan::PhysicalAlg> uses;
  };
  const Scenario scenarios[] = {
      {"SELECT * FROM events ORDER BY site, day",
       {plan::PhysicalAlg::kElidedSort}},
      {"SELECT * FROM orders o INNER JOIN lineitem l "
       "ON o.orderkey = l.orderkey",
       {plan::PhysicalAlg::kMergeJoin}},
      {"SELECT orderkey, COUNT(*) AS n FROM lineitem GROUP BY orderkey",
       {plan::PhysicalAlg::kHashAggregate}},
      {"SELECT site, day, COUNT(DISTINCT visitor) AS v FROM hits "
       "GROUP BY site, day",
       {plan::PhysicalAlg::kInSortDistinct,
        plan::PhysicalAlg::kInStreamAggregate}},
      {"SELECT a, b FROM s1 INTERSECT SELECT a, b FROM s2",
       {plan::PhysicalAlg::kSetOperation}},
  };

  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.sql);
    SqlSession rule_session(&catalog_, rule_options);
    SqlResult<QueryResult> rule_result = rule_session.Run(scenario.sql);
    ASSERT_TRUE(rule_result.ok())
        << rule_result.error().Render(scenario.sql);

    SqlSession cost_session(&catalog_, MakeOptions(1));
    SqlResult<QueryResult> cost_result = cost_session.Run(scenario.sql);
    ASSERT_TRUE(cost_result.ok());

    RowVec rule_rows = ToRowVec(rule_result.value().result.rows);
    RowVec cost_rows = ToRowVec(cost_result.value().result.rows);
    ovc::testing::Canonicalize(&rule_rows);
    ovc::testing::Canonicalize(&cost_rows);
    EXPECT_EQ(rule_rows, cost_rows);

    SqlResult<std::unique_ptr<PreparedQuery>> prepared =
        rule_session.Prepare(scenario.sql);
    ASSERT_TRUE(prepared.ok());
    for (plan::PhysicalAlg alg : scenario.uses) {
      EXPECT_TRUE(prepared.value()->physical->Uses(alg))
          << prepared.value()->explain_text();
    }
  }
}

// --- Golden EXPLAIN --------------------------------------------------------

/// One pinned plan: a statement, the planner knobs it is planned under,
/// and everything PhysicalPlan reports about the plan it gets.
struct GoldenPlan {
  const char* sql;
  uint32_t parallelism;
  plan::CostPolicy policy;
  /// The in-memory hash join's residency vouch, and the hash budget (0
  /// keeps the default).
  bool assume_build_fits_memory;
  uint64_t hash_memory_rows;
  const char* explain;
  /// PhysicalAlgName of every algorithm Uses() reports, space-separated.
  const char* uses;
  uint32_t inserted_sorts;
  uint32_t explicit_sorts;
  uint32_t elided_sorts;
  uint32_t parallel_workers;
  double root_rows;
  double root_cost;
};

/// EXPLAIN ANALYZE text without its actuals and trailer: every
/// "{rows=E/A cost=C time=... spill=S} flags" becomes "{rows=E cost=C}",
/// and the "-- wall=..." summary line is dropped.
std::string StripActuals(const std::string& analyzed) {
  static const std::regex kActuals(R"(\{rows=(\d+)/\d+ cost=(\d+) [^}]*\}.*)");
  std::string out;
  size_t at = 0;
  while (at < analyzed.size()) {
    size_t end = analyzed.find('\n', at);
    if (end == std::string::npos) end = analyzed.size();
    const std::string line = analyzed.substr(at, end - at);
    at = end + 1;
    if (line.rfind("-- wall=", 0) == 0) continue;
    out += std::regex_replace(line, kActuals, "{rows=$1 cost=$2}") + "\n";
  }
  return out;
}

TEST_F(SqlExecTest, GoldenExplain) {
  // Together the statements reach all 18 physical algorithms, serial and
  // exchange-parallel, under both cost policies. Each case pins the exact
  // EXPLAIN text and the plan's summary accessors, then runs the same
  // statement profiled (inline exchanges, so the tree is deterministic) and
  // checks that EXPLAIN ANALYZE describes the same tree line for line.
  const GoldenPlan cases[] = {
      {"SELECT site, day, visitor FROM events WHERE day < 4 ORDER BY "
       "site, day",
       1, plan::CostPolicy::kCostBased, false, 0,
       "elided-sort [sorted(3)+ovc] {rows=660 cost=7660}\n"
       "  filter [sorted(3)+ovc] {rows=660 cost=7660}\n"
       "    scan(events) [sorted(3)+ovc] {rows=2000 cost=2000}\n",
       "scan filter elided-sort",
       0, 0, 1, 0, 660, 7660},
      {"SELECT o.orderkey, COUNT(*) AS n, SUM(l.qty) AS total FROM "
       "orders o INNER JOIN lineitem l ON o.orderkey = l.orderkey "
       "GROUP BY o.orderkey ORDER BY o.orderkey",
       1, plan::CostPolicy::kCostBased, false, 0,
       "elided-sort [sorted(1)+ovc] {rows=99 cost=73349}\n"
       "  in-stream-aggregate(group=1) [sorted(1)+ovc] {rows=99 cost=73349}\n"
       "    merge-join(inner) [sorted(1)+ovc] {rows=10000 cost=58250}\n"
       "      scan(orders) [sorted(1)+ovc] {rows=500 cost=500}\n"
       "      sort(inserted) [sorted(1)+ovc] {rows=2000 cost=44000}\n"
       "        scan(lineitem) [unsorted] {rows=2000 cost=2000}\n",
       "scan merge-join in-stream-aggregate sort elided-sort",
       1, 0, 1, 0, 99.342951695758543, 73349.342998289678},
      {"SELECT o.orderkey, COUNT(*) AS n, SUM(l.qty) AS total FROM "
       "orders o INNER JOIN lineitem l ON o.orderkey = l.orderkey "
       "GROUP BY o.orderkey ORDER BY o.orderkey",
       4, plan::CostPolicy::kRuleBased, false, 0,
       "elided-sort [sorted(1)+ovc] {rows=99 cost=251247}\n"
       "  merge-exchange(4 workers) [sorted(1)+ovc] {rows=99 cost=251247}\n"
       "    in-stream-aggregate(group=1, per worker) [sorted(1)+ovc] {rows=99 cost=250849}\n"
       "      split-exchange(hash) [sorted(1)+ovc] {rows=10000 cost=235750}\n"
       "        merge-exchange(4 workers) [sorted(1)+ovc] {rows=10000 cost=125750}\n"
       "          merge-join(inner, per worker) [sorted(1)+ovc] {rows=10000 cost=85750}\n"
       "            split-exchange(hash) [sorted(1)+ovc] {rows=500 cost=6000}\n"
       "              scan(orders) [sorted(1)+ovc] {rows=500 cost=500}\n"
       "            split-exchange(hash) [sorted(1)+ovc] {rows=2000 cost=66000}\n"
       "              sort(inserted) [sorted(1)+ovc] {rows=2000 cost=44000}\n"
       "                scan(lineitem) [unsorted] {rows=2000 cost=2000}\n",
       "scan merge-join in-stream-aggregate sort elided-sort "
       "split-exchange merge-exchange",
       1, 0, 1, 4, 99.342951695758543, 251246.71508463621},
      {"SELECT l.orderkey, l.qty FROM lineitem l INNER JOIN orders o "
       "ON l.orderkey = o.orderkey",
       1, plan::CostPolicy::kRuleBased, false, 64,
       "project [unsorted] {rows=10000 cost=166500}\n"
       "  hash-join(grace)(inner) [unsorted] {rows=10000 cost=156500}\n"
       "    scan(lineitem) [unsorted] {rows=2000 cost=2000}\n"
       "    scan(orders) [sorted(1)+ovc] {rows=500 cost=500}\n",
       "scan project hash-join(grace)",
       0, 0, 0, 0, 10000.000018637566, 166500.00005591271},
      {"SELECT l.orderkey, l.qty FROM lineitem l INNER JOIN orders o "
       "ON l.orderkey = o.orderkey",
       1, plan::CostPolicy::kCostBased, false, 64,
       "project [sorted(1)+ovc] {rows=10000 cost=68250}\n"
       "  merge-join(inner) [sorted(1)+ovc] {rows=10000 cost=58250}\n"
       "    sort(inserted) [sorted(1)+ovc] {rows=2000 cost=44000}\n"
       "      scan(lineitem) [unsorted] {rows=2000 cost=2000}\n"
       "    scan(orders) [sorted(1)+ovc] {rows=500 cost=500}\n",
       "scan project merge-join sort",
       1, 0, 0, 0, 10000.000018637566, 68250.000037275138},
      {"SELECT o.orderkey, l.qty FROM orders o INNER JOIN lineitem l "
       "ON o.orderkey = l.orderkey",
       1, plan::CostPolicy::kCostBased, true, 0,
       "project [sorted(1)+ovc] {rows=10000 cost=59500}\n"
       "  hash-join(order-preserving)(inner) [sorted(1)+ovc] {rows=10000 cost=49500}\n"
       "    scan(orders) [sorted(1)+ovc] {rows=500 cost=500}\n"
       "    scan(lineitem) [unsorted] {rows=2000 cost=2000}\n",
       "scan project hash-join(order-preserving)",
       0, 0, 0, 0, 10000.000018637566, 59500.000055912707},
      {"SELECT o.orderkey, l.qty FROM orders o INNER JOIN lineitem l "
       "ON o.orderkey = l.orderkey",
       4, plan::CostPolicy::kCostBased, false, 0,
       "project [sorted(1)+ovc] {rows=10000 cost=135750}\n"
       "  merge-exchange(4 workers) [sorted(1)+ovc] {rows=10000 cost=125750}\n"
       "    merge-join(inner, per worker) [sorted(1)+ovc] {rows=10000 cost=85750}\n"
       "      split-exchange(hash) [sorted(1)+ovc] {rows=500 cost=6000}\n"
       "        scan(orders) [sorted(1)+ovc] {rows=500 cost=500}\n"
       "      split-exchange(hash) [sorted(1)+ovc] {rows=2000 cost=66000}\n"
       "        sort(inserted) [sorted(1)+ovc] {rows=2000 cost=44000}\n"
       "          scan(lineitem) [unsorted] {rows=2000 cost=2000}\n",
       "scan project merge-join sort split-exchange merge-exchange",
       1, 0, 0, 4, 10000.000018637566, 135750.00011182539},
      {"SELECT site, COUNT(*) AS n FROM hits GROUP BY site",
       1, plan::CostPolicy::kRuleBased, false, 0,
       "hash-aggregate(group=1) [unsorted] {rows=8 cost=33008}\n"
       "  scan(hits) [unsorted] {rows=3000 cost=3000}\n",
       "scan hash-aggregate",
       0, 0, 0, 0, 8, 33008},
      {"SELECT site, COUNT(*) AS n FROM hits GROUP BY site ORDER BY "
       "site",
       4, plan::CostPolicy::kRuleBased, false, 0,
       "elided-sort [sorted(1)+ovc] {rows=8 cost=100540}\n"
       "  merge-exchange(4 workers) [sorted(1)+ovc] {rows=8 cost=100540}\n"
       "    in-sort-aggregate(group=1, per worker) [sorted(1)+ovc] {rows=8 cost=100508}\n"
       "      split-exchange(hash) [unsorted] {rows=3000 cost=36000}\n"
       "        scan(hits) [unsorted] {rows=3000 cost=3000}\n",
       "scan in-sort-aggregate elided-sort split-exchange "
       "merge-exchange",
       0, 0, 1, 4, 8, 100540},
      {"SELECT DISTINCT site, day FROM hits",
       1, plan::CostPolicy::kCostBased, false, 0,
       "hash-distinct [unsorted] {rows=64 cost=36064}\n"
       "  project [unsorted] {rows=3000 cost=6000}\n"
       "    scan(hits) [unsorted] {rows=3000 cost=3000}\n",
       "scan project hash-distinct",
       0, 0, 0, 0, 64, 36064},
      {"SELECT DISTINCT site, day FROM hits",
       1, plan::CostPolicy::kCostBased, false, 16,
       "in-sort-distinct [sorted(2)+ovc] {rows=64 cost=70884}\n"
       "  project [unsorted] {rows=3000 cost=6000}\n"
       "    scan(hits) [unsorted] {rows=3000 cost=3000}\n",
       "scan project in-sort-distinct",
       0, 0, 0, 0, 64, 70884},
      {"SELECT DISTINCT site, day FROM events",
       4, plan::CostPolicy::kCostBased, false, 0,
       "dedup [sorted(2)+ovc] {rows=64 cost=7000}\n"
       "  project [sorted(2)+ovc] {rows=2000 cost=4000}\n"
       "    scan(events) [sorted(3)+ovc] {rows=2000 cost=2000}\n",
       "scan project dedup",
       0, 0, 0, 0, 63.999999999998657, 7000},
      {"SELECT site, COUNT(DISTINCT visitor) AS v FROM events GROUP BY "
       "site ORDER BY site LIMIT 5",
       4, plan::CostPolicy::kCostBased, false, 0,
       "limit(k=5) [sorted(1)+ovc] {rows=5 cost=76799}\n"
       "  elided-sort [sorted(1)+ovc] {rows=5 cost=76794}\n"
       "    merge-exchange(4 workers) [sorted(1)+ovc] {rows=5 cost=76794}\n"
       "      in-stream-aggregate(group=1, per worker) [sorted(1)+ovc] {rows=159 cost=76159}\n"
       "        split-exchange(hash) [sorted(2)+ovc] {rows=2000 cost=73000}\n"
       "          in-sort-distinct [sorted(2)+ovc] {rows=2000 cost=51000}\n"
       "            project [unsorted] {rows=2000 cost=4000}\n"
       "              scan(events) [sorted(3)+ovc] {rows=2000 cost=2000}\n",
       "scan project in-stream-aggregate in-sort-distinct elided-sort "
       "limit split-exchange merge-exchange",
       0, 0, 1, 4, 5, 76798.700525984095},
      {"SELECT a, b FROM s1 INTERSECT SELECT a, b FROM s2 LIMIT 3",
       1, plan::CostPolicy::kCostBased, false, 0,
       "limit(k=3) [sorted(2)+ovc] {rows=3 cost=78791}\n"
       "  set-operation(distinct) [sorted(2)+ovc] {rows=3 cost=78788}\n"
       "    sort(inserted) [sorted(2)+ovc] {rows=1500 cost=36750}\n"
       "      scan(s1) [unsorted] {rows=1500 cost=1500}\n"
       "    sort(inserted) [sorted(2)+ovc] {rows=1500 cost=36750}\n"
       "      scan(s2) [unsorted] {rows=1500 cost=1500}\n",
       "scan set-operation sort limit",
       2, 0, 0, 0, 3, 78790.508484065955},
      {"SELECT a, b FROM s1 EXCEPT ALL SELECT a, b FROM s2",
       4, plan::CostPolicy::kRuleBased, false, 0,
       "set-operation(all) [sorted(2)+ovc] {rows=1 cost=78001}\n"
       "  sort(inserted) [sorted(2)+ovc] {rows=1500 cost=36750}\n"
       "    scan(s1) [unsorted] {rows=1500 cost=1500}\n"
       "  sort(inserted) [sorted(2)+ovc] {rows=1500 cost=36750}\n"
       "    scan(s2) [unsorted] {rows=1500 cost=1500}\n",
       "scan set-operation sort",
       2, 0, 0, 0, 1, 78001},
      {"SELECT visitor, site FROM hits ORDER BY visitor LIMIT 10",
       1, plan::CostPolicy::kRuleBased, false, 0,
       "limit(k=10) [sorted(1)+ovc] {rows=10 cost=73510}\n"
       "  sort(top=10) [sorted(1)+ovc] {rows=10 cost=73500}\n"
       "    project [unsorted] {rows=3000 cost=6000}\n"
       "      scan(hits) [unsorted] {rows=3000 cost=3000}\n",
       "scan project sort limit",
       0, 1, 0, 0, 10, 73510},
      {"SELECT visitor, site FROM hits ORDER BY visitor LIMIT 10",
       4, plan::CostPolicy::kCostBased, false, 0,
       "limit(k=10) [sorted(1)+ovc] {rows=10 cost=88510}\n"
       "  merge-exchange(4 workers) [sorted(1)+ovc] {rows=10 cost=88500}\n"
       "    sort(top=10, per worker) [sorted(1)+ovc] {rows=40 cost=76500}\n"
       "      split-exchange(round-robin) [unsorted] {rows=3000 cost=9000}\n"
       "        project [unsorted] {rows=3000 cost=6000}\n"
       "          scan(hits) [unsorted] {rows=3000 cost=3000}\n",
       "scan project sort limit split-exchange merge-exchange",
       0, 1, 0, 4, 10, 88510},
      // The limit travels down to the sort or in-sort aggregate producing
      // the rows -- through projects and elided sorts, and to each worker
      // under a merging exchange. Every cost is unchanged; the lines from
      // the limited one up to the limit estimate min(k, N) rows (k per
      // worker).
      {"SELECT visitor, site FROM hits ORDER BY site DESC, visitor LIMIT 4",
       1, plan::CostPolicy::kCostBased, false, 0,
       "limit(k=4) [unsorted] {rows=4 cost=87004}\n"
       "  project [unsorted] {rows=4 cost=87000}\n"
       "    sort(top=4) [sorted(2)+ovc] {rows=4 cost=84000}\n"
       "      project [unsorted] {rows=3000 cost=9000}\n"
       "        project [unsorted] {rows=3000 cost=6000}\n"
       "          scan(hits) [unsorted] {rows=3000 cost=3000}\n",
       "scan project sort limit",
       0, 1, 0, 0, 4, 87004},
      {"SELECT site, COUNT(*) AS n FROM hits GROUP BY site ORDER BY site "
       "LIMIT 3",
       1, plan::CostPolicy::kCostBased, false, 0,
       "limit(k=3) [sorted(1)+ovc] {rows=3 cost=67511}\n"
       "  elided-sort [sorted(1)+ovc] {rows=3 cost=67508}\n"
       "    in-sort-aggregate(group=1, top=3) [sorted(1)+ovc] {rows=3 cost=67508}\n"
       "      scan(hits) [unsorted] {rows=3000 cost=3000}\n",
       "scan in-sort-aggregate elided-sort limit",
       0, 0, 1, 0, 3, 67511},
      {"SELECT site, COUNT(*) AS n FROM hits GROUP BY site ORDER BY site "
       "LIMIT 3",
       4, plan::CostPolicy::kRuleBased, false, 0,
       "limit(k=3) [sorted(1)+ovc] {rows=3 cost=100543}\n"
       "  elided-sort [sorted(1)+ovc] {rows=3 cost=100540}\n"
       "    merge-exchange(4 workers) [sorted(1)+ovc] {rows=3 cost=100540}\n"
       "      in-sort-aggregate(group=1, top=3, per worker) [sorted(1)+ovc] {rows=8 cost=100508}\n"
       "        split-exchange(hash) [unsorted] {rows=3000 cost=36000}\n"
       "          scan(hits) [unsorted] {rows=3000 cost=3000}\n",
       "scan in-sort-aggregate elided-sort limit split-exchange merge-exchange",
       0, 0, 1, 4, 3, 100543},
      {"SELECT DISTINCT site, day FROM hits ORDER BY site, day LIMIT 5",
       1, plan::CostPolicy::kCostBased, false, 0,
       "limit(k=5) [sorted(2)+ovc] {rows=5 cost=70889}\n"
       "  elided-sort [sorted(2)+ovc] {rows=5 cost=70884}\n"
       "    in-sort-distinct(top=5) [sorted(2)+ovc] {rows=5 cost=70884}\n"
       "      project [unsorted] {rows=3000 cost=6000}\n"
       "        scan(hits) [unsorted] {rows=3000 cost=3000}\n",
       "scan project in-sort-distinct elided-sort limit",
       0, 0, 1, 0, 5, 70889},
      {"SELECT site, day FROM hits GROUP BY site, day ORDER BY site, day "
       "LIMIT 5",
       4, plan::CostPolicy::kCostBased, false, 0,
       "limit(k=5) [sorted(2)+ovc] {rows=5 cost=101145}\n"
       "  elided-sort [sorted(2)+ovc] {rows=5 cost=101140}\n"
       "    merge-exchange(4 workers) [sorted(2)+ovc] {rows=5 cost=101140}\n"
       "      in-sort-aggregate(group=2, top=5, per worker) [sorted(2)+ovc] {rows=20 cost=100884}\n"
       "        split-exchange(hash) [unsorted] {rows=3000 cost=36000}\n"
       "          scan(hits) [unsorted] {rows=3000 cost=3000}\n",
       "scan in-sort-aggregate elided-sort limit split-exchange merge-exchange",
       0, 0, 1, 4, 5, 101145},
      // It stops at operators that change the row count or need all of
      // their input: a set operation, and an in-stream aggregate over an
      // in-sort distinct. The line a bare limit reads from still
      // estimates min(k, N), whether or not its operator takes the limit.
      {"SELECT a, b FROM s1 INTERSECT SELECT a, b FROM s2 LIMIT 3",
       4, plan::CostPolicy::kRuleBased, false, 0,
       "limit(k=3) [sorted(2)+ovc] {rows=3 cost=78791}\n"
       "  set-operation(distinct) [sorted(2)+ovc] {rows=3 cost=78788}\n"
       "    sort(inserted) [sorted(2)+ovc] {rows=1500 cost=36750}\n"
       "      scan(s1) [unsorted] {rows=1500 cost=1500}\n"
       "    sort(inserted) [sorted(2)+ovc] {rows=1500 cost=36750}\n"
       "      scan(s2) [unsorted] {rows=1500 cost=1500}\n",
       "scan set-operation sort limit",
       2, 0, 0, 0, 3, 78790.508484065955},
      {"SELECT site, COUNT(DISTINCT visitor) AS v FROM hits GROUP BY "
       "site ORDER BY site LIMIT 2",
       1, plan::CostPolicy::kCostBased, false, 0,
       "limit(k=2) [sorted(1)+ovc] {rows=2 cost=85710}\n"
       "  elided-sort [sorted(1)+ovc] {rows=2 cost=85708}\n"
       "    in-stream-aggregate(group=1) [sorted(1)+ovc] {rows=2 cost=85708}\n"
       "      in-sort-distinct [sorted(2)+ovc] {rows=3000 cost=81000}\n"
       "        project [unsorted] {rows=3000 cost=6000}\n"
       "          scan(hits) [unsorted] {rows=3000 cost=3000}\n",
       "scan project in-stream-aggregate in-sort-distinct elided-sort limit",
       0, 0, 1, 0, 2, 85710.008382305183},
      {"SELECT * FROM lineitem LIMIT 7",
       1, plan::CostPolicy::kRuleBased, false, 0,
       "limit(k=7) [unsorted] {rows=7 cost=2007}\n"
       "  scan(lineitem) [unsorted] {rows=7 cost=2000}\n",
       "scan limit",
       0, 0, 0, 0, 7, 2007},
      {"SELECT DISTINCT a, c FROM wide",
       1, plan::CostPolicy::kCostBased, false, 0,
       "hash-distinct [unsorted] {rows=2000 cost=26000}\n"
       "  project [unsorted] {rows=2000 cost=4000}\n"
       "    scan(wide) [unsorted] {rows=2000 cost=2000}\n",
       "scan project hash-distinct",
       0, 0, 0, 0, 2000, 26000},

  };

  std::set<std::string> reached;
  for (const GoldenPlan& c : cases) {
    SCOPED_TRACE(std::string(c.sql) + " @ parallelism " +
                 std::to_string(c.parallelism) +
                 (c.policy == plan::CostPolicy::kRuleBased ? ", rule-based"
                                                           : ""));
    plan::PlanExecutor::Options options = MakeOptions(c.parallelism);
    options.planner.cost_policy = c.policy;
    options.planner.assume_build_fits_memory = c.assume_build_fits_memory;
    if (c.hash_memory_rows != 0) {
      options.planner.hash_memory_rows = c.hash_memory_rows;
    }

    SqlSession session(&catalog_, options);
    SqlResult<std::unique_ptr<PreparedQuery>> prepared = session.Prepare(c.sql);
    ASSERT_TRUE(prepared.ok()) << prepared.error().Render(c.sql);
    const plan::PhysicalPlan& physical = *prepared.value()->physical;
    EXPECT_EQ(physical.ToString(), c.explain);
    EXPECT_EQ(physical.profile(), nullptr);

    std::set<std::string> uses;
    std::istringstream names(c.uses);
    for (std::string name; names >> name;) uses.insert(name);
    for (int a = 0; a <= static_cast<int>(plan::PhysicalAlg::kMergeExchange);
         ++a) {
      const auto alg = static_cast<plan::PhysicalAlg>(a);
      const std::string name = plan::PhysicalAlgName(alg);
      EXPECT_EQ(physical.Uses(alg), uses.count(name) > 0) << name;
      if (physical.Uses(alg)) reached.insert(name);
    }
    EXPECT_EQ(physical.inserted_sorts(), c.inserted_sorts);
    EXPECT_EQ(physical.explicit_sorts(), c.explicit_sorts);
    EXPECT_EQ(physical.elided_sorts(), c.elided_sorts);
    EXPECT_EQ(physical.parallel_workers(), c.parallel_workers);
    EXPECT_DOUBLE_EQ(physical.root_estimate().rows, c.root_rows);
    EXPECT_DOUBLE_EQ(physical.root_estimate().cost, c.root_cost);

    options.planner.profile = true;
    options.planner.exchange.threaded = false;
    SqlSession profiled(&catalog_, options);
    SqlResult<std::unique_ptr<PreparedQuery>> analyzed =
        profiled.Prepare(c.sql);
    ASSERT_TRUE(analyzed.ok());
    QueryResult run = profiled.Run(analyzed.value().get());
    EXPECT_TRUE(run.result.ok()) << run.result.validation_error;
    const plan::PhysicalPlan& traced = *analyzed.value()->physical;
    ASSERT_NE(traced.profile(), nullptr);
    EXPECT_EQ(traced.ToString(), c.explain);
    EXPECT_EQ(StripActuals(traced.ExplainAnalyze()), c.explain)
        << traced.ExplainAnalyze();
  }
  EXPECT_EQ(reached.size(),
            static_cast<size_t>(plan::PhysicalAlg::kMergeExchange) + 1);
}

// --- LIMIT pushdown ----------------------------------------------------------

TEST_F(SqlExecTest, LimitReturnsThePrefixOfTheUnlimitedQuery) {
  // A limit handed down to a sort or in-sort aggregate must not change the
  // answer: under every knob setting, each LIMIT k query returns exactly
  // the first k rows the same query returns without LIMIT -- ties on the
  // ORDER BY key included (lineitem.qty and wide.c are row numbers, so a
  // tie that came out in another order would show).
  const char* const queries[] = {
      "SELECT orderkey, qty FROM lineitem ORDER BY orderkey",
      "SELECT visitor, site FROM hits ORDER BY visitor",
      "SELECT visitor, site FROM hits ORDER BY site DESC, visitor",
      "SELECT b, a, c FROM wide ORDER BY b DESC, a",
      "SELECT site, COUNT(*) AS n FROM hits GROUP BY site ORDER BY site",
      "SELECT site, day, COUNT(*) AS n, SUM(visitor) AS s, MIN(visitor) AS lo "
      "FROM hits GROUP BY site, day ORDER BY site, day",
      "SELECT DISTINCT site, day FROM hits ORDER BY site, day",
      "SELECT DISTINCT visitor, day FROM hits ORDER BY visitor, day",
      "SELECT site, COUNT(DISTINCT visitor) AS v FROM hits GROUP BY site "
      "ORDER BY site",
      "SELECT a, b FROM s1 INTERSECT SELECT a, b FROM s2",
      "SELECT o.custkey, COUNT(*) AS n FROM orders o JOIN lineitem l "
      "ON o.orderkey = l.orderkey GROUP BY o.custkey ORDER BY o.custkey",
  };
  struct Knobs {
    uint32_t parallelism;
    plan::CostPolicy policy;
    uint64_t sort_memory_rows;  // 0: the default budget, nothing spills
  };
  const Knobs knobs[] = {
      {1, plan::CostPolicy::kCostBased, 0},
      {1, plan::CostPolicy::kRuleBased, 0},
      {4, plan::CostPolicy::kCostBased, 0},
      {4, plan::CostPolicy::kRuleBased, 0},
      {1, plan::CostPolicy::kCostBased, 128},
      {1, plan::CostPolicy::kRuleBased, 256},
      {4, plan::CostPolicy::kCostBased, 256},
      {4, plan::CostPolicy::kRuleBased, 128},
  };
  for (const Knobs& knob : knobs) {
    plan::PlanExecutor::Options options = MakeOptions(knob.parallelism);
    options.planner.cost_policy = knob.policy;
    if (knob.sort_memory_rows != 0) {
      options.planner.sort_config.memory_rows = knob.sort_memory_rows;
      options.planner.sort_config.fan_in = 4;  // cascaded merges too
    }
    SqlSession session(&catalog_, options);
    for (const char* query : queries) {
      SCOPED_TRACE(std::string(query) + " @ parallelism " +
                   std::to_string(knob.parallelism) + ", sort memory " +
                   std::to_string(knob.sort_memory_rows) +
                   (knob.policy == plan::CostPolicy::kRuleBased
                        ? ", rule-based"
                        : ""));
      SqlResult<QueryResult> full = session.Run(query);
      ASSERT_TRUE(full.ok()) << full.error().Render(query);
      ASSERT_TRUE(full.value().result.ok())
          << full.value().result.validation_error;
      const RowVec all = ToRowVec(full.value().result.rows);
      for (uint64_t k : {uint64_t{1}, uint64_t{7}, uint64_t{all.size() + 1}}) {
        const std::string limited =
            std::string(query) + " LIMIT " + std::to_string(k);
        SqlResult<QueryResult> got = session.Run(limited);
        ASSERT_TRUE(got.ok()) << got.error().Render(limited);
        EXPECT_TRUE(got.value().result.ok())
            << got.value().result.validation_error;
        const RowVec want(all.begin(),
                          all.begin() + std::min<size_t>(k, all.size()));
        EXPECT_EQ(ToRowVec(got.value().result.rows), want) << "LIMIT " << k;
      }
    }
  }
}

// --- Binder errors ---------------------------------------------------------

TEST_F(SqlExecTest, BinderErrors) {
  SqlSession session(&catalog_, MakeOptions(1));

  auto expect_error = [&](const std::string& sql_text,
                          const std::string& message_part, uint32_t line,
                          uint32_t column) {
    SqlResult<QueryResult> result = session.Run(sql_text);
    ASSERT_FALSE(result.ok()) << "unexpectedly bound: " << sql_text;
    EXPECT_NE(result.error().message.find(message_part), std::string::npos)
        << result.error().message;
    EXPECT_EQ(result.error().line, line) << result.error().ToString();
    EXPECT_EQ(result.error().column, column) << result.error().ToString();
  };

  expect_error("SELECT * FROM nope", "unknown table 'nope'", 1, 15);
  expect_error("SELECT zap FROM lineitem", "unknown column 'zap'", 1, 8);
  // After an equi-join the key column is one output column reachable via
  // both input names, so unqualified `a` is NOT ambiguous -- but the two
  // payload columns named b are.
  expect_error(
      "SELECT a FROM s1 INNER JOIN s2 ON s1.a = s2.a WHERE b = 1",
      "ambiguous column 'b'", 1, 53);
  expect_error("SELECT qty FROM lineitem GROUP BY orderkey",
               "must appear in GROUP BY", 1, 8);
  expect_error(
      "SELECT site, COUNT(DISTINCT visitor), COUNT(*) FROM hits "
      "GROUP BY site",
      "COUNT(DISTINCT) cannot be combined", 1, 14);
  expect_error("SELECT COUNT(*) FROM hits", "aggregates require GROUP BY", 1,
               8);
  expect_error("SELECT a, b FROM s1 UNION SELECT orderkey FROM orders",
               "set operation inputs have 2 vs 1 columns", 1, 21);
  expect_error("SELECT a FROM s1 ORDER BY b",
               "ORDER BY column 'b' is not in the select list", 1, 27);
  expect_error("SELECT * FROM hits GROUP BY site",
               "SELECT * cannot be combined", 1, 15);
  expect_error("SELECT s1.a FROM s1 INNER JOIN s2 ON s1.a = s1.b",
               "join condition must compare a column of each input", 1, 38);
}

}  // namespace
}  // namespace ovc::sql
