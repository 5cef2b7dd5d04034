// Physical planning: from a logical plan to an executable operator tree.
//
// The planner walks the logical tree bottom-up, tracking each subtree's
// OrderProperty, and picks physical algorithms by matching available
// properties against required ones:
//
//  * A Sort node whose input is already sorted with offset-value codes is
//    *elided* -- the paper's headline planner win: order and codes flowing
//    out of one sort-based operator (or out of sorted storage) make the
//    next sort free.
//  * Join: merge join when both inputs arrive sorted with codes. When only
//    the probe side does: the probe's order is never discarded -- the
//    build side is sorted and merge join reuses the probe's order, or,
//    if the caller vouches the build fits in memory
//    (assume_build_fits_memory -- the operator aborts past its budget),
//    the order-preserving in-memory hash join (Section 4.9), whichever
//    the cost model estimates cheaper. When neither side has order the
//    open call is grace hash join versus sorting both inputs, decided by
//    estimated cost under the memory budgets (see plan/cost_model.h and
//    docs/COST_MODEL.md); sorts are inserted to enable merge join for
//    the join types hash joins cannot run (and under prefer_sort_based).
//  * Aggregate: in-stream aggregation over sorted input (boundaries from
//    codes, Section 4.5); in-sort aggregation (early duplicate collapse,
//    Figure 5) when the input is unsorted but the parent has an interesting
//    order or sort-based planning is preferred; hash versus in-sort by
//    estimated cost otherwise (hash wins resident, in-sort once the group
//    count overflows the hash budget). CostPolicy::kRuleBased pins the
//    pre-cost-model policy for all of the above.
//  * Distinct: code-only duplicate removal over sorted input (Section 4.4);
//    in-sort or hash duplicate removal over unsorted input.
//  * Set operations are inherently sort-based; sorts are inserted only for
//    children that lack order or codes.
//  * Parallelism (Section 4.10): with `parallelism` > 1 the planner emits
//    exchange-parallel shapes built from a splitting exchange, one worker
//    pipeline per partition, and a merging exchange that restores a single
//    sorted coded stream. A splitting shuffle keeps per-partition codes by
//    the filter theorem; the merging shuffle is "very similar to a merge
//    step in an external merge sort". Three shapes are wired: parallel
//    sort (round-robin split -> per-worker sort -> merge-exchange),
//    parallel aggregation (hash-split on the grouping prefix, co-locating
//    groups -> per-worker in-stream/in-sort aggregate -> merge-exchange),
//    and parallel merge join (both inputs hash-split on the join key into
//    co-partitioned pairs -> per-worker merge join -> merge-exchange).
//    Each worker pipeline gets its own QueryCounters (the MergeExchange
//    threading contract); PhysicalPlan::RollUpWorkerCounters folds them
//    into the session counters after a run so accounting stays exact.
//
// Every physical join is normalized to the canonical merge-join output
// layout (join key, left payloads, right payloads, match indicator), so the
// same logical plan produces identical rows no matter which algorithms the
// planner picks.

#ifndef OVC_PLAN_PHYSICAL_PLAN_H_
#define OVC_PLAN_PHYSICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/profile.h"
#include "common/temp_file.h"
#include "exec/exchange.h"
#include "exec/fallback_policy.h"
#include "exec/operator.h"
#include "plan/cost_model.h"
#include "plan/logical_plan.h"
#include "plan/order_property.h"
#include "sort/external_sort.h"

namespace ovc::plan {

/// Physical algorithms the planner chooses among.
enum class PhysicalAlg : uint8_t {
  kScan,
  kFilter,
  kProject,
  kMergeJoin,
  kOrderPreservingHashJoin,
  kGraceHashJoin,
  kInStreamAggregate,
  kInSortAggregate,
  kHashAggregate,
  kDedup,
  kInSortDistinct,
  kHashDistinct,
  kSetOperation,
  kSort,        // a SortOperator: explicit, or inserted by the planner
  kElidedSort,  // a logical Sort satisfied by its input's properties
  kLimit,
  kSplitExchange,  // one-to-many splitting shuffle feeding worker pipelines
  kMergeExchange,  // many-to-one order-preserving merging shuffle
};

/// Short name, e.g. "merge-join", "elided-sort".
const char* PhysicalAlgName(PhysicalAlg alg);

/// Planner knobs.
struct PlannerOptions {
  /// How the planner picks among physical alternatives where correctness
  /// permits several: estimated-cost comparison (the default) or the pure
  /// property/policy rules of PR 1..4. Under kCostBased the hard policy
  /// gates stay as correctness/robustness guards (hash joins only for the
  /// types they support, an ordered coded probe is never discarded, an
  /// order-interested parent gets an order-producing aggregate), and the
  /// cost model decides the remaining open calls: grace-hash versus
  /// sort+merge-join under the memory budgets, hash versus in-sort
  /// aggregation/distinct by estimated duplicate density, and the
  /// vouched in-memory hash join versus sorting the build side.
  CostPolicy cost_policy = CostPolicy::kCostBased;
  /// Per-event work constants for the cost model. Defaults to the
  /// committed calibration (see docs/COST_MODEL.md to re-derive).
  CostConstants cost_constants = CostConstants::Calibrated();
  /// True forces sort-based algorithms (inserting sorts) even where a
  /// hash-based operator would serve an order-indifferent consumer.
  bool prefer_sort_based = false;
  /// Configuration for planner-inserted sorts and in-sort aggregation
  /// (memory budget, fan-in, run generation). Planner-inserted sorts feed
  /// code-consuming operators, so the config must produce output codes:
  /// use_ovc == false requires naive_output_codes == true (the paper's
  /// expensive strawman); the planner checks this when it inserts a sort.
  SortConfig sort_config;
  /// True lets the planner pick the order-preserving in-memory hash join
  /// (Section 4.9) for a sorted probe over an unsorted build. That
  /// operator *aborts* if the build side exceeds hash_memory_rows -- its
  /// residency guarantee is the caller's job -- so this stays off by
  /// default; the robust default sorts the build side and merge joins,
  /// which spills gracefully and still reuses the probe's order.
  bool assume_build_fits_memory = false;
  /// Row budget for hash-join build sides and hash-aggregation tables.
  uint64_t hash_memory_rows = uint64_t{1} << 20;
  /// What a planner-built hash operator does when its budget check fails
  /// mid-query. Planned queries default to the graceful path -- degrade to
  /// the sort-based strategy (ExternalSort + merge logic, preserving OVCs)
  /// from the point of failure -- because a planner that got here
  /// mis-estimated, and recursive partition thrashing compounds the
  /// mistake. kPartition restores the classic grace behavior (the Figure 6
  /// hash-plan benchmarks name it, since they measure it).
  FallbackPolicy fallback = FallbackPolicy::kSortMerge;
  /// Worker pipelines for exchange-parallel plan shapes; 1 keeps every
  /// plan serial. With N > 1 the planner splits eligible sorts,
  /// aggregations, and merge joins across N partitions, runs one worker
  /// pipeline per partition (each with its own QueryCounters), and
  /// restores a single sorted coded stream with a merging exchange.
  uint32_t parallelism = 1;
  /// Merging-exchange knobs for parallel shapes. `threaded` true runs one
  /// producer thread per worker pipeline (real parallelism); false pulls
  /// workers inline on one thread (deterministic mode for tests and
  /// benchmarks). Parallel shapes require `use_ovc` (the exchange must
  /// reproduce codes for downstream operators); with `use_ovc` false the
  /// planner falls back to serial shapes.
  MergeExchange::Options exchange;
  /// True builds the plan with a QueryProfile: every operator is wrapped in
  /// a ProfiledOperator and constructed against its own per-node (and,
  /// inside exchange regions, per-thread) QueryCounters slice, so rows,
  /// wall time, and comparison/spill work are attributed per plan line.
  /// Off by default -- EXPLAIN ANALYZE, `ovcsql --profile=FILE`, and the
  /// profile tests turn it on; the un-profiled hot path stays untouched.
  bool profile = false;
};

/// An executable physical plan: owns its operator tree.
class PhysicalPlan {
 public:
  PhysicalPlan() = default;
  PhysicalPlan(PhysicalPlan&&) = default;
  /// Move *assignment* is deliberately unavailable: a defaulted member-wise
  /// move would destroy the overwritten plan's operators front to back,
  /// breaking the parents-first teardown the destructor guarantees. Hold
  /// reassignable plans behind std::unique_ptr (as PlanExecutor does).
  PhysicalPlan& operator=(PhysicalPlan&&) = delete;
  /// Destroys the operators in reverse construction order -- parents
  /// before the children they pull from. Children are always Own()ed
  /// before their parent, so in particular a MergeExchange (whose
  /// destructor cancels and joins producer threads on the
  /// destroyed-without-Close path) goes before the worker operators those
  /// threads are still driving; forward vector destruction would free the
  /// workers under the live threads.
  ~PhysicalPlan();

  /// Root of the operator tree (owned by the plan).
  Operator* root() const { return root_; }

  /// Order property of the root's output stream.
  const OrderProperty& root_order() const { return root_order_; }

  /// Number of SortOperators the planner inserted because an input lacked
  /// the required order or codes (explicit logical Sort nodes that survive
  /// are counted separately under `explicit_sorts`).
  uint32_t inserted_sorts() const { return inserted_sorts_; }
  /// Logical Sort nodes that became physical SortOperators.
  uint32_t explicit_sorts() const { return explicit_sorts_; }
  /// Logical Sort nodes elided because their input already delivered order
  /// and codes.
  uint32_t elided_sorts() const { return elided_sorts_; }

  /// One physical plan line. Every line is recorded exactly once, children
  /// before their parent, so the root is the last line; EXPLAIN, Uses(),
  /// the estimates and (when profiled) the QueryProfile node of the same
  /// index all read this one record.
  struct Line {
    PhysicalAlg alg;
    /// "alg(detail) [order]" -- the EXPLAIN prefix and the profile label.
    std::string label;
    /// Output rows and cumulative cost (the node plus its whole subtree).
    NodeEstimate est;
    /// Child line indices, in EXPLAIN order.
    std::vector<int> children;
  };
  const std::vector<Line>& lines() const { return lines_; }

  /// True when the plan uses `alg` anywhere.
  bool Uses(PhysicalAlg alg) const;

  /// Estimate for the plan root: total estimated rows out and total
  /// estimated cost of the whole plan.
  NodeEstimate root_estimate() const {
    return lines_.empty() ? NodeEstimate() : lines_.back().est;
  }

  /// Worker pipelines of the widest exchange-parallel region (0 when the
  /// plan is serial).
  uint32_t parallel_workers() const { return parallel_workers_; }

  /// Counters the planner created for concurrent parts of the plan: one
  /// per worker pipeline plus one per splitting exchange (the MergeExchange
  /// contract -- concurrent pipelines must not share a counters instance).
  const std::vector<std::unique_ptr<QueryCounters>>& worker_counters() const {
    return worker_counters_;
  }

  /// Folds all worker counters into `into` (no-op when null) and resets
  /// them, so comparison-count accounting stays exact across repeated
  /// runs. PlanExecutor calls this after every run of a parallel plan.
  void RollUpWorkerCounters(QueryCounters* into);

  /// EXPLAIN rendering: one line per plan line, indented two spaces per
  /// depth, `label {rows=N cost=C}`.
  std::string ToString() const;

  /// The per-node runtime profile, or null when the plan was built without
  /// PlannerOptions::profile. Filled in by PlanExecutor::Run (actuals are
  /// zero before the first run).
  QueryProfile* profile() const { return profile_.get(); }

  /// EXPLAIN ANALYZE rendering: the profiled plan tree with estimates,
  /// actuals, per-node timings/counters, and worst-Q-error flags. Falls
  /// back to the plain EXPLAIN text for un-profiled plans.
  std::string ExplainAnalyze() const {
    return profile_ ? profile_->Render() : ToString();
  }

 private:
  friend class Planner;

  Operator* Own(std::unique_ptr<Operator> op) {
    operators_.push_back(std::move(op));
    return operators_.back().get();
  }

  /// Appends one plan line over the already recorded `children` and
  /// returns its index; when the plan is profiled, also the QueryProfile
  /// node of the same index. `table` names a scan's table (the profile's
  /// feedback target).
  int AddLine(PhysicalAlg alg, const std::string& detail,
              const OrderProperty& prop, const NodeEstimate& est,
              std::vector<int> children,
              const std::string& table = std::string());
  /// Sets line `line`'s row estimate (and its profile node's) to `rows`.
  void SetLineRows(int line, double rows);

  SplitExchange* OwnSplit(std::unique_ptr<SplitExchange> split) {
    splits_.push_back(std::move(split));
    return splits_.back().get();
  }

  QueryCounters* NewWorkerCounters() {
    worker_counters_.push_back(std::make_unique<QueryCounters>());
    return worker_counters_.back().get();
  }

  // Member declaration order is destruction order in reverse: the
  // destructor empties `operators_` first (itself back to front, see
  // ~PhysicalPlan), then the split exchanges, then the counters and the
  // profile -- so any producer threads joined during operator destruction
  // can still touch partition streams, worker counters, and profile slices.
  std::unique_ptr<QueryProfile> profile_;
  std::vector<std::unique_ptr<QueryCounters>> worker_counters_;
  /// Splitting exchanges are not Operators (they fan out into partition
  /// streams), so the plan owns them separately.
  std::vector<std::unique_ptr<SplitExchange>> splits_;
  std::vector<std::unique_ptr<Operator>> operators_;
  Operator* root_ = nullptr;
  OrderProperty root_order_;
  uint32_t inserted_sorts_ = 0;
  uint32_t explicit_sorts_ = 0;
  uint32_t elided_sorts_ = 0;
  uint32_t parallel_workers_ = 0;
  std::vector<Line> lines_;
};

/// The physical planner.
class Planner {
 public:
  /// `counters` (optional) and `temp` must outlive every plan produced.
  Planner(QueryCounters* counters, TempFileManager* temp,
          PlannerOptions options = PlannerOptions());

  /// Runs the interesting-orders pass over `root`, then builds the
  /// physical operator tree. `root` (and the storage behind its scans)
  /// must outlive the returned plan.
  PhysicalPlan Plan(LogicalNode* root);

  const PlannerOptions& options() const { return options_; }

 private:
  struct Built {
    Operator* op = nullptr;
    OrderProperty prop;
    /// Output rows + cumulative cost estimate for this subtree.
    NodeEstimate est;
    /// Plan line of this subtree's root.
    int line = -1;
  };

  /// Profile wiring for one operator of a plan line: the stats slice
  /// metering it, and the counters its constructor should charge -- the
  /// slice's own counters when profiling, the caller's fallback instance
  /// otherwise.
  struct Meter {
    OperatorStats* slice = nullptr;
    QueryCounters* ctrs = nullptr;
  };
  /// Allocates one stats slice under plan line `line` when the plan is
  /// profiled; otherwise a pass-through meter charging `fallback`.
  Meter NewMeter(PhysicalPlan* plan, int line, QueryCounters* fallback);
  /// Wraps `op` in a ProfiledOperator writing `m`'s slice (identity when
  /// the plan is not profiled).
  Operator* Wrap(PhysicalPlan* plan, Operator* op, const Meter& m);

  /// `ctrs` is the counters instance for operators this subtree constructs
  /// -- the session counters at the root, a region-owned instance inside a
  /// parallel region (everything below a splitting exchange executes on
  /// whichever producer thread pumps the split, so it must never share the
  /// consumer thread's counters).
  ///
  /// `limit` (0 = none) is the most rows the parent reads from this
  /// subtree. It travels only through nodes that keep their input's order
  /// and row count (a limit, a project, an elided sort), down to a sort or
  /// in-sort aggregate -- serial, or each worker under a merging exchange --
  /// which then produces only that many rows or groups. The line built
  /// for `node` estimates at most `limit` rows either way; costs ignore
  /// the limit, so it never moves a plan choice.
  Built BuildNode(LogicalNode* node, PhysicalPlan* plan, QueryCounters* ctrs,
                  uint64_t limit = 0);
  /// Wraps `child` in a planner-inserted SortOperator metered by `ctrs`,
  /// producing at most `limit` rows (0 = all). `logical_child` provides
  /// the cardinality estimate for the sort's cost annotation.
  Built InsertSort(Built child, const LogicalNode* logical_child,
                   PhysicalPlan* plan, QueryCounters* ctrs,
                   uint64_t limit = 0);

  /// True when exchange-parallel shapes are enabled and usable.
  bool ParallelEnabled() const {
    return options_.parallelism > 1 && options_.exchange.use_ovc;
  }
  /// Builds one exchange-parallel region: splits each input into
  /// `parallelism` co-indexed partitions (one SplitExchange per input, same
  /// policy/prefix, so hash partitions are co-located across inputs),
  /// builds one worker operator per partition index via `make_worker`
  /// (handed that index's partition streams and a fresh per-worker
  /// QueryCounters), and merges the worker outputs back into one stream.
  ///
  /// `input_counters[i]` is the region counters instance input i's subtree
  /// was built with; the i-th split shares it (subtree pulls and split
  /// routing both happen under that split's pump mutex). `merge_counters`
  /// meters the merging exchange itself, on the consumer thread.
  ///
  /// The region records three tiers of plan lines: one split line per
  /// input (per-partition property `part_prop`), one line for the worker
  /// operator (`worker_alg`, "`detail`, per worker", output `out_prop`,
  /// costing `alg_cost` over the splits), and the merge line, which the
  /// returned subtree's root stands for. `top` (0 = none) is the output
  /// limit each worker was handed: the worker line then estimates at most
  /// top rows per worker and the merge line at most top, while every cost
  /// stays on `out_rows`.
  Built BuildExchangeRegion(
      const std::vector<Built>& inputs,
      const std::vector<QueryCounters*>& input_counters,
      SplitExchange::Policy policy, uint32_t hash_prefix,
      const OrderProperty& part_prop, PhysicalAlg worker_alg,
      const std::string& detail, const OrderProperty& out_prop,
      double alg_cost, double out_rows, uint64_t top,
      QueryCounters* merge_counters,
      PhysicalPlan* plan,
      const std::function<std::unique_ptr<Operator>(
          const std::vector<Operator*>& parts, QueryCounters* wc)>&
          make_worker);

  QueryCounters* counters_;
  TempFileManager* temp_;
  PlannerOptions options_;
  /// Prices the alternatives during planning and the chosen operators for
  /// the per-node EXPLAIN annotations.
  CostModel cost_model_;
};

/// Pure order-property inference: the property the planner's chosen
/// physical plan will deliver for `node`, computed without constructing any
/// operator. Requirement annotations must be in place (the function runs
/// the same decision rules as Planner::Plan; a freshly built tree should
/// first pass through InferOrderRequirements).
OrderProperty InferOrderProperty(const LogicalNode& node,
                                 const PlannerOptions& options);

}  // namespace ovc::plan

#endif  // OVC_PLAN_PHYSICAL_PLAN_H_
