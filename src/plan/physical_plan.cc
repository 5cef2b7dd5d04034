#include "plan/physical_plan.h"

#include <algorithm>
#include <utility>

#include "exec/dedup.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/in_sort_aggregate.h"
#include "exec/limit.h"
#include "exec/profiled_operator.h"
#include "exec/project.h"
#include "exec/sort_operator.h"
#include "plan/cost_model.h"

namespace ovc::plan {

const char* PhysicalAlgName(PhysicalAlg alg) {
  switch (alg) {
    case PhysicalAlg::kScan:
      return "scan";
    case PhysicalAlg::kFilter:
      return "filter";
    case PhysicalAlg::kProject:
      return "project";
    case PhysicalAlg::kMergeJoin:
      return "merge-join";
    case PhysicalAlg::kOrderPreservingHashJoin:
      return "hash-join(order-preserving)";
    case PhysicalAlg::kGraceHashJoin:
      return "hash-join(grace)";
    case PhysicalAlg::kInStreamAggregate:
      return "in-stream-aggregate";
    case PhysicalAlg::kInSortAggregate:
      return "in-sort-aggregate";
    case PhysicalAlg::kHashAggregate:
      return "hash-aggregate";
    case PhysicalAlg::kDedup:
      return "dedup";
    case PhysicalAlg::kInSortDistinct:
      return "in-sort-distinct";
    case PhysicalAlg::kHashDistinct:
      return "hash-distinct";
    case PhysicalAlg::kSetOperation:
      return "set-operation";
    case PhysicalAlg::kSort:
      return "sort";
    case PhysicalAlg::kElidedSort:
      return "elided-sort";
    case PhysicalAlg::kLimit:
      return "limit";
    case PhysicalAlg::kSplitExchange:
      return "split-exchange";
    case PhysicalAlg::kMergeExchange:
      return "merge-exchange";
  }
  return "unknown";
}

bool PhysicalPlan::Uses(PhysicalAlg alg) const {
  return std::any_of(lines_.begin(), lines_.end(),
                     [alg](const Line& line) { return line.alg == alg; });
}

PhysicalPlan::~PhysicalPlan() {
  while (!operators_.empty()) operators_.pop_back();
}

void PhysicalPlan::RollUpWorkerCounters(QueryCounters* into) {
  for (auto& wc : worker_counters_) {
    if (into != nullptr) into->Merge(*wc);
    wc->Reset();
  }
}

namespace {

/// True when `prop` delivers the stream fully sorted (on every key column
/// of `schema`) together with valid codes -- the runtime precondition of
/// every code-consuming operator.
bool SortedWithCodesOn(const OrderProperty& prop, const Schema& schema) {
  return prop.SortedWithCodes(schema.key_arity());
}

/// Property a SortOperator configured with `config` delivers.
OrderProperty SortOutput(const Schema& schema, const SortConfig& config) {
  return OrderProperty::Sorted(schema.key_arity(),
                               config.use_ovc || config.naive_output_codes);
}

/// CostModel matching `options` (constants + memory budgets).
CostModel ModelFor(const PlannerOptions& options) {
  return CostModel(options.cost_constants, options.sort_config,
                   options.hash_memory_rows);
}

/// Cost of a full sort of `card` rows shaped like `schema`.
double SortCostFor(const CostModel& model, const CardEstimate& card,
                   const Schema& schema) {
  return model.Sort(card.rows, schema.key_arity(),
                    card.DistinctPrefix(schema.key_arity()),
                    schema.total_columns());
}

// ---------------------------------------------------------------------------
// Pure decision rules, shared by the instantiating planner and the pure
// inference entry point so the two can never disagree. Under
// CostPolicy::kCostBased the open calls compare cost estimates; under
// kRuleBased they reproduce the PR 1..4 policy exactly.
// ---------------------------------------------------------------------------

struct JoinDecision {
  PhysicalAlg alg;
  bool sort_left = false;
  bool sort_right = false;
  /// True when the physical output layout must be projected back to the
  /// canonical merge-join layout.
  bool normalize = false;
  OrderProperty out;
};

bool HashSupports(JoinType type) {
  return type == JoinType::kInner || type == JoinType::kLeftOuter ||
         type == JoinType::kLeftSemi || type == JoinType::kLeftAnti;
}

JoinTypeHash ToHashType(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return JoinTypeHash::kInner;
    case JoinType::kLeftOuter:
      return JoinTypeHash::kLeftOuter;
    case JoinType::kLeftSemi:
      return JoinTypeHash::kLeftSemi;
    case JoinType::kLeftAnti:
      return JoinTypeHash::kLeftAnti;
    default:
      OVC_CHECK(false);
  }
  return JoinTypeHash::kInner;
}

JoinDecision DecideJoin(const LogicalNode& node, const OrderProperty& left,
                        const OrderProperty& right,
                        const PlannerOptions& options) {
  const Schema& ls = node.children[0]->schema;
  const Schema& rs = node.children[1]->schema;
  const bool l_ok = SortedWithCodesOn(left, ls);
  const bool r_ok = SortedWithCodesOn(right, rs);
  const JoinType type = node.join_type;
  const bool combines = type != JoinType::kLeftSemi &&
                        type != JoinType::kLeftAnti &&
                        type != JoinType::kRightSemi &&
                        type != JoinType::kRightAnti;

  JoinDecision d;
  d.out = OrderProperty::Sorted(node.schema.key_arity(), /*ovc=*/true);
  if (l_ok && r_ok) {
    // Both inputs arrive sorted with codes: the merge join both exploits
    // and reproduces them (Section 4.7) at pure code-comparison cost --
    // nothing can beat it, under either policy.
    d.alg = PhysicalAlg::kMergeJoin;
    return d;
  }
  const bool hash_allowed = !options.prefer_sort_based && HashSupports(type);
  if (options.cost_policy == CostPolicy::kCostBased) {
    const CostModel model = ModelFor(options);
    const CardEstimate lc = CardOf(*node.children[0], options.cost_constants);
    const CardEstimate rc = CardOf(*node.children[1], options.cost_constants);
    const double out_rows = CardOf(node, options.cost_constants).rows;
    // The sort-based fallback: sorts exactly where order or codes are
    // missing, then merge join (spilling gracefully past the sort memory
    // budget).
    const double sort_merge = (l_ok ? 0.0 : SortCostFor(model, lc, ls)) +
                              (r_ok ? 0.0 : SortCostFor(model, rc, rs)) +
                              model.MergeJoin(lc.rows, rc.rows, out_rows);
    if (hash_allowed && !l_ok &&
        (type == JoinType::kInner || type == JoinType::kLeftSemi)) {
      // No order on the probe side: grace hash join versus sorting both
      // inputs, decided by estimated cost under the memory budgets --
      // grace pays a partition write+read round trip for both sides once
      // the build exceeds hash_memory_rows, which is where the sort-based
      // plan starts winning (the Figure 6 race). An ordered coded probe
      // (l_ok below) is never discarded for a hash join.
      // Combining hash joins pay the layout-restoring projection back to
      // the canonical merge layout; merge joins never do. Charge it here
      // so the decision threshold matches the recorded estimates.
      const double grace = model.GraceHashJoin(lc.rows, rc.rows, out_rows,
                                               ls.total_columns(),
                                               rs.total_columns()) +
                           (combines ? model.Project(out_rows) : 0.0);
      if (grace < sort_merge) {
        d.alg = PhysicalAlg::kGraceHashJoin;
        d.normalize = combines;
        d.out = OrderProperty::Unsorted();
        return d;
      }
    }
    if (hash_allowed && l_ok && options.assume_build_fits_memory &&
        rc.rows <= static_cast<double>(options.hash_memory_rows)) {
      // Sorted probe over an unsorted build with a residency vouch: the
      // order-preserving in-memory hash join (Section 4.9) versus sorting
      // only the build side. The estimate must also respect the budget
      // the vouch is about -- the operator aborts past it.
      const double in_memory_hash =
          model.OrderPreservingHashJoin(lc.rows, rc.rows, out_rows) +
          (combines ? model.Project(out_rows) : 0.0);
      if (in_memory_hash < sort_merge) {
        d.alg = PhysicalAlg::kOrderPreservingHashJoin;
        d.normalize = combines;
        return d;
      }
    }
    d.alg = PhysicalAlg::kMergeJoin;
    d.sort_left = !l_ok;
    d.sort_right = !r_ok;
    return d;
  }
  // Rule-based policy (pre-PR5 behavior, byte for byte).
  if (hash_allowed) {
    if (l_ok && options.assume_build_fits_memory) {
      // Probe side ordered and coded: the in-memory hash join preserves
      // both (Section 4.9), at the price of a resident build side. Only
      // when the caller vouches for the build fitting in memory -- the
      // operator aborts past its budget, so the robust default below
      // sorts the build side and merge joins instead.
      d.alg = PhysicalAlg::kOrderPreservingHashJoin;
      d.normalize = combines;
      return d;
    }
    if (!l_ok && (type == JoinType::kInner || type == JoinType::kLeftSemi)) {
      // No order anywhere: grace hash join. An order-interested parent is
      // deliberately NOT honored here -- it is cheaper to let the parent
      // absorb the disorder with an order-producing operator over the join
      // *output* (in-sort aggregation/distinct, Figure 5's early-
      // aggregation shape) than to sort both join *inputs*; the
      // cost-based policy revisits this per cardinality and memory
      // budget.
      d.alg = PhysicalAlg::kGraceHashJoin;
      d.normalize = combines;
      d.out = OrderProperty::Unsorted();
      return d;
    }
  }
  // Sort-based fallback: insert sorts exactly where order or codes are
  // missing, then merge join. This also serves a sorted probe over an
  // unsorted build when assume_build_fits_memory is off: only the build
  // side is sorted, the probe's order and codes are reused as-is, and
  // everything spills gracefully.
  d.alg = PhysicalAlg::kMergeJoin;
  d.sort_left = !l_ok;
  d.sort_right = !r_ok;
  return d;
}

struct UnaryDecision {
  PhysicalAlg alg;
  bool sort_child = false;
  OrderProperty out;
};

UnaryDecision DecideAggregate(const LogicalNode& node,
                              const OrderProperty& child,
                              const PlannerOptions& options) {
  UnaryDecision d;
  if (child.SortedOn(node.group_prefix)) {
    // Sorted input: group boundaries are one integer test per row when
    // codes are present, column comparisons otherwise (Figure 4's two
    // sides). Cheapest under either policy.
    d.alg = PhysicalAlg::kInStreamAggregate;
    d.out = OrderProperty::Sorted(node.group_prefix, child.has_ovc);
    return d;
  }
  if (node.required.interested() || options.prefer_sort_based) {
    // The parent can exploit order (or sort-based planning is forced):
    // aggregate inside the sort, collapsing duplicates at every stage
    // (Figure 5's sort-based plan). This gate survives the cost-based
    // policy as a robustness guard: producing the order here feeds the
    // parent codes for free, while a hash aggregate would force the
    // parent to re-sort output whose duplicate density the model can
    // only guess.
    d.alg = PhysicalAlg::kInSortAggregate;
    d.out = OrderProperty::Sorted(node.schema.key_arity(), /*ovc=*/true);
    return d;
  }
  if (options.cost_policy == CostPolicy::kCostBased) {
    // Order-indifferent parent: in-sort versus hash aggregation by
    // estimated cost under the memory budgets. In memory the hash
    // aggregate wins on constants; once the estimated group count
    // overflows hash_memory_rows the hash table starts spilling input
    // rows while duplicate collapse keeps the sort's spill volume bounded
    // by the group count -- the point where Figure 5's sort-based plan
    // takes over.
    const CostModel model = ModelFor(options);
    const CardEstimate cc = CardOf(*node.children[0], options.cost_constants);
    const double groups = cc.DistinctPrefix(node.group_prefix);
    const double in_sort =
        model.InSortAggregate(cc.rows, groups, node.group_prefix, groups,
                              node.schema.total_columns());
    const double hash =
        model.HashAggregate(cc.rows, groups, node.schema.total_columns());
    if (in_sort < hash) {
      d.alg = PhysicalAlg::kInSortAggregate;
      d.out = OrderProperty::Sorted(node.schema.key_arity(), /*ovc=*/true);
      return d;
    }
  }
  d.alg = PhysicalAlg::kHashAggregate;
  d.out = OrderProperty::Unsorted();
  return d;
}

UnaryDecision DecideDistinct(const LogicalNode& node,
                             const OrderProperty& child,
                             const PlannerOptions& options) {
  const Schema& schema = node.schema;
  UnaryDecision d;
  if (SortedWithCodesOn(child, schema)) {
    // Duplicates are rows whose code offset equals the arity: removal
    // without looking at a single column value (Section 4.4).
    d.alg = PhysicalAlg::kDedup;
    d.out = child;
    return d;
  }
  const bool keeps_payloads = schema.payload_columns() > 0;
  if (!keeps_payloads && !options.prefer_sort_based &&
      !node.required.interested()) {
    if (options.cost_policy == CostPolicy::kCostBased) {
      // Same open call as the aggregate above, over the full key.
      const CostModel model = ModelFor(options);
      const CardEstimate cc =
          CardOf(*node.children[0], options.cost_constants);
      const double groups = cc.DistinctPrefix(schema.key_arity());
      const double in_sort =
          model.InSortAggregate(cc.rows, groups, schema.key_arity(), groups,
                                schema.total_columns());
      const double hash =
          model.HashAggregate(cc.rows, groups, schema.total_columns());
      if (in_sort < hash) {
        d.alg = PhysicalAlg::kInSortDistinct;
        d.out = OrderProperty::Sorted(schema.key_arity(), /*ovc=*/true);
        return d;
      }
    }
    d.alg = PhysicalAlg::kHashDistinct;
    d.out = OrderProperty::Unsorted();
    return d;
  }
  if (!keeps_payloads) {
    // Key-only distinct folds into the sort itself: each run spills at
    // most one copy per key.
    d.alg = PhysicalAlg::kInSortDistinct;
    d.out = OrderProperty::Sorted(schema.key_arity(), /*ovc=*/true);
    return d;
  }
  // DISTINCT that carries payload columns keeps the first surviving row
  // per key; that is inherently order-based here: sort, then code-only
  // duplicate removal.
  d.alg = PhysicalAlg::kDedup;
  d.sort_child = true;
  d.out = OrderProperty::Sorted(schema.key_arity(), /*ovc=*/true);
  return d;
}

UnaryDecision DecideSort(const LogicalNode& node, const OrderProperty& child,
                         const PlannerOptions& options) {
  UnaryDecision d;
  if (SortedWithCodesOn(child, node.schema)) {
    // The planner's key property payoff: input already sorted and coded
    // means the sort disappears entirely -- zero cost beats any resort
    // under any policy.
    d.alg = PhysicalAlg::kElidedSort;
    d.out = child;
    return d;
  }
  d.alg = PhysicalAlg::kSort;
  d.out = SortOutput(node.schema, options.sort_config);
  return d;
}

UnaryDecision DecideTopK(const LogicalNode& node, const OrderProperty& child,
                         const PlannerOptions& options) {
  UnaryDecision d;
  d.alg = PhysicalAlg::kLimit;
  if (SortedWithCodesOn(child, node.schema)) {
    d.out = child;
  } else {
    d.sort_child = true;
    d.out = SortOutput(node.schema, options.sort_config);
  }
  return d;
}

/// Mirrors ProjectOperator's order-preservation rule: the output key
/// columns must be exactly the leading input key columns with matching
/// directions, and the input must be sorted with codes.
OrderProperty ProjectOutput(const LogicalNode& node,
                            const OrderProperty& child) {
  const Schema& in = node.children[0]->schema;
  const Schema& out = node.schema;
  if (!SortedWithCodesOn(child, in) || out.key_arity() > in.key_arity()) {
    return OrderProperty::Unsorted();
  }
  for (uint32_t i = 0; i < out.key_arity(); ++i) {
    if (node.mapping[i] != i || out.direction(i) != in.direction(i)) {
      return OrderProperty::Unsorted();
    }
  }
  return OrderProperty::Sorted(out.key_arity(), /*ovc=*/true);
}

OrderProperty FilterOutput(const OrderProperty& child) {
  // FilterOperator passes order through and re-derives codes by the filter
  // theorem when the child carries them.
  return OrderProperty::Sorted(child.sorted_prefix,
                               child.sorted() && child.has_ovc);
}

/// The single rule table behind order-property inference: the property
/// this node's chosen physical form delivers, given its children's
/// properties. Both the public recursive InferOrderProperty and the
/// planner's memoizing AnnotateInferred pass are thin wrappers over this,
/// so the two can never disagree.
OrderProperty NodeOutputProperty(const LogicalNode& node,
                                 const OrderProperty* child_props,
                                 const PlannerOptions& options) {
  switch (node.op) {
    case LogicalOp::kScan:
      return node.source.order;
    case LogicalOp::kFilter:
      return FilterOutput(child_props[0]);
    case LogicalOp::kProject:
      return ProjectOutput(node, child_props[0]);
    case LogicalOp::kJoin:
      return DecideJoin(node, child_props[0], child_props[1], options).out;
    case LogicalOp::kAggregate:
      return DecideAggregate(node, child_props[0], options).out;
    case LogicalOp::kDistinct:
      return DecideDistinct(node, child_props[0], options).out;
    case LogicalOp::kSetOp:
      return OrderProperty::Sorted(node.schema.key_arity(), /*ovc=*/true);
    case LogicalOp::kSort:
      return DecideSort(node, child_props[0], options).out;
    case LogicalOp::kTopK:
      return DecideTopK(node, child_props[0], options).out;
    case LogicalOp::kLimit:
      // Truncation preserves whatever the child delivers.
      return child_props[0];
  }
  return OrderProperty::Unsorted();
}

const char* SplitPolicyName(SplitExchange::Policy policy) {
  switch (policy) {
    case SplitExchange::Policy::kHashKey:
      return "hash";
    case SplitExchange::Policy::kRoundRobin:
      return "round-robin";
  }
  return "unknown";
}

/// A plan line's detail with the output limit a sort or in-sort aggregate
/// was handed, e.g. "group=1, top=10".
std::string WithTop(const std::string& detail, uint64_t limit) {
  if (limit == 0) return detail;
  const std::string top = "top=" + std::to_string(limit);
  return detail.empty() ? top : detail + ", " + top;
}

/// The row estimate of a line that stops after `limit` rows (0 = no
/// limit): min(limit, rows). Only estimates are capped; costs price the
/// whole input.
double WithinLimit(double rows, uint64_t limit) {
  return limit == 0 ? rows : std::min(rows, static_cast<double>(limit));
}

/// Appends `line` and its subtree to `out`, two spaces per depth.
void RenderLine(const std::vector<PhysicalPlan::Line>& lines, int line,
                int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += lines[line].label + " " + RenderEstimate(lines[line].est) + "\n";
  for (int child : lines[line].children) {
    RenderLine(lines, child, depth + 1, out);
  }
}

}  // namespace

std::string PhysicalPlan::ToString() const {
  std::string out;
  if (!lines_.empty()) {
    RenderLine(lines_, static_cast<int>(lines_.size()) - 1, 0, &out);
  }
  return out;
}

int PhysicalPlan::AddLine(PhysicalAlg alg, const std::string& detail,
                          const OrderProperty& prop, const NodeEstimate& est,
                          std::vector<int> children,
                          const std::string& table) {
  std::string label = PhysicalAlgName(alg);
  if (!detail.empty()) label += "(" + detail + ")";
  label += " [" + prop.ToString() + "]";
  const int line = static_cast<int>(lines_.size());
  if (profile_) {
    // Profile nodes and plan lines share their indices.
    const int node =
        profile_->AddNode(label, est.rows, est.cost, children, table);
    OVC_CHECK(node == line);
  }
  lines_.push_back(Line{alg, std::move(label), est, std::move(children)});
  return line;
}

void PhysicalPlan::SetLineRows(int line, double rows) {
  lines_[line].est.rows = rows;
  if (profile_) profile_->SetEstRows(line, rows);
}

OrderProperty InferOrderProperty(const LogicalNode& node,
                                 const PlannerOptions& options) {
  OrderProperty child_props[2];
  for (size_t i = 0; i < node.children.size() && i < 2; ++i) {
    child_props[i] = InferOrderProperty(*node.children[i], options);
  }
  return NodeOutputProperty(node, child_props, options);
}

namespace {

/// Bottom-up pass caching each node's decision-rule property in
/// `node->inferred` -- the memoized form of InferOrderProperty (one
/// NodeOutputProperty call per node for the whole tree).
OrderProperty AnnotateInferred(LogicalNode* node,
                               const PlannerOptions& options) {
  OrderProperty child_props[2];
  for (size_t i = 0; i < node->children.size() && i < 2; ++i) {
    child_props[i] = AnnotateInferred(node->children[i].get(), options);
  }
  node->inferred = NodeOutputProperty(*node, child_props, options);
  return node->inferred;
}

}  // namespace

Planner::Planner(QueryCounters* counters, TempFileManager* temp,
                 PlannerOptions options)
    : counters_(counters),
      temp_(temp),
      options_(std::move(options)),
      cost_model_(options_.cost_constants, options_.sort_config,
                  options_.hash_memory_rows) {}

PhysicalPlan Planner::Plan(LogicalNode* root) {
  InferOrderRequirements(root);
  // Cardinalities first: the decision rules behind the inferred-property
  // pass consult them under the cost-based policy.
  AnnotateCardinalities(root, options_.cost_constants);
  AnnotateInferred(root, options_);
  PhysicalPlan plan;
  if (options_.profile) plan.profile_ = std::make_unique<QueryProfile>();
  Built built = BuildNode(root, &plan, counters_);
  plan.root_ = built.op;
  plan.root_order_ = built.prop;
  if (plan.profile_) plan.profile_->SetRoot(built.line);
  // The operator contract (exec/operator.h) must agree with what the
  // decision rules predicted; a mismatch is a planner bug.
  OVC_DCHECK(built.op->sorted() == built.prop.sorted());
  OVC_DCHECK(built.op->has_ovc() == built.prop.has_ovc);
  return plan;
}

Planner::Meter Planner::NewMeter(PhysicalPlan* plan, int line,
                                 QueryCounters* fallback) {
  Meter m;
  QueryProfile* profile = plan->profile();
  if (profile == nullptr) {
    m.ctrs = fallback;
    return m;
  }
  m.slice = profile->AddSlice(line);
  m.ctrs = &m.slice->counters;
  return m;
}

Operator* Planner::Wrap(PhysicalPlan* plan, Operator* op, const Meter& m) {
  if (m.slice == nullptr) return op;
  return plan->Own(std::make_unique<ProfiledOperator>(op, m.slice));
}

Planner::Built Planner::InsertSort(Built child,
                                   const LogicalNode* logical_child,
                                   PhysicalPlan* plan, QueryCounters* ctrs,
                                   uint64_t limit) {
  // Planner-inserted sorts always feed code-consuming operators (merge
  // join, dedup, set operation), so the configured sort must deliver
  // codes; catch a code-free ablation config here, at plan time, instead
  // of deep inside a downstream operator's precondition check.
  OVC_CHECK(options_.sort_config.use_ovc ||
            options_.sort_config.naive_output_codes);
  const Schema& schema = child.op->schema();
  const CardEstimate cc = CardOf(*logical_child, options_.cost_constants);
  Built built;
  built.prop = SortOutput(schema, options_.sort_config);
  built.est.rows = WithinLimit(child.est.rows, limit);
  built.est.cost = child.est.cost + SortCostFor(cost_model_, cc, schema);
  built.line = plan->AddLine(PhysicalAlg::kSort, WithTop("inserted", limit),
                             built.prop, built.est, {child.line});
  const Meter m = NewMeter(plan, built.line, ctrs);
  built.op = Wrap(plan,
                  plan->Own(std::make_unique<SortOperator>(
                      child.op, m.ctrs, temp_, options_.sort_config, limit)),
                  m);
  ++plan->inserted_sorts_;
  return built;
}

Planner::Built Planner::BuildExchangeRegion(
    const std::vector<Built>& inputs,
    const std::vector<QueryCounters*>& input_counters,
    SplitExchange::Policy policy, uint32_t hash_prefix,
    const OrderProperty& part_prop, PhysicalAlg worker_alg,
    const std::string& detail, const OrderProperty& out_prop,
    double alg_cost, double out_rows, uint64_t top,
    QueryCounters* merge_counters, PhysicalPlan* plan,
    const std::function<std::unique_ptr<Operator>(
        const std::vector<Operator*>& parts, QueryCounters* wc)>&
        make_worker) {
  OVC_CHECK(inputs.size() == input_counters.size());
  // A split line's estimate is its input subtree's plus the routing; a
  // worker's sums its splits and adds its own algorithm; the merge line
  // (the region's root) adds the merging exchange.
  const uint32_t workers = options_.parallelism;
  NodeEstimate worker_est = {WithinLimit(out_rows, top * workers), 0.0};
  // A split pumps the shared input from whichever worker thread pulls
  // first, all under its pump mutex -- so it shares the region counters
  // its input subtree was built with (one instance per split, rolled up
  // after the run, never the consumer-side counters). Under profiling the
  // routing work is charged to the split line's slice 0 instead; the
  // per-partition pull slices added below meter rows and pull time, one
  // per consuming thread.
  std::vector<SplitExchange*> splits;
  std::vector<int> split_lines;
  for (size_t c = 0; c < inputs.size(); ++c) {
    NodeEstimate split_est = inputs[c].est;
    split_est.cost += cost_model_.SplitExchange(
        inputs[c].est.rows, policy != SplitExchange::Policy::kRoundRobin);
    worker_est.cost += split_est.cost;
    split_lines.push_back(plan->AddLine(PhysicalAlg::kSplitExchange,
                                        SplitPolicyName(policy), part_prop,
                                        split_est, {inputs[c].line}));
    const Meter routing =
        NewMeter(plan, split_lines.back(), input_counters[c]);
    splits.push_back(plan->OwnSplit(std::make_unique<SplitExchange>(
        inputs[c].op, workers, policy, routing.ctrs, hash_prefix)));
  }
  worker_est.cost += alg_cost;
  const int worker_line = plan->AddLine(
      worker_alg, detail.empty() ? "per worker" : detail + ", per worker",
      out_prop, worker_est, split_lines);
  std::vector<Operator*> worker_ops;
  for (uint32_t w = 0; w < workers; ++w) {
    std::vector<Operator*> parts;
    parts.reserve(splits.size());
    for (size_t c = 0; c < splits.size(); ++c) {
      // One slice per partition stream: each stream is pulled by exactly
      // one worker, and their row counts sum to the split's output.
      parts.push_back(Wrap(plan, splits[c]->partition(w),
                           NewMeter(plan, split_lines[c], nullptr)));
    }
    // The worker's stats slice doubles as its counters instance,
    // preserving the one-instance-per-producer-thread contract.
    Meter wm = NewMeter(plan, worker_line, nullptr);
    if (wm.ctrs == nullptr) wm.ctrs = plan->NewWorkerCounters();
    worker_ops.push_back(
        Wrap(plan, plan->Own(make_worker(parts, wm.ctrs)), wm));
  }
  if (workers > plan->parallel_workers_) plan->parallel_workers_ = workers;
  Built region;
  region.prop = out_prop;
  region.est = {out_rows,
                worker_est.cost + cost_model_.MergeExchange(out_rows, workers)};
  region.line = plan->AddLine(PhysicalAlg::kMergeExchange,
                              std::to_string(workers) + " workers", out_prop,
                              region.est, {worker_line});
  // The merge line's slice meters consumer-side pull time and output rows.
  const Meter mm = NewMeter(plan, region.line, merge_counters);
  region.op = Wrap(plan,
                   plan->Own(std::make_unique<MergeExchange>(
                       worker_ops, mm.ctrs, options_.exchange)),
                   mm);
  return region;
}

Planner::Built Planner::BuildNode(LogicalNode* node, PhysicalPlan* plan,
                                  QueryCounters* ctrs, uint64_t limit) {
  Built result;
  const CostModel& model = cost_model_;
  const double out_rows = node->card.rows;

  switch (node->op) {
    case LogicalOp::kScan: {
      result.prop = node->source.order;
      result.est = {out_rows, model.Scan(out_rows)};
      result.line =
          plan->AddLine(PhysicalAlg::kScan, node->source.name, result.prop,
                        result.est, {}, node->source.name);
      const Meter m = NewMeter(plan, result.line, ctrs);
      result.op = Wrap(plan, plan->Own(node->source.factory()), m);
      break;
    }

    case LogicalOp::kFilter: {
      Built child = BuildNode(node->children[0].get(), plan, ctrs);
      result.prop = FilterOutput(child.prop);
      result.est = {out_rows, child.est.cost +
                                  model.Filter(child.est.rows, out_rows)};
      result.line = plan->AddLine(PhysicalAlg::kFilter, "", result.prop,
                                  result.est, {child.line});
      const Meter m = NewMeter(plan, result.line, ctrs);
      result.op = Wrap(plan,
                       plan->Own(std::make_unique<FilterOperator>(
                           child.op, node->predicate, node->block_predicate)),
                       m);
      break;
    }

    case LogicalOp::kProject: {
      // One output row per input row, in input order: the limit passes.
      Built child = BuildNode(node->children[0].get(), plan, ctrs, limit);
      result.prop = ProjectOutput(*node, child.prop);
      // One row per child row: a child that stops at the limit caps it.
      result.est = {child.est.rows, child.est.cost + model.Project(out_rows)};
      result.line = plan->AddLine(PhysicalAlg::kProject, "", result.prop,
                                  result.est, {child.line});
      const Meter m = NewMeter(plan, result.line, ctrs);
      result.op = Wrap(plan,
                       plan->Own(std::make_unique<ProjectOperator>(
                           child.op, node->schema, node->mapping)),
                       m);
      break;
    }

    case LogicalOp::kJoin: {
      // Pre-decide on the *inferred* child properties (inference runs the
      // same decision rules, so it agrees with the post-build decision):
      // a parallel merge join's input subtrees -- including any inserted
      // sorts -- execute on producer threads under their split's pump
      // mutex, so each side must be built with its own region counters
      // rather than the consumer thread's.
      const bool pre_parallel_join =
          ParallelEnabled() &&
          DecideJoin(*node, node->children[0]->inferred,
                     node->children[1]->inferred, options_)
                  .alg == PhysicalAlg::kMergeJoin;
      QueryCounters* left_ctrs =
          pre_parallel_join ? plan->NewWorkerCounters() : ctrs;
      QueryCounters* right_ctrs =
          pre_parallel_join ? plan->NewWorkerCounters() : ctrs;
      Built left = BuildNode(node->children[0].get(), plan, left_ctrs);
      Built right = BuildNode(node->children[1].get(), plan, right_ctrs);
      JoinDecision d = DecideJoin(*node, left.prop, right.prop, options_);
      if (d.sort_left) {
        left = InsertSort(std::move(left), node->children[0].get(), plan,
                          left_ctrs);
      }
      if (d.sort_right) {
        right = InsertSort(std::move(right), node->children[1].get(), plan,
                           right_ctrs);
      }
      double alg_cost = 0;
      switch (d.alg) {
        case PhysicalAlg::kMergeJoin:
          alg_cost = model.MergeJoin(left.est.rows, right.est.rows, out_rows);
          break;
        case PhysicalAlg::kOrderPreservingHashJoin:
          alg_cost = model.OrderPreservingHashJoin(left.est.rows,
                                                   right.est.rows, out_rows);
          break;
        case PhysicalAlg::kGraceHashJoin:
          alg_cost = model.GraceHashJoin(
              left.est.rows, right.est.rows, out_rows,
              node->children[0]->schema.total_columns(),
              node->children[1]->schema.total_columns());
          break;
        default:
          OVC_CHECK(false);
      }
      const std::string join_type = JoinTypeName(node->join_type);
      const uint32_t key = node->children[0]->schema.key_arity();
      if (pre_parallel_join && d.alg == PhysicalAlg::kMergeJoin) {
        // Co-partitioned parallel merge join: hash-split both (sorted,
        // coded) inputs on the join key with the same hash, so each key
        // lands in the same partition index on both sides; one merge join
        // per partition pair; merge-exchange restores the single sorted
        // coded output stream.
        const JoinType type = node->join_type;
        result = BuildExchangeRegion(
            {left, right}, {left_ctrs, right_ctrs},
            SplitExchange::Policy::kHashKey, key,
            OrderProperty::Sorted(key, /*ovc=*/true), d.alg, join_type,
            d.out, alg_cost, out_rows, /*top=*/0, ctrs, plan,
            [type](const std::vector<Operator*>& parts, QueryCounters* wc) {
              return std::make_unique<MergeJoin>(parts[0], parts[1], type,
                                                 wc);
            });
        break;
      }
      // The normalize projection below (hash joins of combining types) is
      // part of this node's physical form: its cost is in the line's
      // estimate, and the line's meter wraps it, so the line's rows/time
      // cover the node's full physical form.
      const double normalize_cost =
          d.normalize ? model.Project(out_rows) : 0.0;
      result.prop = d.out;
      result.est = {out_rows, left.est.cost + right.est.cost + alg_cost +
                                  normalize_cost};
      result.line = plan->AddLine(d.alg, join_type, result.prop, result.est,
                                  {left.line, right.line});
      const Meter m = NewMeter(plan, result.line, ctrs);
      Operator* join = nullptr;
      switch (d.alg) {
        case PhysicalAlg::kMergeJoin:
          join = plan->Own(std::make_unique<MergeJoin>(
              left.op, right.op, node->join_type, m.ctrs));
          break;
        case PhysicalAlg::kOrderPreservingHashJoin:
          join = plan->Own(std::make_unique<OrderPreservingHashJoin>(
              left.op, right.op, key, ToHashType(node->join_type),
              options_.hash_memory_rows, m.ctrs));
          break;
        case PhysicalAlg::kGraceHashJoin:
          join = plan->Own(std::make_unique<GraceHashJoin>(
              left.op, right.op, key, ToHashType(node->join_type),
              options_.hash_memory_rows, m.ctrs, temp_, options_.fallback,
              options_.sort_config));
          break;
        default:
          OVC_CHECK(false);
      }
      if (d.normalize) {
        // Hash joins lay rows out as (probe keys, probe payloads, all
        // build columns, indicator); project back to the canonical merge
        // layout (key, left payloads, right payloads, indicator) so every
        // physical alternative yields identical rows.
        const Schema& ls = node->children[0]->schema;
        const Schema& rs = node->children[1]->schema;
        std::vector<uint32_t> mapping;
        for (uint32_t c = 0; c < key + ls.payload_columns(); ++c) {
          mapping.push_back(c);  // probe keys + probe payloads
        }
        const uint32_t build_base = key + ls.payload_columns();
        for (uint32_t c = 0; c < rs.payload_columns(); ++c) {
          mapping.push_back(build_base + key + c);  // build payloads
        }
        mapping.push_back(build_base + rs.total_columns());  // indicator
        join = plan->Own(
            std::make_unique<ProjectOperator>(join, node->schema, mapping));
      }
      result.op = Wrap(plan, join, m);
      break;
    }

    case LogicalOp::kAggregate: {
      // Parallel aggregation: hash-split on the grouping prefix co-locates
      // every group in exactly one partition, so per-worker aggregation is
      // exact and the merge-exchange output needs no re-aggregation. The
      // in-stream flavor additionally needs child codes (split partitions
      // keep them by the filter theorem; the merge consumes worker codes),
      // the in-sort flavor produces its own. Pre-decide on the inferred
      // child property: the child subtree of a split executes on producer
      // threads, so it is built with region counters.
      const auto parallel_agg_for = [&](const OrderProperty& child_prop) {
        if (!ParallelEnabled() || node->group_prefix < 1) return false;
        UnaryDecision p = DecideAggregate(*node, child_prop, options_);
        return (p.alg == PhysicalAlg::kInStreamAggregate &&
                child_prop.has_ovc) ||
               p.alg == PhysicalAlg::kInSortAggregate;
      };
      const bool pre_parallel_agg =
          parallel_agg_for(node->children[0]->inferred);
      QueryCounters* region_ctrs =
          pre_parallel_agg ? plan->NewWorkerCounters() : ctrs;
      Built child = BuildNode(node->children[0].get(), plan, region_ctrs);
      UnaryDecision d = DecideAggregate(*node, child.prop, options_);
      double alg_cost = 0;
      switch (d.alg) {
        case PhysicalAlg::kInStreamAggregate:
          alg_cost = model.InStreamAggregate(child.est.rows, out_rows,
                                             node->group_prefix,
                                             child.prop.has_ovc);
          break;
        case PhysicalAlg::kInSortAggregate:
          alg_cost = model.InSortAggregate(child.est.rows, out_rows,
                                           node->group_prefix, out_rows,
                                           node->schema.total_columns());
          break;
        case PhysicalAlg::kHashAggregate:
          alg_cost = model.HashAggregate(child.est.rows, out_rows,
                                         node->schema.total_columns());
          break;
        default:
          OVC_CHECK(false);
      }
      const uint32_t group_prefix = node->group_prefix;
      // Only the in-sort form can stop at the first `limit` groups; each
      // worker of the hash-split form owns whole groups, so each takes the
      // limit and the merging exchange keeps the smallest.
      const uint64_t top =
          d.alg == PhysicalAlg::kInSortAggregate ? limit : 0;
      const std::string group =
          WithTop("group=" + std::to_string(group_prefix), top);
      if (pre_parallel_agg && parallel_agg_for(child.prop)) {
        const std::vector<AggregateSpec>& aggregates = node->aggregates;
        const bool in_stream = d.alg == PhysicalAlg::kInStreamAggregate;
        TempFileManager* temp = temp_;
        const SortConfig& sort_config = options_.sort_config;
        result = BuildExchangeRegion(
            {child}, {region_ctrs}, SplitExchange::Policy::kHashKey,
            group_prefix, child.prop, d.alg, group, d.out, alg_cost,
            out_rows, top, ctrs, plan,
            [=](const std::vector<Operator*>& parts,
                QueryCounters* wc) -> std::unique_ptr<Operator> {
              if (in_stream) {
                return std::make_unique<InStreamAggregate>(
                    parts[0], group_prefix, aggregates, wc);
              }
              return std::make_unique<InSortAggregate>(
                  parts[0], group_prefix, aggregates, wc, temp, sort_config,
                  top);
            });
        break;
      }
      result.prop = d.out;
      result.est = {out_rows, child.est.cost + alg_cost};
      result.line = plan->AddLine(d.alg, group, result.prop, result.est,
                                  {child.line});
      const Meter m = NewMeter(plan, result.line, ctrs);
      switch (d.alg) {
        case PhysicalAlg::kInStreamAggregate: {
          InStreamAggregate::Options agg_options;
          agg_options.use_ovc_boundaries = child.prop.has_ovc;
          result.op = plan->Own(std::make_unique<InStreamAggregate>(
              child.op, group_prefix, node->aggregates, m.ctrs,
              agg_options));
          break;
        }
        case PhysicalAlg::kInSortAggregate:
          result.op = plan->Own(std::make_unique<InSortAggregate>(
              child.op, group_prefix, node->aggregates, m.ctrs, temp_,
              options_.sort_config, top));
          break;
        case PhysicalAlg::kHashAggregate:
          result.op = plan->Own(std::make_unique<HashAggregate>(
              child.op, group_prefix, node->aggregates,
              options_.hash_memory_rows, m.ctrs, temp_, options_.fallback,
              options_.sort_config));
          break;
        default:
          OVC_CHECK(false);
      }
      result.op = Wrap(plan, result.op, m);
      break;
    }

    case LogicalOp::kDistinct: {
      Built child = BuildNode(node->children[0].get(), plan, ctrs);
      UnaryDecision d = DecideDistinct(*node, child.prop, options_);
      if (d.sort_child) {
        child = InsertSort(std::move(child), node->children[0].get(), plan,
                           ctrs);
      }
      double alg_cost = 0;
      switch (d.alg) {
        case PhysicalAlg::kDedup:
          alg_cost = model.Dedup(child.est.rows);
          break;
        case PhysicalAlg::kInSortDistinct:
          alg_cost = model.InSortAggregate(child.est.rows, out_rows,
                                           node->schema.key_arity(),
                                           out_rows,
                                           node->schema.total_columns());
          break;
        case PhysicalAlg::kHashDistinct:
          alg_cost = model.HashAggregate(child.est.rows, out_rows,
                                         node->schema.total_columns());
          break;
        default:
          OVC_CHECK(false);
      }
      // In-sort duplicate removal stops at the first `limit` keys; the
      // others do not take a limit.
      const uint64_t top = d.alg == PhysicalAlg::kInSortDistinct ? limit : 0;
      result.prop = d.out;
      result.est = {out_rows, child.est.cost + alg_cost};
      result.line = plan->AddLine(d.alg, WithTop("", top), result.prop,
                                  result.est, {child.line});
      const Meter m = NewMeter(plan, result.line, ctrs);
      switch (d.alg) {
        case PhysicalAlg::kDedup:
          result.op = plan->Own(std::make_unique<DedupOperator>(child.op));
          break;
        case PhysicalAlg::kInSortDistinct:
          result.op = plan->Own(std::make_unique<InSortAggregate>(
              child.op, node->schema.key_arity(),
              std::vector<AggregateSpec>(), m.ctrs, temp_,
              options_.sort_config, top));
          break;
        case PhysicalAlg::kHashDistinct:
          result.op = plan->Own(std::make_unique<HashAggregate>(
              child.op, node->schema.key_arity(),
              std::vector<AggregateSpec>(), options_.hash_memory_rows,
              m.ctrs, temp_, options_.fallback, options_.sort_config));
          break;
        default:
          OVC_CHECK(false);
      }
      result.op = Wrap(plan, result.op, m);
      break;
    }

    case LogicalOp::kSetOp: {
      Built left = BuildNode(node->children[0].get(), plan, ctrs);
      Built right = BuildNode(node->children[1].get(), plan, ctrs);
      if (!SortedWithCodesOn(left.prop, node->children[0]->schema)) {
        left = InsertSort(std::move(left), node->children[0].get(), plan,
                          ctrs);
      }
      if (!SortedWithCodesOn(right.prop, node->children[1]->schema)) {
        right = InsertSort(std::move(right), node->children[1].get(), plan,
                           ctrs);
      }
      result.prop =
          OrderProperty::Sorted(node->schema.key_arity(), /*ovc=*/true);
      result.est = {out_rows,
                    left.est.cost + right.est.cost +
                        model.SetOperation(left.est.rows, right.est.rows,
                                           out_rows)};
      result.line = plan->AddLine(PhysicalAlg::kSetOperation,
                                  node->set_all ? "all" : "distinct",
                                  result.prop, result.est,
                                  {left.line, right.line});
      const Meter m = NewMeter(plan, result.line, ctrs);
      result.op = Wrap(plan,
                       plan->Own(std::make_unique<SetOperation>(
                           left.op, right.op, node->set_op, node->set_all,
                           m.ctrs)),
                       m);
      break;
    }

    case LogicalOp::kSort: {
      // The flagship parallel shape: round-robin split of the raw input,
      // partition-parallel run generation (one sort per worker, each the
      // sole producer of its codes), and a code-preserving merge-exchange
      // -- requires the configured sort to deliver output codes, which is
      // what the merging exchange consumes. Pre-decide on the inferred
      // child property so the subtree below the split is built with
      // region counters (it executes on producer threads).
      const auto parallel_sort_for = [&](const OrderProperty& child_prop) {
        if (!ParallelEnabled()) return false;
        UnaryDecision p = DecideSort(*node, child_prop, options_);
        return p.alg == PhysicalAlg::kSort && p.out.has_ovc;
      };
      const bool pre_parallel_sort =
          parallel_sort_for(node->children[0]->inferred);
      QueryCounters* region_ctrs =
          pre_parallel_sort ? plan->NewWorkerCounters() : ctrs;
      // An elided sort passes its input through, so the limit goes on down.
      const bool pre_elided =
          DecideSort(*node, node->children[0]->inferred, options_).alg ==
          PhysicalAlg::kElidedSort;
      Built child = BuildNode(node->children[0].get(), plan, region_ctrs,
                              pre_elided ? limit : 0);
      UnaryDecision d = DecideSort(*node, child.prop, options_);
      OVC_CHECK(!pre_elided || d.alg == PhysicalAlg::kElidedSort);
      if (d.alg == PhysicalAlg::kElidedSort) {
        // The logical sort vanishes: its plan line has no operator (and,
        // profiled, no stats slice -- it reports its child's actuals).
        ++plan->elided_sorts_;
        result = child;
        result.line =
            plan->AddLine(d.alg, "", d.out, result.est, {child.line});
        break;
      }
      ++plan->explicit_sorts_;
      const double sort_cost = SortCostFor(model, node->card, node->schema);
      if (pre_parallel_sort && parallel_sort_for(child.prop)) {
        // Each worker keeps its first `limit` rows; the merging exchange
        // takes the smallest of them.
        TempFileManager* temp = temp_;
        const SortConfig& sort_config = options_.sort_config;
        result = BuildExchangeRegion(
            {child}, {region_ctrs}, SplitExchange::Policy::kRoundRobin, 0,
            child.prop, d.alg, WithTop("", limit), d.out, sort_cost, out_rows,
            limit, ctrs, plan,
            [temp, &sort_config, limit](const std::vector<Operator*>& parts,
                                        QueryCounters* wc) {
              return std::make_unique<SortOperator>(parts[0], wc, temp,
                                                    sort_config, limit);
            });
        break;
      }
      result.prop = d.out;
      result.est = {out_rows, child.est.cost + sort_cost};
      result.line = plan->AddLine(d.alg, WithTop("", limit), result.prop,
                                  result.est, {child.line});
      const Meter m = NewMeter(plan, result.line, ctrs);
      result.op = Wrap(plan,
                       plan->Own(std::make_unique<SortOperator>(
                           child.op, m.ctrs, temp_, options_.sort_config,
                           limit)),
                       m);
      break;
    }

    case LogicalOp::kTopK:
    case LogicalOp::kLimit: {
      // TopK sorts its child unless it already arrives sorted with codes;
      // a bare limit (no order requested) truncates the child's stream in
      // whatever order it arrives, passing order and codes through. Either
      // way no more than k rows are read below, so k (or a smaller limit
      // from above) goes down to the sort that produces them.
      const uint64_t k =
          limit != 0 && limit < node->limit ? limit : node->limit;
      const bool sorts =
          node->op == LogicalOp::kTopK &&
          DecideTopK(*node, node->children[0]->inferred, options_).sort_child;
      Built child =
          BuildNode(node->children[0].get(), plan, ctrs, sorts ? 0 : k);
      result.prop = child.prop;
      if (node->op == LogicalOp::kTopK) {
        UnaryDecision d = DecideTopK(*node, child.prop, options_);
        OVC_CHECK(d.sort_child == sorts);
        if (d.sort_child) {
          child = InsertSort(std::move(child), node->children[0].get(), plan,
                             ctrs, k);
        }
        result.prop = d.out;
      }
      result.est = {out_rows, child.est.cost + model.Limit(out_rows)};
      result.line = plan->AddLine(PhysicalAlg::kLimit,
                                  "k=" + std::to_string(node->limit),
                                  result.prop, result.est, {child.line});
      const Meter m = NewMeter(plan, result.line, ctrs);
      result.op = Wrap(plan,
                       plan->Own(std::make_unique<LimitOperator>(
                           child.op, node->limit)),
                       m);
      break;
    }
  }

  if (limit != 0) {
    // One rule for every line built under a limit, whether or not its
    // operator takes it: the parent reads at most `limit` rows of it.
    result.est.rows = WithinLimit(result.est.rows, limit);
    plan->SetLineRows(result.line, result.est.rows);
  }
  OVC_DCHECK(result.op->sorted() == result.prop.sorted());
  OVC_DCHECK(result.op->has_ovc() == result.prop.has_ovc);
  return result;
}

}  // namespace ovc::plan
