// Table 2 operational form: comparisons of keys coded relative to a shared
// base. Most comparisons are decided by the codes alone (cases 1 and 2);
// only equal codes touch column values (case 3). Compared against full
// row comparisons over the same pairs.

#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/ovc_compare.h"
#include "core/ovc_reference.h"

namespace ovc {
namespace {

constexpr uint64_t kPairs = 500000;
constexpr uint32_t kArity = 4;
constexpr uint64_t kDistinct = 8;

struct PairSet {
  Schema schema{kArity};
  RowBuffer rows{kArity};
  std::vector<Ovc> codes;       // row i relative to row i-1
  std::vector<Ovc> skip_codes;  // row i relative to row i-2 (the shared base)
};

const PairSet& Pairs() {
  static const PairSet* set = [] {
    auto* s = new PairSet();
    s->rows = bench::MakeTable(s->schema, kPairs + 2, kDistinct, /*seed=*/5,
                               /*sorted=*/true);
    OvcCodec codec(&s->schema);
    KeyComparator cmp(&s->schema, nullptr);
    s->codes.push_back(codec.MakeInitial(s->rows.row(0)));
    s->skip_codes.push_back(0);
    s->skip_codes.push_back(0);
    for (size_t i = 1; i < s->rows.size(); ++i) {
      s->codes.push_back(codec.MakeFromRow(
          s->rows.row(i),
          cmp.FirstDifference(s->rows.row(i - 1), s->rows.row(i), 0)));
      if (i >= 2) {
        s->skip_codes.push_back(reference::AscendingOvc(
            codec, s->rows.row(i - 2), s->rows.row(i)));
      }
    }
    return s;
  }();
  return *set;
}

void CodedComparisons(benchmark::State& state) {
  const PairSet& set = Pairs();
  Schema schema(kArity);
  OvcCodec codec(&schema);
  QueryCounters counters;
  KeyComparator cmp(&schema, &counters);
  for (auto _ : state) {
    CodeComparisonTally tally(&counters);
    int64_t acc = 0;
    // Compare consecutive pairs (B, C) relative to their shared base A: the
    // exact situation of Table 2.
    for (size_t i = 2; i < set.rows.size(); ++i) {
      Ovc cb = set.codes[i - 1];   // B relative to A
      Ovc cc = set.skip_codes[i];  // C relative to A
      acc += CompareWithOvc(codec, cmp, set.rows.row(i - 1), &cb,
                            set.rows.row(i), &cc, tally.count());
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kPairs);
  state.counters["column_cmp_per_iter"] = static_cast<double>(
      counters.column_comparisons / std::max<uint64_t>(1, state.iterations()));
}

void FullComparisons(benchmark::State& state) {
  const PairSet& set = Pairs();
  Schema schema(kArity);
  QueryCounters counters;
  KeyComparator cmp(&schema, &counters);
  for (auto _ : state) {
    int64_t acc = 0;
    for (size_t i = 2; i < set.rows.size(); ++i) {
      acc += cmp.Compare(set.rows.row(i - 1), set.rows.row(i));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * kPairs);
  state.counters["column_cmp_per_iter"] = static_cast<double>(
      counters.column_comparisons / std::max<uint64_t>(1, state.iterations()));
}

BENCHMARK(CodedComparisons)->Unit(benchmark::kMillisecond);
BENCHMARK(FullComparisons)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ovc
