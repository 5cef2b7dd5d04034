// Claim 1 core (Figures 1-3 machinery): tree-of-losers merge with
// offset-value coding vs the same tournament with full key comparisons,
// across merge fan-ins. Also prices the Section 5 duplicate bypass.

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "pq/loser_tree.h"
#include "pq/plain_loser_tree.h"

namespace ovc {
namespace {

constexpr uint64_t kTotalRows = 1000000;
constexpr uint32_t kArity = 8;
constexpr uint64_t kDistinct = 4;

struct Fixture {
  Schema schema{kArity};
  std::vector<std::unique_ptr<InMemoryRun>> runs;

  explicit Fixture(uint32_t fan_in) {
    for (uint32_t r = 0; r < fan_in; ++r) {
      RowBuffer t = bench::MakeTable(schema, kTotalRows / fan_in, kDistinct,
                                     /*seed=*/100 + r, /*sorted=*/true);
      runs.push_back(
          std::make_unique<InMemoryRun>(bench::RunFromSorted(schema, t)));
    }
  }
};

Fixture& GetFixture(uint32_t fan_in) {
  static std::map<uint32_t, std::unique_ptr<Fixture>>* cache =
      new std::map<uint32_t, std::unique_ptr<Fixture>>();
  auto it = cache->find(fan_in);
  if (it == cache->end()) {
    it = cache->emplace(fan_in, std::make_unique<Fixture>(fan_in)).first;
  }
  return *it->second;
}

void OvcMerge(benchmark::State& state) {
  const uint32_t fan_in = static_cast<uint32_t>(state.range(0));
  Fixture& fixture = GetFixture(fan_in);
  OvcCodec codec(&fixture.schema);
  QueryCounters counters;
  KeyComparator comparator(&fixture.schema, &counters);
  for (auto _ : state) {
    std::vector<std::unique_ptr<InMemoryRunSource>> sources;
    std::vector<InMemoryRunSource*> raw;
    for (auto& run : fixture.runs) {
      sources.push_back(std::make_unique<InMemoryRunSource>(run.get()));
      raw.push_back(sources.back().get());
    }
    OvcMergerT<InMemoryRunSource> merger(&codec, &comparator, raw);
    RowRef ref;
    uint64_t n = 0;
    while (merger.Next(&ref)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * kTotalRows);
  state.counters["column_cmp_per_row"] =
      static_cast<double>(counters.column_comparisons) /
      (static_cast<double>(state.iterations()) * kTotalRows);
  state.counters["bypass_per_iter"] = static_cast<double>(
      counters.merge_bypass_rows / std::max<uint64_t>(1, state.iterations()));
}

void PlainMerge(benchmark::State& state) {
  const uint32_t fan_in = static_cast<uint32_t>(state.range(0));
  Fixture& fixture = GetFixture(fan_in);
  OvcCodec codec(&fixture.schema);
  QueryCounters counters;
  KeyComparator comparator(&fixture.schema, &counters);
  for (auto _ : state) {
    std::vector<std::unique_ptr<InMemoryRunSource>> sources;
    std::vector<InMemoryRunSource*> raw;
    for (auto& run : fixture.runs) {
      sources.push_back(std::make_unique<InMemoryRunSource>(run.get()));
      raw.push_back(sources.back().get());
    }
    PlainMergerT<InMemoryRunSource> merger(&codec, &comparator, raw);
    RowRef ref;
    uint64_t n = 0;
    while (merger.Next(&ref)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * kTotalRows);
  state.counters["column_cmp_per_row"] =
      static_cast<double>(counters.column_comparisons) /
      (static_cast<double>(state.iterations()) * kTotalRows);
}

BENCHMARK(OvcMerge)->Arg(2)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(PlainMerge)->Arg(2)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ovc
