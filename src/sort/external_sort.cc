#include "sort/external_sort.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/trace.h"

namespace ovc {

namespace {

/// RunSink writing to an in-memory run.
class MemoryRunSink : public RunSink {
 public:
  explicit MemoryRunSink(InMemoryRun* run) : run_(run) {}
  void Accept(const uint64_t* row, Ovc code) override {
    run_->Append(row, code);
  }

 private:
  InMemoryRun* run_;
};

/// RunSink writing to a run file. Write errors are latched rather than
/// aborted on (RunSink::Accept cannot return a Status); the caller checks
/// status() after the pass.
class FileRunSink : public RunSink {
 public:
  explicit FileRunSink(RunFileWriter* writer) : writer_(writer) {}
  void Accept(const uint64_t* row, Ovc code) override {
    if (!status_.ok()) return;
    status_ = writer_->Append(row, code);
  }
  const Status& status() const { return status_; }

 private:
  RunFileWriter* writer_;
  Status status_ = Status::Ok();
};

/// Opens a run file at `path`, lets `fill` write it through a sink, and
/// closes it into `run`.
template <typename Fill>
Status WriteRunFile(const Schema* schema, QueryCounters* counters,
                    const std::string& path, SpilledRun* run, Fill fill) {
  RunFileWriter writer(schema, counters);
  OVC_RETURN_IF_ERROR(writer.Open(path));
  FileRunSink sink(&writer);
  fill(&sink);
  OVC_RETURN_IF_ERROR(sink.status());
  OVC_RETURN_IF_ERROR(writer.Close());
  *run = SpilledRun{path, writer.rows()};
  return Status::Ok();
}

/// Sorts `rows` into `sink` (see SortToRunFile).
void SortRows(const Schema* schema, QueryCounters* counters,
              const SortConfig& config, const RowBuffer& rows,
              const std::vector<StateMergeFn>* merge_fns, RunSink* sink,
              RunCut* cut) {
  OVC_TRACE_SPAN("sort.run_generation");
  BatchSorter sorter(schema, counters, config.run_gen, config.mini_run_rows,
                     config.use_ovc, config.naive_output_codes);
  EmitMaybeCollapsed(schema, merge_fns, sink,
                     [&](RunSink* s) { sorter.Sort(rows, s, cut); });
}

}  // namespace

RunFileMerge::RunFileMerge(const Schema* schema, QueryCounters* counters,
                           TempFileManager* error_sink,
                           const SortConfig& config,
                           const std::vector<StateMergeFn>* merge_fns,
                           uint64_t limit)
    : schema_(schema),
      codec_(schema),
      comparator_(schema, counters),
      error_sink_(error_sink),
      config_(config),
      merge_fns_(merge_fns),
      cut_(schema, limit, merge_fns != nullptr) {
  OVC_CHECK(merge_fns_ == nullptr || config_.use_ovc);
}

RunFileMerge::~RunFileMerge() = default;

Status RunFileMerge::Open(const std::vector<SpilledRun>& runs) {
  if (runs.empty()) return Status::Ok();
  std::vector<RunFileReader*> sources;
  for (const SpilledRun& run : runs) {
    readers_.push_back(std::make_unique<RunFileReader>(schema_, error_sink_));
    OVC_RETURN_IF_ERROR(readers_.back()->Open(run.path));
    sources.push_back(readers_.back().get());
  }
  if (config_.use_ovc) {
    OvcMergerT<RunFileReader>::Options options;
    options.duplicate_bypass = config_.duplicate_bypass;
    merger_ = std::make_unique<OvcMergerT<RunFileReader>>(
        &codec_, &comparator_, sources, options);
  } else {
    PlainMergerT<RunFileReader>::Options options;
    options.derive_output_codes = config_.naive_output_codes;
    plain_merger_ = std::make_unique<PlainMergerT<RunFileReader>>(
        &codec_, &comparator_, sources, options);
  }
  if (merge_fns_ != nullptr) {
    collapser_ =
        std::make_unique<CollapsingSink>(schema_, *merge_fns_, &block_sink_);
  }
  return Status::Ok();
}

bool RunFileMerge::Pull(RowRef* out) {
  if (cut_.done()) return false;
  bool more = false;
  if (merger_ != nullptr) {
    more = merger_->Next(out);
  } else if (plain_merger_ != nullptr) {
    more = plain_merger_->Next(out);
  }
  return more && cut_.Admit(out->cols, out->ovc);
}

bool RunFileMerge::Next(RowRef* out) {
  OVC_CHECK(merge_fns_ == nullptr);
  return Pull(out);
}

uint32_t RunFileMerge::NextBlock(RowBlock* out) {
  if (merger_ != nullptr && collapser_ == nullptr && cut_.limit() == 0) {
    return merger_->NextBlock(out);
  }
  out->Clear();
  RowRef ref;
  if (collapser_ != nullptr) {
    // Each merged row adds at most one (the previous group's) row to `out`,
    // so stop at a full block; the group in progress stays pending in the
    // collapser for the next call.
    block_sink_.block = out;
    while (!out->full() && Pull(&ref)) {
      collapser_->Accept(ref.cols, ref.ovc);
    }
    // The merge is exhausted or cut: the pending group is complete.
    if (!out->full()) collapser_->Flush();
  } else {
    while (!out->full() && Pull(&ref)) {
      out->Append(ref.cols, ref.ovc);
    }
  }
  return out->size();
}

void RunFileMerge::Drain(RunSink* sink) {
  EmitMaybeCollapsed(schema_, merge_fns_, sink, [this](RunSink* s) {
    RowRef ref;
    while (Pull(&ref)) {
      s->Accept(ref.cols,
                merger_ != nullptr ? ref.ovc : codec_.MakeFromRow(ref.cols, 0));
    }
  });
}

Status SortToRunFile(const Schema* schema, QueryCounters* counters,
                     const SortConfig& config, const RowBuffer& rows,
                     const std::vector<StateMergeFn>* merge_fns,
                     const std::string& path, SpilledRun* run, RunCut* cut) {
  return WriteRunFile(schema, counters, path, run, [&](RunSink* sink) {
    SortRows(schema, counters, config, rows, merge_fns, sink, cut);
  });
}

Status MergeToRunFile(const Schema* schema, QueryCounters* counters,
                      TempFileManager* error_sink, const SortConfig& config,
                      const std::vector<SpilledRun>& runs,
                      const std::vector<StateMergeFn>* merge_fns,
                      const std::string& path, SpilledRun* run,
                      uint64_t limit) {
  SortConfig merge_config = config;
  merge_config.naive_output_codes = false;
  RunFileMerge merge(schema, counters, error_sink, merge_config, merge_fns,
                     limit);
  OVC_RETURN_IF_ERROR(merge.Open(runs));
  return WriteRunFile(schema, counters, path, run,
                      [&](RunSink* sink) { merge.Drain(sink); });
}

ExternalSort::ExternalSort(const Schema* schema, QueryCounters* counters,
                           TempFileManager* temp, SortConfig config,
                           const std::vector<StateMergeFn>* merge_fns,
                           uint64_t limit)
    : schema_(schema),
      counters_(counters),
      temp_(temp),
      config_(config),
      merge_fns_(merge_fns),
      limit_(limit),
      comparator_(schema, counters),
      buffer_(schema->total_columns()) {
  OVC_CHECK(config_.memory_rows >= 2);
  OVC_CHECK(config_.fan_in >= 2);
  if (merge_fns_ != nullptr) {
    OVC_CHECK(merge_fns_->size() == schema->payload_columns());
    config_.use_ovc = true;
    config_.naive_output_codes = false;
    config_.replacement_selection = false;
  }
  if (config_.replacement_selection) {
    rs_ = std::make_unique<ReplacementSelection>(
        schema_, counters_, temp_,
        static_cast<uint32_t>(config_.memory_rows));
  }
}

ExternalSort::~ExternalSort() = default;

void ExternalSort::Add(const uint64_t* row) {
  OVC_CHECK(!finished_);
  if (!deferred_error_.ok()) return;  // intake degraded; Finish() reports
  if (rs_ != nullptr) {
    DeferError(rs_->Add(row));
    return;
  }
  if (!cutoff_.empty()) {
    // Past a cut run: a row after the cutoff cannot reach the output (nor
    // can a plain sort's tie; a collapsing sort's tie is the k-th group).
    const int cmp = comparator_.Compare(row, cutoff_.data());
    if (cmp > 0 || (cmp == 0 && merge_fns_ == nullptr)) return;
  }
  buffer_.AppendRow(row);
  if (buffer_.size() >= config_.memory_rows) {
    DeferError(SpillBuffer());
  }
}

void ExternalSort::AddBlock(const RowBlock& block) {
  OVC_CHECK(!finished_);
  if (!deferred_error_.ok()) return;
  if (rs_ != nullptr) {
    // Replacement selection is inherently row-at-a-time (each row plays one
    // tournament match on entry).
    for (uint32_t i = 0; i < block.size(); ++i) {
      DeferError(rs_->Add(block.row(i)));
      if (!deferred_error_.ok()) return;
    }
    return;
  }
  uint32_t taken = 0;
  while (taken < block.size() && cutoff_.empty()) {
    const uint64_t room = config_.memory_rows - buffer_.size();
    const uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(room, block.size() - taken));
    buffer_.AppendRows(block.row(taken), n);
    taken += n;
    if (buffer_.size() >= config_.memory_rows) {
      DeferError(SpillBuffer());
      if (!deferred_error_.ok()) return;
    }
  }
  // Past a cut run, each row passes the cutoff test on its own.
  for (; taken < block.size(); ++taken) Add(block.row(taken));
}

void ExternalSort::DeferError(const Status& status) {
  if (status.ok() || !deferred_error_.ok()) return;
  // First spill error wins; stop buffering (later Adds are dropped, which
  // is fine -- the query is already failed and Finish() will say so).
  deferred_error_ = status;
  buffer_.Clear();
}

Status ExternalSort::SpillBuffer() {
  if (buffer_.empty()) return Status::Ok();
  OVC_TRACE_SPAN("sort.spill_run");
  SpilledRun run;
  RunCut cut = NewCut();
  OVC_RETURN_IF_ERROR(SortToRunFile(schema_, counters_, config_, buffer_,
                                    merge_fns_, temp_->NewPath("run"), &run,
                                    &cut));
  const std::vector<uint64_t>& kth = cut.kth();
  if (!kth.empty() &&
      (cutoff_.empty() || comparator_.Compare(kth.data(), cutoff_.data()) < 0)) {
    cutoff_ = kth;
  }
  runs_.push_back(run);
  ++spilled_runs_;
  OVC_METRIC_COUNTER("sort.runs_spilled",
                     "Sorted runs written to temporary storage")
      .Increment();
  buffer_.Clear();
  return Status::Ok();
}

Status ExternalSort::Finish() {
  OVC_CHECK(!finished_);
  finished_ = true;
  // A spill error during intake fails the whole sort; Next()/NextBlock()
  // then serve nothing (no merge is prepared).
  if (!deferred_error_.ok()) return deferred_error_;

  if (rs_ != nullptr) {
    OVC_RETURN_IF_ERROR(rs_->Finish());
    std::vector<SpilledRun> runs = rs_->TakeRuns();
    spilled_runs_ = runs.size();
    if (runs.empty()) return Status::Ok();  // empty input
    return PrepareMerge(std::move(runs));
  }

  if (runs_.empty()) {
    // Input fits in memory: sort and serve without spilling.
    memory_run_ = std::make_unique<InMemoryRun>(schema_->total_columns());
    // A collapsed run holds one row per group, usually far fewer than the
    // input; let it grow instead.
    if (merge_fns_ == nullptr) {
      memory_run_->Reserve(limit_ == 0 ? buffer_.size()
                                       : std::min<uint64_t>(limit_,
                                                            buffer_.size()));
    }
    MemoryRunSink sink(memory_run_.get());
    RunCut cut = NewCut();
    SortRows(schema_, counters_, config_, buffer_, merge_fns_, &sink, &cut);
    memory_source_ =
        std::make_unique<InMemoryRunSource>(memory_run_.get());
    return Status::Ok();
  }

  OVC_RETURN_IF_ERROR(SpillBuffer());
  return PrepareMerge(std::move(runs_));
}

Status ExternalSort::PrepareMerge(std::vector<SpilledRun> runs) {
  // Cascade intermediate merges while the run count exceeds the fan-in.
  while (runs.size() > config_.fan_in) {
    OVC_TRACE_SPAN("sort.merge_level");
    ++merge_levels_;
    OVC_METRIC_COUNTER("sort.merge_levels",
                       "Intermediate merge levels run by external sorts")
        .Increment();
    std::vector<SpilledRun> next_level;
    for (size_t begin = 0; begin < runs.size(); begin += config_.fan_in) {
      const size_t end = std::min<size_t>(begin + config_.fan_in, runs.size());
      if (end - begin == 1) {
        next_level.push_back(runs[begin]);
        continue;
      }
      const std::vector<SpilledRun> group(runs.begin() + begin,
                                          runs.begin() + end);
      SpilledRun merged;
      OVC_RETURN_IF_ERROR(MergeToRunFile(schema_, counters_, temp_, config_,
                                         group, merge_fns_,
                                         temp_->NewPath("merge"), &merged,
                                         limit_));
      next_level.push_back(merged);
    }
    runs = std::move(next_level);
  }

  // Final merge, served incrementally through Next()/NextBlock().
  merge_ = std::make_unique<RunFileMerge>(schema_, counters_, temp_, config_,
                                          merge_fns_, limit_);
  return merge_->Open(runs);
}

bool ExternalSort::Next(RowRef* out) {
  OVC_CHECK(finished_);
  if (memory_source_ != nullptr) {
    const uint64_t* row = nullptr;
    Ovc code = 0;
    if (!memory_source_->Next(&row, &code)) return false;
    out->cols = row;
    out->ovc = code;
    return true;
  }
  if (merge_ != nullptr) return merge_->Next(out);
  return false;  // empty input
}

uint32_t ExternalSort::NextBlock(RowBlock* out) {
  OVC_CHECK(finished_);
  out->Clear();
  if (memory_source_ != nullptr) {
    // In-memory result: serve contiguous spans straight from the run,
    // zero-copy (the run is stable until the sort is destroyed).
    const uint64_t* rows = nullptr;
    const Ovc* codes = nullptr;
    const uint32_t n = memory_source_->NextSpan(&rows, &codes,
                                                out->capacity());
    if (n == 0) return 0;
    out->RefContiguous(rows, codes, n);
    return n;
  }
  if (merge_ != nullptr) return merge_->NextBlock(out);
  return 0;  // empty input
}

}  // namespace ovc
