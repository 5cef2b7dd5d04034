#include "exec/hash_join.h"

#include <cstring>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "sort/run_file.h"

namespace ovc {

uint64_t HashKeyPrefix(const uint64_t* row, uint32_t columns,
                       QueryCounters* counters) {
  if (counters != nullptr) ++counters->hash_computations;
  // SplitMix64-style mixing over the key prefix: "hash-based query
  // execution requires accessing N x K column values just for the hash
  // function" -- every column is touched.
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (uint32_t c = 0; c < columns; ++c) {
    uint64_t z = row[c] + 0x9e3779b97f4a7c15ULL + h;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
  return h;
}

bool KeysEqual(const uint64_t* a, const uint64_t* b, uint32_t columns,
               QueryCounters* counters) {
  for (uint32_t c = 0; c < columns; ++c) {
    if (counters != nullptr) ++counters->column_comparisons;
    if (a[c] != b[c]) return false;
  }
  return true;
}

PartitionWriters::PartitionWriters(const Schema* schema, uint32_t key_columns,
                                   const char* tag, QueryCounters* counters,
                                   TempFileManager* temp)
    : schema_(schema),
      key_columns_(key_columns),
      tag_(tag),
      counters_(counters),
      temp_(temp),
      codec_(schema) {}

bool PartitionWriters::OpenAll() {
  while (ok() && opened() < kHashPartitions) {
    paths_.push_back(temp_->NewPath(tag_));
    writers_.push_back(std::make_unique<RunFileWriter>(schema_, counters_));
    Record(writers_.back()->Open(paths_.back()));
  }
  return ok();
}

bool PartitionWriters::Append(const uint64_t* row, uint32_t level) {
  if (!ok() || (writers_.empty() && !OpenAll())) return false;
  OVC_DCHECK(opened() == kHashPartitions);
  uint64_t h = HashKeyPrefix(row, key_columns_, counters_);
  h ^= 0x9e3779b97f4a7c15ULL * (level + 1);
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return Record(writers_[h % kHashPartitions]->Append(
      row, codec_.MakeFromRow(row, 0)));
}

bool PartitionWriters::Close(uint32_t p) {
  return ok() && Record(writers_[p]->Close());
}

uint64_t PartitionWriters::total_rows() const {
  uint64_t rows = 0;
  for (const std::unique_ptr<RunFileWriter>& w : writers_) rows += w->rows();
  return rows;
}

bool PartitionWriters::Record(Status status) {
  if (ok()) status_ = std::move(status);
  return ok();
}

namespace {

/// Output layout of a hash join: the probe rows for semi and anti joins;
/// otherwise probe keys, probe payloads, all build columns (as payload)
/// and the match indicator.
Schema HashJoinOutputSchema(const Schema& probe, const Schema& build,
                            JoinTypeHash type) {
  if (type == JoinTypeHash::kLeftSemi || type == JoinTypeHash::kLeftAnti) {
    return probe;
  }
  std::vector<SortDirection> dirs;
  for (uint32_t c = 0; c < probe.key_arity(); ++c) {
    dirs.push_back(probe.direction(c));
  }
  return Schema(std::move(dirs),
                probe.payload_columns() + build.total_columns() + 1);
}

/// Operator facade over a finished ExternalSort: a sorted, coded stream
/// the MergeJoin continuation can pull. The schema reinterprets the
/// sorted rows with the join key as the full key prefix.
class SortedSortView final : public Operator {
 public:
  SortedSortView(const Schema* schema, ExternalSort* sort)
      : schema_(schema), sort_(sort) {}
  void Open() override {}
  uint32_t NextBatch(RowBlock* out) override { return sort_->NextBlock(out); }
  void Close() override {}
  const Schema& schema() const override { return *schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  const Schema* schema_;
  ExternalSort* sort_;
};

/// The join-key-prefix reinterpretation of `schema`: the first
/// `bind_columns` directions of the probe side become the whole sort key,
/// everything else rides along as payload. Row layout is unchanged.
Schema BindPrefixSchema(const Schema& probe, uint32_t total_columns,
                        uint32_t bind_columns) {
  std::vector<SortDirection> dirs;
  for (uint32_t c = 0; c < bind_columns; ++c) dirs.push_back(probe.direction(c));
  return Schema(std::move(dirs), total_columns - bind_columns);
}

}  // namespace

OrderPreservingHashJoin::OrderPreservingHashJoin(
    Operator* probe, Operator* build, uint32_t bind_columns, JoinTypeHash type,
    uint64_t memory_rows, QueryCounters* counters)
    : probe_(probe),
      build_(build),
      bind_columns_(bind_columns),
      type_(type),
      memory_rows_(memory_rows),
      output_schema_(
          HashJoinOutputSchema(probe->schema(), build->schema(), type)),
      probe_codec_(&probe->schema()),
      counters_(counters),
      build_rows_(build->schema().total_columns()) {
  OVC_CHECK(probe->sorted() && probe->has_ovc());
  OVC_CHECK(bind_columns >= 1);
  OVC_CHECK(bind_columns <= probe->schema().key_arity());
  OVC_CHECK(bind_columns <= build->schema().key_arity());
}

void OrderPreservingHashJoin::BuildTable() {
  BlockReader build(build_);
  build.Open();
  RowRef ref;
  while (build.Next(&ref)) {
    // Section 4.9's precondition: the build side must fit in memory.
    OVC_CHECK(build_rows_.size() < memory_rows_);
    table_.emplace(HashKeyPrefix(ref.cols, bind_columns_, counters_),
                   static_cast<uint32_t>(build_rows_.size()));
    build_rows_.AppendRow(ref.cols);
  }
  build.Close();
}

void OrderPreservingHashJoin::Open() {
  build_rows_.Clear();
  table_.clear();
  BuildTable();
  probe_.Open();
  acc_.Reset();
  emitting_ = false;
}

void OrderPreservingHashJoin::EmitCombined(const uint64_t* probe_row,
                                           const uint64_t* build_row, Ovc code,
                                           RowBlock* out) {
  const Schema& ps = probe_.schema();
  const Schema& bs = build_->schema();
  uint64_t* dst = out->AppendRow(code);
  std::memcpy(dst, probe_row, ps.total_columns() * sizeof(uint64_t));
  uint64_t* p = dst + ps.total_columns();
  if (build_row != nullptr) {
    std::memcpy(p, build_row, bs.total_columns() * sizeof(uint64_t));
  } else {
    std::memset(p, 0, bs.total_columns() * sizeof(uint64_t));
  }
  p += bs.total_columns();
  *p = build_row != nullptr ? 3 : 1;
}

uint32_t OrderPreservingHashJoin::NextBatch(RowBlock* out) {
  return FillBlock(out, [this](RowBlock* block) { return AppendNext(block); });
}

bool OrderPreservingHashJoin::AppendNext(RowBlock* out) {
  while (true) {
    // pref_ stays valid while its matches are emitted: the probe is not
    // pulled again until they are all out.
    if (emitting_) {
      if (match_idx_ < matches_.size()) {
        const Ovc code = match_idx_ == 0 ? probe_code_
                                         : probe_codec_.DuplicateCode();
        EmitCombined(pref_.cols, build_rows_.row(matches_[match_idx_]), code,
                     out);
        ++match_idx_;
        return true;
      }
      emitting_ = false;
    }

    if (!probe_.Next(&pref_)) return false;

    // Probe the table: gather matching build rows.
    matches_.clear();
    const uint64_t h = HashKeyPrefix(pref_.cols, bind_columns_, counters_);
    auto range = table_.equal_range(h);
    for (auto it = range.first; it != range.second; ++it) {
      if (KeysEqual(pref_.cols, build_rows_.row(it->second), bind_columns_,
                    counters_)) {
        matches_.push_back(it->second);
      }
    }

    const bool match = !matches_.empty();
    switch (type_) {
      case JoinTypeHash::kLeftSemi:
      case JoinTypeHash::kLeftAnti: {
        const bool keep = (type_ == JoinTypeHash::kLeftSemi) == match;
        if (!keep) {
          acc_.Absorb(pref_.ovc);
          continue;
        }
        out->Append(pref_.cols, acc_.Combine(pref_.ovc));
        acc_.Reset();
        return true;
      }
      case JoinTypeHash::kInner: {
        if (!match) {
          acc_.Absorb(pref_.ovc);
          continue;
        }
        break;
      }
      case JoinTypeHash::kLeftOuter:
        break;
    }

    // Inner with matches, or left outer.
    probe_code_ = acc_.Combine(pref_.ovc);
    acc_.Reset();
    if (!match) {
      // Left outer, no match: single null-padded row.
      EmitCombined(pref_.cols, nullptr, probe_code_, out);
      return true;
    }
    match_idx_ = 0;
    emitting_ = true;
  }
}

void OrderPreservingHashJoin::Close() { probe_.Close(); }

GraceHashJoin::GraceHashJoin(Operator* probe, Operator* build,
                             uint32_t bind_columns, JoinTypeHash type,
                             uint64_t memory_rows, QueryCounters* counters,
                             TempFileManager* temp, FallbackPolicy fallback,
                             SortConfig sort_config)
    : probe_(probe),
      build_(build),
      bind_columns_(bind_columns),
      type_(type),
      memory_rows_(memory_rows),
      fallback_(fallback),
      sort_config_(sort_config),
      output_schema_(
          HashJoinOutputSchema(probe->schema(), build->schema(), type)),
      counters_(counters),
      temp_(temp),
      resident_build_(build->schema().total_columns()),
      output_queue_(output_schema_.total_columns()) {
  OVC_CHECK(type == JoinTypeHash::kInner || type == JoinTypeHash::kLeftSemi);
}

void GraceHashJoin::JoinResident(const RowBuffer& build,
                                 const uint64_t* probe_row) {
  const uint64_t h = HashKeyPrefix(probe_row, bind_columns_, counters_);
  auto range = table_.equal_range(h);
  const Schema& ps = probe_->schema();
  const Schema& bs = build_->schema();
  for (auto it = range.first; it != range.second; ++it) {
    const uint64_t* build_row = build.row(it->second);
    if (!KeysEqual(probe_row, build_row, bind_columns_, counters_)) continue;
    if (type_ == JoinTypeHash::kLeftSemi) {
      output_queue_.AppendRow(probe_row);
      return;  // one output per probe row
    }
    uint64_t* dst = output_queue_.AppendRow();
    std::memcpy(dst, probe_row, ps.total_columns() * sizeof(uint64_t));
    std::memcpy(dst + ps.total_columns(), build_row,
                bs.total_columns() * sizeof(uint64_t));
    dst[ps.total_columns() + bs.total_columns()] = 3;
  }
}

void GraceHashJoin::BeginSortMergeFallback() {
  // The point of no return for the hash strategy: from here on, every
  // build row -- resident or still unread -- flows into an external sort
  // on the join key, and the probe side will follow. One sort per input,
  // no partition recursion, OVCs preserved end to end.
  OVC_TRACE_SPAN("hash_join.fallback");
  fell_back_ = true;
  if (counters_ != nullptr) ++counters_->hash_join_fallbacks;
  OVC_METRIC_COUNTER("hash_join.fallbacks",
                     "Grace hash joins that degraded to sort+merge")
      .Increment();
  const Schema& ps = probe_->schema();
  fb_probe_schema_ = std::make_unique<Schema>(
      BindPrefixSchema(ps, ps.total_columns(), bind_columns_));
  fb_build_schema_ = std::make_unique<Schema>(
      BindPrefixSchema(ps, build_->schema().total_columns(), bind_columns_));
  fb_build_sort_ = std::make_unique<ExternalSort>(
      fb_build_schema_.get(), counters_, temp_, sort_config_);
  for (size_t i = 0; i < resident_build_.size(); ++i) {
    fb_build_sort_->Add(resident_build_.row(i));
  }
  resident_build_.Clear();
  table_.clear();
}

bool GraceHashJoin::BeginProbeSort() {
  Status st = fb_build_sort_->Finish();
  if (!st.ok()) {
    Degrade(st);
    return false;
  }
  fb_probe_sort_ = std::make_unique<ExternalSort>(
      fb_probe_schema_.get(), counters_, temp_, sort_config_);
  return true;
}

void GraceHashJoin::FinishSortMergeFallback() {
  const Status st = fb_probe_sort_->Finish();
  if (!st.ok()) {
    Degrade(st);
    return;
  }
  fb_probe_view_ = std::make_unique<SortedSortView>(fb_probe_schema_.get(),
                                                    fb_probe_sort_.get());
  fb_build_view_ = std::make_unique<SortedSortView>(fb_build_schema_.get(),
                                                    fb_build_sort_.get());
  fb_join_ = std::make_unique<MergeJoin>(
      fb_probe_view_.get(), fb_build_view_.get(),
      type_ == JoinTypeHash::kLeftSemi ? JoinType::kLeftSemi
                                       : JoinType::kInner,
      counters_);
  fb_rows_ = std::make_unique<BlockReader>(fb_join_.get());
  fb_rows_->Open();
}

void GraceHashJoin::SortMergePartition(const PartitionPair& pair,
                                       RunFileReader* build,
                                       const uint64_t* row) {
  BeginSortMergeFallback();
  Ovc code = 0;
  do {
    fb_build_sort_->Add(row);
  } while (build->Next(&row, &code));
  RunFileReader probe(&probe_->schema(), temp_);
  const Status st = probe.Open(pair.probe_path);
  if (!st.ok()) {
    Degrade(st);
    return;
  }
  if (!BeginProbeSort()) return;
  while (probe.Next(&row, &code)) {
    fb_probe_sort_->Add(row);
  }
  FinishSortMergeFallback();
}

void GraceHashJoin::ResetContinuation() {
  if (fb_rows_ != nullptr) fb_rows_->Close();
  fb_rows_.reset();
  fb_join_.reset();
  fb_probe_view_.reset();
  fb_build_view_.reset();
  fb_probe_sort_.reset();
  fb_build_sort_.reset();
}

void GraceHashJoin::Degrade(const Status& status) {
  failed_ = true;
  if (temp_ != nullptr) temp_->RecordError(status);
}

void GraceHashJoin::Open() {
  output_queue_.Clear();
  queue_pos_ = 0;
  pending_.clear();
  resident_build_.Clear();
  table_.clear();
  fell_back_ = false;
  failed_ = false;
  ResetContinuation();

  // Consume the build side; if it fits, keep it resident, otherwise
  // degrade per the fallback policy (sort+merge continuation, or classic
  // grace partitioning to temporary storage).
  BlockReader build(build_);
  build.Open();
  RowRef ref;
  bool build_fits = true;
  PartitionWriters build_parts(&build_->schema(), bind_columns_, "ghj-build",
                               counters_, temp_);
  while (build.Next(&ref)) {
    if (build_fits &&
        (resident_build_.size() >= memory_rows_ ||
         OVC_FAILPOINT("grace_hash_join.force_overflow"))) {
      build_fits = false;
      if (fallback_ == FallbackPolicy::kSortMerge) {
        BeginSortMergeFallback();
      } else {
        // Overflow: re-partition what is already resident, then continue.
        for (size_t i = 0; i < resident_build_.size(); ++i) {
          build_parts.Append(resident_build_.row(i), /*level=*/0);
        }
        resident_build_.Clear();
      }
    }
    if (build_fits) {
      table_.emplace(HashKeyPrefix(ref.cols, bind_columns_, counters_),
                     static_cast<uint32_t>(resident_build_.size()));
      resident_build_.AppendRow(ref.cols);
    } else if (fell_back_) {
      fb_build_sort_->Add(ref.cols);
    } else if (!build_parts.Append(ref.cols, /*level=*/0)) {
      build.Close();
      Degrade(build_parts.status());
      return;
    }
  }
  build.Close();
  in_memory_ = build_fits;

  BlockReader probe(probe_);
  probe.Open();
  if (in_memory_) {
    // Stream the probe side against the resident table; queue results.
    while (probe.Next(&ref)) {
      JoinResident(resident_build_, ref.cols);
    }
    probe.Close();
    return;
  }

  if (fell_back_) {
    if (BeginProbeSort()) {
      while (probe.Next(&ref)) {
        fb_probe_sort_->Add(ref.cols);
      }
    }
    probe.Close();
    if (!failed_) FinishSortMergeFallback();
    return;
  }

  // Partition the probe side the same way; an empty one still gets its
  // files, so every pair has both.
  PartitionWriters probe_parts(&probe_->schema(), bind_columns_, "ghj-probe",
                               counters_, temp_);
  probe_parts.OpenAll();
  while (probe_parts.ok() && probe.Next(&ref)) {
    probe_parts.Append(ref.cols, /*level=*/0);
  }
  probe.Close();
  QueueSplit(&build_parts, &probe_parts, /*level=*/1);
  resident_build_.Clear();
  table_.clear();
}

void GraceHashJoin::QueueSplit(PartitionWriters* build,
                               PartitionWriters* probe, uint32_t level) {
  const uint64_t build_rows = build->total_rows();
  for (uint32_t p = 0; p < kHashPartitions; ++p) {
    if (!build->Close(p) || !probe->Close(p)) break;
    pending_.push_back(PartitionPair{probe->path(p), build->path(p), level,
                                     build->rows(p) == build_rows});
  }
  const Status st = build->ok() ? probe->status() : build->status();
  if (!st.ok()) Degrade(st);
}

bool GraceHashJoin::SplitRun(const std::string& path, uint32_t level,
                             PartitionWriters* parts) {
  RunFileReader reader(&parts->schema(), temp_);
  Status st = reader.Open(path);
  const uint64_t* row = nullptr;
  Ovc code = 0;
  while (st.ok() && reader.Next(&row, &code)) {
    if (!parts->Append(row, level)) st = parts->status();
  }
  if (!st.ok()) Degrade(st);
  return st.ok();
}

void GraceHashJoin::Repartition(const PartitionPair& pair) {
  // Too many build rows collided into this partition: split it (and its
  // probe counterpart) with the next level's salted hash. Both sides get
  // all their files before either run is read.
  PartitionWriters build(&build_->schema(), bind_columns_, "ghj-build",
                         counters_, temp_);
  PartitionWriters probe(&probe_->schema(), bind_columns_, "ghj-probe",
                         counters_, temp_);
  if (!build.OpenAll() || !probe.OpenAll()) {
    Degrade(build.ok() ? probe.status() : build.status());
    return;
  }
  if (SplitRun(pair.build_path, pair.level, &build) &&
      SplitRun(pair.probe_path, pair.level, &probe)) {
    QueueSplit(&build, &probe, pair.level + 1);
  }
}

bool GraceHashJoin::ProcessNextPartition() {
  while (!pending_.empty() && !failed_) {
    PartitionPair pair = pending_.back();
    pending_.pop_back();

    // Load the build partition and index it; a partition that still exceeds
    // the memory budget is split recursively with the next level's salt.
    resident_build_.Clear();
    table_.clear();
    RunFileReader build_reader(&build_->schema(), temp_);
    Status build_st = build_reader.Open(pair.build_path);
    if (!build_st.ok()) {
      // Degrade contract: a lost spill partition ends the operator's
      // output cleanly; the executor surfaces the recorded error.
      Degrade(build_st);
      return false;
    }
    const uint64_t* row = nullptr;
    Ovc code = 0;
    bool overflow = false;
    while (build_reader.Next(&row, &code)) {
      if (resident_build_.size() >= memory_rows_) {
        overflow = true;
        break;
      }
      table_.emplace(HashKeyPrefix(row, bind_columns_, counters_),
                     static_cast<uint32_t>(resident_build_.size()));
      resident_build_.AppendRow(row);
    }
    if (overflow) {
      if (pair.level < kMaxPartitionLevel && !pair.unsplittable) {
        Repartition(pair);
        continue;
      }
      // Past the deepest level, or its split made no progress: finish it
      // by sort+merge.
      SortMergePartition(pair, &build_reader, row);
      if (fb_rows_ != nullptr) return true;
      continue;
    }

    output_queue_.Clear();
    queue_pos_ = 0;
    RunFileReader probe_reader(&probe_->schema(), temp_);
    Status probe_st = probe_reader.Open(pair.probe_path);
    if (!probe_st.ok()) {
      Degrade(probe_st);
      return false;
    }
    while (probe_reader.Next(&row, &code)) {
      JoinResident(resident_build_, row);
    }
    if (output_queue_.size() > 0) return true;
  }
  return false;
}

bool GraceHashJoin::AppendFallback(RowBlock* out) {
  RowRef ref;
  if (!fb_rows_->Next(&ref)) return false;
  const uint32_t ps_total = probe_->schema().total_columns();
  // This operator's contract: unordered, no codes.
  uint64_t* dst = out->AppendRow(0);
  if (type_ == JoinTypeHash::kLeftSemi) {
    // Passthrough on both layouts: columns line up exactly.
    std::memcpy(dst, ref.cols, ps_total * sizeof(uint64_t));
  } else {
    // MergeJoin emits [join key][probe rest][build rest][indicator]; this
    // operator's inner layout is [probe row][build row][indicator]. The
    // probe row is the continuation's first ps_total columns verbatim,
    // and the build row's leading key columns equal the join key (it is
    // an equi-join), so the remap is three memcpys.
    const uint32_t bs_total = build_->schema().total_columns();
    std::memcpy(dst, ref.cols, ps_total * sizeof(uint64_t));
    std::memcpy(dst + ps_total, ref.cols, bind_columns_ * sizeof(uint64_t));
    std::memcpy(dst + ps_total + bind_columns_, ref.cols + ps_total,
                (bs_total - bind_columns_) * sizeof(uint64_t));
    dst[ps_total + bs_total] = 3;
  }
  return true;
}

uint32_t GraceHashJoin::NextBatch(RowBlock* out) {
  out->Clear();
  while (!failed_) {
    if (fb_rows_ != nullptr) {
      const uint32_t n = FillBlock(
          out, [this](RowBlock* block) { return AppendFallback(block); });
      if (n > 0) return n;
      ResetContinuation();
    }
    if (queue_pos_ < output_queue_.size()) {
      // The queue stays put until the next pull: serve it zero-copy.
      return ServeRows(output_queue_, &queue_pos_, out);
    }
    if (in_memory_ || !ProcessNextPartition()) return 0;
  }
  return 0;
}

void GraceHashJoin::Close() {
  output_queue_.Clear();
  resident_build_.Clear();
  table_.clear();
  ResetContinuation();
  fb_probe_schema_.reset();
  fb_build_schema_.reset();
}

}  // namespace ovc
