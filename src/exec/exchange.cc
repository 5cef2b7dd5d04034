#include "exec/exchange.h"

#include "common/metrics.h"
#include "common/trace.h"
#include "exec/hash_join.h"  // HashKeyPrefix

namespace ovc {

namespace {

/// Operator view of one split partition.
class SplitPartitionStreamImpl : public Operator {
 public:
  SplitPartitionStreamImpl(SplitExchange* exchange, uint32_t index,
                           const Schema* schema, bool sorted, bool has_ovc)
      : exchange_(exchange),
        index_(index),
        schema_(schema),
        sorted_(sorted),
        has_ovc_(has_ovc) {}

  void Open() override;
  uint32_t NextBatch(RowBlock* out) override;
  void Close() override;
  const Schema& schema() const override { return *schema_; }
  bool sorted() const override { return sorted_; }
  bool has_ovc() const override { return has_ovc_; }

 private:
  SplitExchange* exchange_;
  uint32_t index_;
  const Schema* schema_;
  bool sorted_;
  bool has_ovc_;
};

}  // namespace

// SplitPartitionStreamImpl needs SplitExchange internals; the friend
// declaration names SplitPartitionStream, so route through member helpers.
class SplitPartitionStream {
 public:
  static void Open(SplitExchange* ex, uint32_t index) {
    ex->StreamOpen(index);
  }
  static void Close(SplitExchange* ex, uint32_t index) {
    ex->StreamClose(index);
  }
  static uint32_t NextBatch(SplitExchange* ex, uint32_t index, RowBlock* out) {
    return ex->NextRows(index, out);
  }
};

namespace {

void SplitPartitionStreamImpl::Open() {
  SplitPartitionStream::Open(exchange_, index_);
}

uint32_t SplitPartitionStreamImpl::NextBatch(RowBlock* out) {
  OVC_DCHECK(out->width() == schema_->total_columns());
  return SplitPartitionStream::NextBatch(exchange_, index_, out);
}

void SplitPartitionStreamImpl::Close() {
  SplitPartitionStream::Close(exchange_, index_);
}

}  // namespace

SplitExchange::SplitExchange(Operator* child, uint32_t partitions,
                             Policy policy, QueryCounters* counters,
                             std::vector<uint64_t> range_bounds,
                             uint32_t hash_prefix)
    : child_(child),
      policy_(policy),
      counters_(counters),
      range_bounds_(std::move(range_bounds)),
      hash_prefix_(hash_prefix == 0 ? child->schema().key_arity()
                                    : hash_prefix),
      child_has_ovc_(child->sorted() && child->has_ovc()),
      pump_block_(child->schema().total_columns()) {
  OVC_CHECK(partitions >= 1);
  OVC_CHECK(hash_prefix_ <= child->schema().key_arity());
  if (policy == Policy::kRangeFirstColumn) {
    OVC_CHECK(range_bounds_.size() + 1 == partitions);
    // Range routing reads the first key column of a stream ordered on it.
    OVC_CHECK(child->sorted());
  }
  for (uint32_t p = 0; p < partitions; ++p) {
    auto state =
        std::make_unique<PartitionState>(child->schema().total_columns());
    state->acc.Reset();
    states_.push_back(std::move(state));
    streams_.push_back(std::make_unique<SplitPartitionStreamImpl>(
        this, p, &child->schema(), child->sorted(), child_has_ovc_));
  }
  stream_closed_.assign(partitions, false);
}

Operator* SplitExchange::partition(uint32_t i) {
  OVC_CHECK(i < streams_.size());
  return streams_[i].get();
}

void SplitExchange::StreamOpen(uint32_t index) {
  MutexLock lock(mu_);
  if (stream_closed_[index]) {
    // Re-opened before the cycle completed: it no longer counts as closed.
    stream_closed_[index] = false;
    --closed_streams_;
  }
}

void SplitExchange::StreamClose(uint32_t index) {
  MutexLock lock(mu_);
  if (stream_closed_[index]) return;
  stream_closed_[index] = true;
  ++closed_streams_;
  if (closed_streams_ == partitions() && child_open_) {
    // Every partition stream has been closed: balance the lazy Open() with
    // exactly one Close() and reset all routing state so the exchange
    // supports a fresh open/pull/close cycle over a rescannable child.
    child_->Close();
    child_open_ = false;
    child_done_ = false;
    pump_block_.Clear();
    pump_pos_ = 0;
    round_robin_next_ = 0;
    for (auto& state : states_) state->Reset();
    stream_closed_.assign(partitions(), false);
    closed_streams_ = 0;
  }
}

uint32_t SplitExchange::RouteOf(const uint64_t* row) {
  const uint32_t p_count = partitions();
  switch (policy_) {
    case Policy::kHashKey:
      return static_cast<uint32_t>(
          HashKeyPrefix(row, hash_prefix_, counters_) % p_count);
    case Policy::kRoundRobin:
      return static_cast<uint32_t>(round_robin_next_++ % p_count);
    case Policy::kRangeFirstColumn: {
      const uint64_t v = child_->schema().NormalizedAt(row, 0);
      uint32_t p = 0;
      while (p < range_bounds_.size() && v >= range_bounds_[p]) ++p;
      return p;
    }
  }
  return 0;
}

void SplitExchange::PumpUntilLocked(uint32_t want, size_t min_rows) {
  if (!child_open_) {
    child_->Open();
    child_open_ = true;
  }
  auto& want_state = *states_[want];
  while (want_state.buffered < min_rows && !child_done_) {
    if (pump_pos_ >= pump_block_.size()) {
      // Refill the staging block: one virtual call per block of routed
      // rows. The previous block's rows were copied into partition
      // buffers, so invalidating them here is safe.
      if (child_->NextBatch(&pump_block_) == 0) {
        child_done_ = true;
        break;
      }
      pump_pos_ = 0;
    }
    const uint64_t* row = pump_block_.row(pump_pos_);
    const Ovc code = pump_block_.code(pump_pos_);
    ++pump_pos_;
    const uint32_t p = RouteOf(row);
    auto& target = *states_[p];
    if (child_has_ovc_) {
      // Filter theorem per partition: the routed row's output code combines
      // the codes of rows routed elsewhere since this partition's last row;
      // every other partition absorbs this row's code.
      target.Push(row, target.acc.Combine(code));
      target.acc.Reset();
      for (uint32_t q = 0; q < partitions(); ++q) {
        if (q != p) states_[q]->acc.Absorb(code);
      }
    } else {
      // Unsorted child: no codes to maintain, rows route as-is.
      target.Push(row, 0);
    }
  }
}

uint32_t SplitExchange::NextRows(uint32_t index, RowBlock* out) {
  MutexLock lock(mu_);
  out->Clear();
  PumpUntilLocked(index, out->capacity());
  auto& state = *states_[index];
  const uint64_t* row = nullptr;
  Ovc code = 0;
  while (!out->full() && state.Pop(&row, &code)) {
    out->Append(row, code);
  }
  return out->size();
}

bool BoundedBatchQueue::Push(std::unique_ptr<RowBatch> batch) {
  MutexLock lock(mu_);
  // Explicit condition loops (not a wait-predicate lambda) keep the guarded
  // reads in this function's body, where the thread-safety analysis can see
  // the lock is held.
  while (!cancelled_ && items_.size() >= capacity_) not_full_.Wait(mu_);
  if (cancelled_) return false;
  items_.push_back(std::move(batch));
  not_empty_.NotifyOne();
  return true;
}

std::unique_ptr<RowBatch> BoundedBatchQueue::Pop() {
  MutexLock lock(mu_);
  while (!cancelled_ && items_.empty()) not_empty_.Wait(mu_);
  if (items_.empty()) return nullptr;  // cancelled
  std::unique_ptr<RowBatch> batch = std::move(items_.front());
  items_.pop_front();
  not_full_.NotifyOne();
  return batch;
}

void BoundedBatchQueue::Cancel() {
  MutexLock lock(mu_);
  cancelled_ = true;
  not_full_.NotifyAll();
  not_empty_.NotifyAll();
}

/// Operator view of one producer's batch queue, which it owns. Serves each
/// popped batch zero-copy, as RunScan serves an InMemoryRun (a RowBatch is
/// one), in spans of at most the caller's block capacity. Row lifetime
/// (exec/operator.h): a batch stays alive until the next NextBatch()/Close()
/// -- the pull that pops the next batch frees it.
class MergeExchange::QueueStream : public Operator {
 public:
  QueueStream(size_t queue_batches, const Schema* schema)
      : queue_(queue_batches), schema_(schema) {}

  BoundedBatchQueue* queue() { return &queue_; }

  void Open() override {}
  uint32_t NextBatch(RowBlock* out) override {
    out->Clear();
    while (batch_ == nullptr || pos_ == batch_->size()) {
      if (done_) return 0;
      batch_ = queue_.Pop();  // frees the previous batch and its rows
      pos_ = 0;
      if (batch_ == nullptr) {
        done_ = true;
        return 0;
      }
    }
    const size_t avail = batch_->size() - pos_;
    const uint32_t n = static_cast<uint32_t>(
        avail < out->capacity() ? avail : out->capacity());
    out->RefContiguous(batch_->row(pos_), batch_->codes() + pos_, n);
    pos_ += n;
    return n;
  }
  void Close() override { batch_.reset(); }
  const Schema& schema() const override { return *schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  BoundedBatchQueue queue_;
  const Schema* schema_;
  std::unique_ptr<RowBatch> batch_;
  size_t pos_ = 0;
  bool done_ = false;
};

MergeExchange::MergeExchange(std::vector<Operator*> inputs,
                             QueryCounters* counters, Options options)
    : inputs_(std::move(inputs)),
      counters_(counters),
      options_(options),
      codec_(&inputs_[0]->schema()),
      comparator_(&inputs_[0]->schema(), counters) {
  OVC_CHECK(!inputs_.empty());
  for (Operator* in : inputs_) {
    OVC_CHECK(in->sorted() && in->has_ovc());
    OVC_CHECK(in->schema() == inputs_[0]->schema());
  }
}

// Full ResetState: destruction after Open() without Close() must still
// join the producers and balance inline-opened inputs' lifecycles (threaded
// producers close their own input when the queues are cancelled).
MergeExchange::~MergeExchange() { ResetState(); }

void MergeExchange::Open() {
  // Re-entrant: a second Open() -- after Close(), or even without one --
  // must not stack fresh queues/producers/readers onto leftover state.
  ResetState();
  for (Operator* in : inputs_) {
    Operator* source = in;
    if (options_.threaded) {
      queue_streams_.push_back(
          std::make_unique<QueueStream>(options_.queue_batches, &in->schema()));
      BoundedBatchQueue* queue = queue_streams_.back()->queue();
      const uint32_t batch_rows = options_.batch_rows;
      // Capture the consumer thread's trace context here so the producer
      // span parents under whatever span is driving this Open() -- the
      // trace then shows the worker threads nested inside the query even
      // though they never share a stack with it.
      const trace::ThreadContext trace_ctx = trace::CaptureContext();
      producers_.emplace_back([in, queue, batch_rows, trace_ctx] {
        trace::ScopedThreadContext adopt(trace_ctx);
        OVC_TRACE_SPAN("exchange.producer");
        metrics::Gauge& running = OVC_METRIC_GAUGE(
            "exchange.producers_running", "Producer threads currently live");
        running.Add(1);
        metrics::Counter& batches_metric = OVC_METRIC_COUNTER(
            "exchange.producer_batches", "Batches handed across exchanges");
        in->Open();
        const uint32_t width = in->schema().total_columns();
        // Pull whole blocks from the input pipeline (one virtual NextBatch
        // per block) and hand each on as one queue batch.
        RowBlock block(width, batch_rows);
        bool alive = true;
        uint32_t n;
        while (alive && (n = in->NextBatch(&block)) > 0) {
          auto batch = std::make_unique<RowBatch>(width);
          batch->Reserve(n);
          batch->AppendBlock(block);
          alive = queue->Push(std::move(batch));
          batches_metric.Increment();
        }
        if (alive) {
          queue->Push(nullptr);  // end-of-stream sentinel
        }
        in->Close();
        running.Sub(1);
      });
      source = queue_streams_.back().get();
    }
    readers_.push_back(std::make_unique<BlockReader>(source));
    readers_.back()->Open();
  }
  std::vector<BlockReader*> sources;
  for (const auto& reader : readers_) sources.push_back(reader.get());
  if (options_.use_ovc) {
    merger_ = std::make_unique<OvcMergerT<BlockReader>>(&codec_, &comparator_,
                                                        sources);
  } else {
    plain_merger_ = std::make_unique<PlainMergerT<BlockReader>>(
        &codec_, &comparator_, sources);
  }
}

uint32_t MergeExchange::NextBatch(RowBlock* out) {
  OVC_DCHECK(out->width() == schema().total_columns());
  if (merger_ != nullptr) return merger_->NextBlock(out);
  out->Clear();
  if (plain_merger_ != nullptr) {
    RowRef ref;
    while (!out->full() && plain_merger_->Next(&ref)) {
      out->Append(ref.cols, ref.ovc);
    }
  }
  return out->size();
}

void MergeExchange::ResetState() {
  for (auto& stream : queue_streams_) {
    stream->queue()->Cancel();
  }
  for (std::thread& t : producers_) {
    if (t.joinable()) t.join();
  }
  producers_.clear();
  merger_.reset();
  plain_merger_.reset();
  // Threaded producers close their own input at thread exit (normal or
  // cancelled), so a reader there only closes its queue stream; inline
  // mode opened the inputs on this thread, and closing its readers
  // balances those opens -- also on the Open()-without-Close() path, where
  // a leaked open would break the re-open contract.
  for (auto& reader : readers_) reader->Close();
  readers_.clear();
  queue_streams_.clear();
}

void MergeExchange::Close() { ResetState(); }

}  // namespace ovc
