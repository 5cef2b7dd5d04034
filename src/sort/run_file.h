// Spilled (on-disk) sorted runs with prefix truncation.
//
// The run format stores each row's key with its shared prefix removed: a
// 16-bit offset (the length of the prefix shared with the predecessor row,
// which is exactly the offset of the row's offset-value code) followed by
// the remaining key columns and all payload columns. This realizes the
// paper's observation (Section 4.12) that ordered storage can "preserve the
// effort for comparisons spent during index creation ... by prefix
// truncation", and that scans over such storage produce offset-value codes
// practically for free: the reader reconstructs each row AND its code
// without a single column comparison.

#ifndef OVC_SORT_RUN_FILE_H_
#define OVC_SORT_RUN_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/temp_file.h"
#include "core/ovc.h"
#include "row/schema.h"

namespace ovc {

/// Writes a sorted OVC stream to a prefix-truncated run file.
class RunFileWriter {
 public:
  /// `schema` must outlive the writer; `counters` (optional) accumulates
  /// spill volume.
  RunFileWriter(const Schema* schema, QueryCounters* counters)
      : schema_(schema), codec_(schema), counters_(counters) {}

  /// Opens `path` for writing.
  Status Open(const std::string& path);

  /// Appends the next row; `code` must be the row's code relative to the
  /// previously appended row (offset 0 for the first row). The code's
  /// offset determines how many key columns are truncated.
  Status Append(const uint64_t* row, Ovc code);

  /// Flushes and closes the file.
  Status Close();

  /// Rows appended so far.
  uint64_t rows() const { return rows_; }

 private:
  const Schema* schema_;
  OvcCodec codec_;
  QueryCounters* counters_;
  FileWriter file_;
  uint64_t rows_ = 0;
  uint64_t retries_folded_ = 0;
};

/// Reads a prefix-truncated run file back as a merge input (a `Source` of
/// OvcMergerT): rows come out with their offset-value codes, at zero
/// column-comparison cost.
class RunFileReader {
 public:
  /// `error_sink` wires mid-run I/O errors into the degrade contract
  /// (docs/ROBUSTNESS.md): a failed or short read is recorded as the
  /// manager's first error and the reader reports end-of-stream, so the
  /// plan executor surfaces a clean error after the run. Query-execution
  /// callers (sort, aggregate, join spills) must pass their temp manager;
  /// only storage scans that own their run files may pass nullptr, which
  /// restores the old behavior of aborting on a corrupt spill.
  explicit RunFileReader(const Schema* schema,
                         TempFileManager* error_sink = nullptr)
      : schema_(schema), codec_(schema), error_sink_(error_sink),
        row_(schema->total_columns(), 0) {}

  /// Opens `path` for reading.
  Status Open(const std::string& path);

  /// Next row + code. On a mid-run I/O error, records the error in
  /// `error_sink` and reports end-of-stream (see constructor).
  bool Next(const uint64_t** row, Ovc* code);

 private:
  /// Records `status` (non-OK) and ends the stream; aborts when no sink
  /// was wired. Returns false so Next can `return Fail(st)`.
  bool Fail(const Status& status);

  const Schema* schema_;
  OvcCodec codec_;
  TempFileManager* error_sink_;
  std::vector<uint64_t> row_;  // reconstruction buffer (previous row's
                               // prefix stays in place)
  FileReader file_;
  bool open_ = false;
  bool done_ = false;  // end of file reached, or failed
};

/// A spilled run: its path and row count. Value type handed between run
/// generation and merge planning.
struct SpilledRun {
  std::string path;
  uint64_t rows = 0;
};

}  // namespace ovc

#endif  // OVC_SORT_RUN_FILE_H_
