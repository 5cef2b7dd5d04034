#include "sort/run_file.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace ovc {

Status RunFileWriter::Open(const std::string& path) {
  return file_.Open(path);
}

Status RunFileWriter::Append(const uint64_t* row, Ovc code) {
  OVC_DCHECK(OvcCodec::IsValid(code));
  const uint32_t arity = schema_->key_arity();
  const uint32_t total = schema_->total_columns();
  const uint16_t offset = static_cast<uint16_t>(codec_.OffsetOf(code));
  OVC_DCHECK(offset <= arity);
  OVC_RETURN_IF_ERROR(file_.Write(&offset, sizeof(offset)));
  // Key columns past the shared prefix, then all payload columns.
  OVC_RETURN_IF_ERROR(file_.Write(row + offset,
                                  (arity - offset) * sizeof(uint64_t)));
  OVC_RETURN_IF_ERROR(
      file_.Write(row + arity, (total - arity) * sizeof(uint64_t)));
  ++rows_;
  if (counters_ != nullptr) {
    ++counters_->rows_spilled;
    counters_->bytes_spilled +=
        sizeof(offset) + (total - offset) * sizeof(uint64_t);
  }
  return Status::Ok();
}

Status RunFileWriter::Close() {
  // Fold transient-I/O recoveries into the session counters once per file
  // (retries() is cumulative over the writer's life).
  if (counters_ != nullptr) {
    counters_->io_retries += file_.retries() - retries_folded_;
    retries_folded_ = file_.retries();
  }
  return file_.Close();
}

Status RunFileReader::Open(const std::string& path) {
  OVC_RETURN_IF_ERROR(file_.Open(path));
  open_ = true;
  return Status::Ok();
}

bool RunFileReader::Next(const uint64_t** row, Ovc* code) {
  OVC_CHECK(open_);
  if (done_) return false;
  // The end of the file shows up as a clean end before the offset field:
  // no probe per record.
  uint16_t offset = 0;
  bool eof = false;
  Status st = file_.ReadOrEof(&offset, sizeof(offset), &eof);
  if (st.ok() && eof) {
    done_ = true;
    return false;
  }
  const uint32_t arity = schema_->key_arity();
  const uint32_t total = schema_->total_columns();
  if (st.ok() && offset > arity) {
    st = Status::IoError("corrupt run file: prefix offset " +
                         std::to_string(offset) + " exceeds key arity " +
                         std::to_string(arity));
  }
  // The shared prefix is already in row_ from the previous row; the key
  // columns past it and the payload columns follow it contiguously.
  if (st.ok()) {
    st = file_.Read(row_.data() + offset, (total - offset) * sizeof(uint64_t));
  }
  if (!st.ok()) return Fail(st);
  *row = row_.data();
  *code = codec_.MakeFromRow(row_.data(), offset);
  return true;
}

bool RunFileReader::Fail(const Status& status) {
  done_ = true;
  if (error_sink_ != nullptr) {
    // Degrade contract: first error lands in the manager's slot, the
    // stream ends, and the executor surfaces the error after the run.
    error_sink_->RecordError(status);
    return false;
  }
  // No sink (storage scans owning their files): a torn run file is not
  // recoverable and truncating it silently would corrupt query results.
  std::fprintf(stderr, "RunFileReader: unrecoverable run-file error: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace ovc
