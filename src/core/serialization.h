// Persistence for execution histories and pre-trained bundles.
//
// A long-running deployment collects histories continuously and pre-trains
// offline; the online tuner then loads the bundle, as the `bundle` section
// of a knowledge-base file (kb/kb_store.h), at job-submission time. The
// format is a self-describing, line-oriented text format (versioned,
// human-inspectable, no external dependencies). Loaders validate
// structure and report malformed input through Status.

#pragma once

#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/history.h"
#include "core/pretrain.h"

namespace streamtune::core {

// ---- Durable file writing --------------------------------------------------

/// Checked, atomic file writer shared by every Save* entry point (histories
/// and the knowledge-base store). Streams into `<path>.tmp`; Commit()
/// flushes, verifies the stream, closes, and atomically renames onto `path`,
/// so readers never observe a partially written file and a failed save
/// leaves any previous file intact. An uncommitted writer removes its temp
/// file on destruction.
class CheckedFileWriter {
 public:
  explicit CheckedFileWriter(std::string path);
  ~CheckedFileWriter();

  CheckedFileWriter(const CheckedFileWriter&) = delete;
  CheckedFileWriter& operator=(const CheckedFileWriter&) = delete;

  /// The output stream (writes go to the temp file until Commit).
  std::ostream& stream() { return os_; }

  /// True while no stream error has been observed.
  bool ok() const { return static_cast<bool>(os_); }

  /// Flush + verify + rename. Returns an error (and removes the temp file)
  /// if the stream failed at any point, including open failure.
  Status Commit();

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream os_;
  bool committed_ = false;
};

// ---- Low-level token parsing ----------------------------------------------

// Strict whitespace-separated token readers shared by every loader in this
// file and by the knowledge-base store. Each fails with InvalidArgument on
// EOF or on a token that does not parse exactly.
namespace io {
Result<std::string> Token(std::istream& is);
Result<std::string> ExpectToken(std::istream& is, const std::string& want);
Result<long long> IntToken(std::istream& is);
Result<double> DoubleToken(std::istream& is);
}  // namespace io

// ---- Job graphs -----------------------------------------------------------

/// Writes one job graph block to `os`.
void WriteJobGraph(std::ostream& os, const JobGraph& graph);
/// Reads one job graph block from `is`.
Result<JobGraph> ReadJobGraph(std::istream& is);

/// Rejects graph/operator names the whitespace-separated format cannot
/// round-trip. Every writer validates before emitting anything.
Status ValidateGraphNames(const JobGraph& graph);

// ---- Histories ------------------------------------------------------------

/// The values a history record may hold: a valid DAG with round-trippable
/// names, one degree >= 1, finite rate >= 0 and label in {-1, 0, 1} per
/// operator, and a finite cost. The history readers reject any other
/// record, and the writers, KbUpdater::Admit and Pretrainer::Run refuse
/// one before using it.
Status ValidateHistoryRecord(const HistoryRecord& rec);

/// Writes one history record block (graph + parallelism + rates + labels +
/// cost) to `os`.
void WriteHistoryRecord(std::ostream& os, const HistoryRecord& rec);
/// Reads one history record block from `is`. Rejects parallelism outside
/// [1, INT_MAX], rates that are negative or not finite, and a non-finite
/// cost.
Result<HistoryRecord> ReadHistoryRecord(std::istream& is);

/// Saves history records to `path` (atomic temp-file + rename). Refuses,
/// before writing anything, a record that ReadHistoryRecord would reject.
[[nodiscard]] Status SaveHistory(const std::vector<HistoryRecord>& records,
                   const std::string& path);
/// Loads history records from `path`.
Result<std::vector<HistoryRecord>> LoadHistory(const std::string& path);

// ---- Pre-trained bundles ---------------------------------------------------

/// Writes the bundle payload (clusters with encoder/head weights + corpus)
/// without any file header. The knowledge-base store embeds it as its
/// checksummed `bundle` section.
Status WriteBundleBody(std::ostream& os, const PretrainedBundle& bundle);
/// Reads a bundle payload written by WriteBundleBody. Rejects an implausible
/// encoder shape before building the encoder, and non-finite weights.
Result<PretrainedBundle> ReadBundleBody(std::istream& is);

}  // namespace streamtune::core
