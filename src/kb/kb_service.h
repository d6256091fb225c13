// Concurrent knowledge-base service: snapshot-isolated reads, one writer.
//
// Many tuning sessions run at once against one KB. Readers must never see a
// torn state (a bundle from one pre-training with appearance counts from
// another), and admissions must not block in-flight sessions. The classic
// answer is copy-on-write snapshot isolation:
//
//   - the service holds a shared_ptr to an immutable KbSnapshot; Snapshot()
//     hands out that pointer under a brief mutex, so a session keeps one
//     consistent view for as long as it likes, no matter what writers do;
//   - Admit() is the single writer path: it copies the current state,
//     applies the admission (and, when the drift trigger fires, a full
//     re-pre-training) to the private copy, then publishes the copy with a
//     pointer swap. Writers serialize among themselves; readers never wait
//     on a writer and vice versa.
//
// The snapshot's job graphs are adjacency-warmed and its models are frozen,
// so concurrent sessions can run inference against one snapshot safely.
// Stats() reports what the writer did: the published version, the inline
// re-pre-trainings and the shared GED cache's counters.

#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "core/streamtune_tuner.h"
#include "kb/kb_store.h"
#include "kb/kb_updater.h"

namespace streamtune::kb {

/// One immutable, versioned view of the knowledge base.
class KbSnapshot {
 public:
  const KnowledgeBase& kb() const { return kb_; }
  /// Monotonically increasing publication counter (0 = initial state).
  long long version() const { return version_; }
  std::shared_ptr<const core::PretrainedBundle> bundle() const {
    return kb_.bundle;
  }
  /// What the KB knows about `job`; nullptr when it was never admitted.
  const JobKnowledge* job(const std::string& name) const;

  /// A StreamTune tuner over this snapshot's bundle, with `job`'s
  /// accumulated fine-tune feedback pre-seeded (the warm start).
  std::unique_ptr<core::StreamTuneTuner> NewTuner(
      const std::string& job, core::StreamTuneOptions options = {}) const;

 private:
  friend class KbService;
  KnowledgeBase kb_;
  long long version_ = 0;
};

/// Writer-side counters. Each counter is non-decreasing across successive
/// Stats() calls.
struct KbServiceStats {
  /// Version of the currently published snapshot (one bump per admission).
  long long snapshot_version = 0;
  /// Admissions that triggered an inline re-pre-training; sampled together
  /// with snapshot_version, so never larger than it.
  long long repretrains = 0;

  /// GED-cache counters at sample time — how much GED work the shared
  /// cache saved the admission path's center scans, and how many of its
  /// searches ran out of expansion budget. One sample of the cache, taken
  /// after the two counters above.
  long long ged_hits_exact = 0;
  long long ged_hits_certified = 0;
  long long ged_misses = 0;
  long long ged_entries = 0;
  long long ged_budget_exhausted = 0;

  long long ged_hits() const { return ged_hits_exact + ged_hits_certified; }
  double ged_hit_rate() const {
    const long long total = ged_hits() + ged_misses;
    return total == 0 ? 0.0 : static_cast<double>(ged_hits()) / total;
  }
};

/// The multi-session KB server. Thread-safe: any number of threads may call
/// Snapshot()/Admit()/Save() concurrently.
class KbService {
 public:
  /// Opens a KB previously written with Save()/SaveKb().
  static Result<std::unique_ptr<KbService>> Open(const std::string& path,
                                                 KbUpdateOptions options = {});

  /// Builds a fresh KB by pre-training over `records` (options.pretrain).
  static Result<std::unique_ptr<KbService>> Build(
      std::vector<core::HistoryRecord> records, KbUpdateOptions options = {});

  /// Wraps an already pre-trained bundle (e.g. Pretrainer::Run output).
  static std::unique_ptr<KbService> FromBundle(
      std::shared_ptr<const core::PretrainedBundle> bundle,
      KbUpdateOptions options = {});

  /// The current immutable snapshot. Never blocks on writers beyond a
  /// pointer copy; the returned view stays valid and consistent for the
  /// lifetime of the shared_ptr.
  std::shared_ptr<const KbSnapshot> Snapshot() const;

  /// Admits one converged tuning session. Serialized with other writers;
  /// runs drift-triggered re-pre-training inline when due (the outcome's
  /// `repretrained` flag reports it) and publishes a new snapshot.
  Result<AdmissionOutcome> Admit(const AdmissionRecord& rec);

  /// Durably saves the latest snapshot (atomic temp-file + rename).
  Status Save(const std::string& path) const;

  /// One sample of the writer-side counters. Samples taken later observe
  /// counters at least as large.
  KbServiceStats Stats() const;

  /// The latest published version.
  long long version() const { return Snapshot()->version(); }

 private:
  KbService(KnowledgeBase kb, KbUpdateOptions options);

  graph::GedCache cache_;
  KbUpdater updater_;

  /// Serializes Admit() writers (copy -> mutate -> publish).
  std::mutex writer_mu_;
  /// Guards only the snapshot pointer swap/read.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const KbSnapshot> snapshot_
      STREAMTUNE_GUARDED_BY(snapshot_mu_);
  /// Advances together with the snapshot swap, under snapshot_mu_, so a
  /// Stats() sample never counts a re-pre-training it has no version for.
  long long repretrains_ STREAMTUNE_GUARDED_BY(snapshot_mu_) = 0;
};

}  // namespace streamtune::kb
