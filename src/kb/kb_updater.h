// Incremental knowledge-base admission — the paper's feedback edge.
//
// When an online tuning session converges, its artifacts re-enter the KB so
// the next process tuning a similar (or the same) job starts warmer:
//   1. the session's labeled execution record joins the corpus and is
//      assigned to the nearest cluster by GED (reusing the shared GedCache);
//      the new bundle shares every other record with the old one, so an
//      admission costs one record, not a copy of the corpus;
//   2. the cluster's appearance count and the job's fine-tune samples
//      grow (bounded FIFO);
//   3. a trigger — relative corpus growth, or too many drifted admissions —
//      schedules re-clustering + re-pre-training over the accumulated
//      corpus on the existing thread pool (PretrainOptions::num_threads).
//      An admission drifts when it lies far from its assigned center and
//      its structure is one the last clustering did not see: re-clustering
//      after a known structure's admission gives the same clusters and the
//      same distance, so a re-pre-train cannot fix that kind of drift.
//
// The updater mutates a KnowledgeBase in place and is intentionally
// single-writer: concurrency is provided one level up by KbService, which
// applies admissions to a private copy and publishes immutable snapshots.

#pragma once

#include "core/history.h"
#include "core/pretrain.h"
#include "graph/ged_cache.h"
#include "kb/kb_store.h"

namespace streamtune::kb {

/// Admission / drift knobs.
struct KbUpdateOptions {
  /// GED to the assigned center beyond which an admission of a structure
  /// the last clustering did not see counts as drifted (the cluster
  /// structure no longer represents the job well). A structure counts as
  /// seen when its graph name, the key Pretrainer::Run deduplicates on,
  /// appears among the corpus records [0, pretrain_corpus_size); its
  /// admissions never drift.
  double drift_distance = 6.0;
  /// Re-pretrain when the corpus grew by this fraction since the last
  /// pre-training...
  double growth_fraction = 0.5;
  /// ...and at least this many records were admitted since then.
  int min_new_records = 6;
  /// Alternative trigger: this many drifted admissions since the last
  /// pre-training force a re-pretrain regardless of growth. Every
  /// admission of an unseen structure counts, also once an earlier one has
  /// put it in the corpus, until a re-pre-train clusters it.
  int drifted_trigger = 3;
  /// Settings for drift-triggered re-pre-training (epochs, k, threads...).
  core::PretrainOptions pretrain;
};

/// One converged tuning session, ready for admission.
struct AdmissionRecord {
  /// The session's final deployment, labeled by Algorithm 1.
  core::HistoryRecord record;
  /// Fine-tune samples the session accumulated (StreamTuneTuner feedback).
  std::vector<ml::LabeledSample> feedback;
};

/// What one admission did.
struct AdmissionOutcome {
  int cluster = -1;          ///< cluster the record was assigned to
  double distance = 0;       ///< exact GED to the assigned center
  bool drifted = false;      ///< unseen structure beyond drift_distance
  bool repretrained = false; ///< the admission triggered re-pre-training
};

/// Applies admissions and drift-triggered re-pre-training to a
/// KnowledgeBase. Stateless apart from options and the shared GED cache;
/// callers must serialize writers.
class KbUpdater {
 public:
  KbUpdater(KbUpdateOptions options, graph::GedCache* cache)
      : options_(options), cache_(cache) {}

  /// Admits one session into `kb`: validates the record
  /// (core::ValidateHistoryRecord) and its feedback (ValidateFeedback),
  /// assigns the nearest cluster by a GED scan over the bundle's centers,
  /// appends to the corpus (replacing kb->bundle with a new one sharing the
  /// existing cluster models and records; only the admitted record's graph
  /// is warmed), and accumulates the per-job artifacts. Does NOT
  /// re-pretrain; check NeedsRepretrain.
  Result<AdmissionOutcome> Admit(KnowledgeBase* kb,
                                 const AdmissionRecord& rec) const;

  /// True when the drift trigger says the clusters + encoders are stale.
  bool NeedsRepretrain(const KnowledgeBase& kb) const;

  /// Re-clusters and re-pretrains over the full accumulated corpus, whose
  /// records the new bundle shares, and resets the drift counters. Runs on
  /// the thread pool configured by options.pretrain.num_threads.
  Status Repretrain(KnowledgeBase* kb) const;

 private:
  KbUpdateOptions options_;
  graph::GedCache* cache_;
};

}  // namespace streamtune::kb
