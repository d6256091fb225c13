#include "kb/kb_updater.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/serialization.h"
#include "core/streamtune_tuner.h"
#include "graph/ged_kmeans.h"

namespace streamtune::kb {

namespace {

/// True when a record of the last clustering, corpus[0, clustered), has the
/// graph name `name`. Pretrainer::Run deduplicates structures by name, so
/// such a structure already sits in a cluster, and another record of it
/// leaves the clustering's input unchanged.
bool Clustered(const core::Corpus& corpus, long long clustered,
               const std::string& name) {
  for (long long i = 0; i < clustered; ++i) {
    if (corpus[static_cast<size_t>(i)].graph.name() == name) return true;
  }
  return false;
}

/// Appends `extra` to `acc` and keeps only the newest `cap` entries.
template <typename T>
void AppendBounded(std::vector<T>* acc, const std::vector<T>& extra,
                   size_t cap) {
  acc->insert(acc->end(), extra.begin(), extra.end());
  if (acc->size() > cap) {
    acc->erase(acc->begin(), acc->begin() + (acc->size() - cap));
  }
}

}  // namespace

Result<AdmissionOutcome> KbUpdater::Admit(KnowledgeBase* kb,
                                          const AdmissionRecord& rec) const {
  ST_RETURN_NOT_OK(ValidateKb(*kb));
  ST_RETURN_NOT_OK(core::ValidateHistoryRecord(rec.record));
  const core::PretrainedBundle& old = *kb->bundle;
  ST_RETURN_NOT_OK(ValidateFeedback(old, rec.feedback));

  // Nearest-center assignment by GED (Algorithm 2 line 1, reused for the
  // feedback edge) through the shared cache: the branch-and-bound center
  // scan, whose minimum is an exact distance (lowest cluster id on ties).
  const std::vector<double> dist =
      graph::DistancesToCenters(rec.record.graph, old.centers(), cache_);
  const int cluster = static_cast<int>(
      std::min_element(dist.begin(), dist.end()) - dist.begin());

  // Append to the corpus: a new bundle sharing the existing cluster models
  // (encoders/heads are immutable once trained, so shallow ClusterModel
  // copies that share parameter nodes are safe for concurrent readers) and
  // the existing records, which are immutable and already warm. Only the
  // admitted record is new, so only its graph is warmed before publication.
  std::vector<core::ClusterModel> clusters;
  clusters.reserve(old.num_clusters());
  for (int c = 0; c < old.num_clusters(); ++c) {
    clusters.push_back(old.cluster(c));
  }
  core::Corpus records = old.records();
  clusters[cluster].record_indices.push_back(
      static_cast<int>(records.size()));
  core::HistoryRecord admitted = rec.record;
  admitted.graph.WarmAdjacency();
  records.push_back(std::move(admitted));
  kb->bundle = std::make_shared<const core::PretrainedBundle>(
      std::move(clusters), std::move(records), old.feature_encoder());

  AdmissionOutcome outcome;
  outcome.cluster = cluster;
  outcome.distance = dist[cluster];
  // A structure the last clustering saw cannot drift: re-clustering would
  // give the same clusters and the same distance.
  outcome.drifted = outcome.distance > options_.drift_distance &&
                    !Clustered(old.records(), kb->pretrain_corpus_size,
                               rec.record.graph.name());

  kb->appearance[cluster] += 1;
  kb->admissions_total += 1;
  if (outcome.drifted) kb->drifted_since_pretrain += 1;

  JobKnowledge& job = kb->jobs[rec.record.graph.name()];
  job.admissions += 1;
  AppendBounded(&job.feedback, rec.feedback,
                core::StreamTuneTuner::kMaxAccumulatedSamples);
  return outcome;
}

bool KbUpdater::NeedsRepretrain(const KnowledgeBase& kb) const {
  if (!kb.bundle) return false;
  const long long corpus = static_cast<long long>(kb.bundle->records().size());
  const long long fresh = corpus - kb.pretrain_corpus_size;
  if (fresh < options_.min_new_records) return false;
  if (kb.drifted_since_pretrain >= options_.drifted_trigger) return true;
  if (kb.pretrain_corpus_size > 0 &&
      static_cast<double>(fresh) /
              static_cast<double>(kb.pretrain_corpus_size) >=
          options_.growth_fraction) {
    return true;
  }
  return false;
}

Status KbUpdater::Repretrain(KnowledgeBase* kb) const {
  ST_RETURN_NOT_OK(ValidateKb(*kb));
  core::Pretrainer pretrainer(options_.pretrain);
  ST_ASSIGN_OR_RETURN(core::PretrainedBundle trained,
                      pretrainer.Run(kb->bundle->records()));
  auto bundle =
      std::make_shared<const core::PretrainedBundle>(std::move(trained));
  WarmBundleGraphs(*bundle);

  // Re-clustering invalidates the old per-cluster counters: re-seed the
  // appearance counts with the fresh cluster sizes and reset drift state.
  kb->appearance.assign(bundle->num_clusters(), 0);
  for (int c = 0; c < bundle->num_clusters(); ++c) {
    kb->appearance[c] =
        static_cast<long long>(bundle->cluster(c).record_indices.size());
  }
  kb->pretrain_corpus_size =
      static_cast<long long>(bundle->records().size());
  kb->drifted_since_pretrain = 0;
  kb->bundle = std::move(bundle);
  return Status::OK();
}

}  // namespace streamtune::kb
