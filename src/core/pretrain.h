// Offline pre-training phase (Sec. III / IV-A).
//
// Pipeline: cluster the historical dataflow DAGs with GED k-means (Sec.
// IV-C), then per cluster train a GNN-based encoder + MLP prediction head on
// the operator-level bottleneck classification task, with the recorded
// parallelism degrees injected through the FUSE layer and masked BCE over
// the Algorithm-1 labels. The resulting bundle serves the online phase:
// nearest-cluster lookup, frozen encoders, and warm-up datasets of
// (parallelism-agnostic embedding, parallelism, label) samples.

#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <vector>

#include "core/history.h"
#include "dataflow/feature_encoder.h"
#include "ml/bottleneck_model.h"
#include "ml/gnn.h"
#include "ml/nn.h"

namespace streamtune::core {

/// Pre-training knobs.
struct PretrainOptions {
  /// When false, skip clustering and train one global encoder (the paper's
  /// limited-dataset fallback, Sec. VII).
  bool use_clustering = true;
  /// Number of clusters; 0 = choose with the elbow method over [2, max_k].
  int k = 0;
  int max_k = 5;
  int hidden_dim = 32;
  int gnn_layers = 3;
  int epochs = 30;
  double learning_rate = 3e-3;
  uint64_t seed = 13;
  /// Worker threads for per-cluster training (clustering runs serially).
  /// 0 = hardware_concurrency, 1 = serial. Every per-cluster RNG stream is
  /// drawn up front in cluster order, so trained weights are bit-identical
  /// for any thread count.
  int num_threads = 0;
};

/// One cluster's trained artifacts.
struct ClusterModel {
  ml::GnnEncoder encoder;
  ml::Mlp head;  ///< pre-training prediction head (2-layer MLP -> logit)
  JobGraph center;
  /// Indices into the corpus of the records assigned to this cluster.
  std::vector<int> record_indices;
};

/// A bundle's corpus: history records held as immutable objects shared by
/// pointer. Copying a Corpus copies pointers, so the bundle versions a KB
/// publishes share every record they have in common; a record is never
/// mutated once it is in a Corpus, and readers on other threads may hold
/// it, so its graph must be adjacency-warm before the Corpus is shared.
class Corpus {
 public:
  /// Iterates the records as `const HistoryRecord&`.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = HistoryRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = const HistoryRecord*;
    using reference = const HistoryRecord&;

    const_iterator() = default;
    reference operator*() const { return **it_; }
    pointer operator->() const { return it_->get(); }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++it_;
      return before;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class Corpus;
    using Base =
        std::vector<std::shared_ptr<const HistoryRecord>>::const_iterator;
    explicit const_iterator(Base it) : it_(it) {}
    Base it_;
  };

  Corpus() = default;
  /// One shared object per record, in order. Implicit, so a vector of
  /// records goes wherever a Corpus is taken.
  Corpus(std::vector<HistoryRecord> records);

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const HistoryRecord& operator[](size_t i) const { return *records_[i]; }
  const_iterator begin() const { return const_iterator(records_.begin()); }
  const_iterator end() const { return const_iterator(records_.end()); }

  /// Appends `rec` as a new shared object; the records already held stay
  /// shared with every other Corpus that holds them.
  void push_back(HistoryRecord rec);

 private:
  std::vector<std::shared_ptr<const HistoryRecord>> records_;
};

/// The output of pre-training: per-cluster encoders plus corpus access.
class PretrainedBundle {
 public:
  PretrainedBundle(std::vector<ClusterModel> clusters, Corpus records,
                   FeatureEncoder encoder)
      : clusters_(std::move(clusters)),
        records_(std::move(records)),
        feature_encoder_(encoder) {
    centers_.reserve(clusters_.size());
    for (const ClusterModel& c : clusters_) centers_.push_back(c.center);
    for (const JobGraph& g : centers_) g.WarmAdjacency();
  }

  int num_clusters() const { return static_cast<int>(clusters_.size()); }
  const ClusterModel& cluster(int c) const { return clusters_[c]; }
  const Corpus& records() const { return records_; }
  const FeatureEncoder& feature_encoder() const { return feature_encoder_; }

  /// The cluster centers in cluster order, adjacency-warmed at
  /// construction so the vector can be shared across threads.
  const std::vector<JobGraph>& centers() const { return centers_; }

  /// Nearest cluster for a target DAG by GED to the cluster centers
  /// (Algorithm 2, line 1): graph::NearestCenter's branch-and-bound scan,
  /// lowest cluster id on ties.
  int AssignCluster(const JobGraph& g) const;

  /// Parallelism-agnostic embeddings of `g`'s operators (rows) under
  /// cluster c's frozen encoder, with `rates` as the current source rates.
  /// Each row is [H^(T)_v | mean source-rate encoding of the job]: the
  /// appended rate block is a skip connection that hands the fine-tuned
  /// model the job's rate level directly (width = hidden_dim +
  /// FeatureEncoder::kRateFeatures).
  ml::Matrix AgnosticEmbeddings(int c, const JobGraph& g,
                                const std::vector<double>& rates) const;

  /// Bottleneck probability from the *pre-training* head (used to sanity-
  /// check pre-training; the online phase swaps in the fine-tuned model).
  std::vector<double> PretrainHeadProbabilities(
      int c, const JobGraph& g, const std::vector<double>& rates,
      const std::vector<int>& parallelism) const;

  /// Warm-up dataset for fine-tuning (Algorithm 2, line 3): embeddings +
  /// recorded parallelisms + labels from up to `max_records` sampled records
  /// of cluster c.
  std::vector<ml::LabeledSample> WarmUpDataset(int c, int max_records,
                                               uint64_t seed) const;

 private:
  std::vector<ClusterModel> clusters_;
  Corpus records_;
  FeatureEncoder feature_encoder_;
  std::vector<JobGraph> centers_;
};

/// Runs clustering + per-cluster supervised pre-training on a corpus.
class Pretrainer {
 public:
  explicit Pretrainer(PretrainOptions options = {}) : options_(options) {}

  /// Trains and returns the bundle, which holds `records` as its corpus.
  /// Requires a non-empty corpus of records that pass
  /// ValidateHistoryRecord, with at least one labeled operator.
  Result<PretrainedBundle> Run(Corpus records) const;

 private:
  PretrainOptions options_;
};

}  // namespace streamtune::core
