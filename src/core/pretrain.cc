#include "core/pretrain.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/math_util.h"
#include "common/thread_pool.h"
#include "core/serialization.h"
#include "graph/ged_kmeans.h"

namespace streamtune::core {

namespace {

ml::Matrix FeatureMatrix(const FeatureEncoder& encoder, const JobGraph& g,
                         const std::vector<double>& rates) {
  return ml::Matrix::FromRows(encoder.EncodeGraphWithRates(g, rates));
}

ml::Matrix ParallelismColumn(const FeatureEncoder& encoder,
                             const std::vector<int>& p) {
  ml::Matrix col(static_cast<int>(p.size()), 1);
  for (size_t i = 0; i < p.size(); ++i) {
    col.at(static_cast<int>(i), 0) = encoder.ScaleParallelism(p[i]);
  }
  return col;
}

/// Mean source-rate encoding over all operator rows of a feature matrix —
/// the skip-connection block appended to every agnostic embedding row.
std::vector<double> MeanRateRow(const ml::Matrix& features) {
  const int n = features.rows();
  const int f_dim = features.cols();
  const int r_dim = FeatureEncoder::kRateFeatures;
  std::vector<double> mean_rate(r_dim, 0.0);
  for (int v = 0; v < n; ++v) {
    for (int j = 0; j < r_dim; ++j) {
      mean_rate[j] += features.at(v, f_dim - r_dim + j);
    }
  }
  for (double& m : mean_rate) m /= n;
  return mean_rate;
}

/// Everything the tape training loop needs for one history record,
/// prepared once before the epoch loop and reused every epoch.
struct PreparedSample {
  const ml::GraphContext* ctx = nullptr;  ///< shared per unique graph
  ml::Matrix features;  ///< static features + source rates
  ml::Matrix pcol;      ///< scaled recorded parallelism column
  ml::Matrix targets;   ///< Algorithm-1 labels (masked BCE targets)
  ml::Matrix mask;      ///< 1.0 where the operator is labeled
  bool any_label = false;
};

}  // namespace

Corpus::Corpus(std::vector<HistoryRecord> records) {
  records_.reserve(records.size());
  for (HistoryRecord& rec : records) push_back(std::move(rec));
}

void Corpus::push_back(HistoryRecord rec) {
  records_.push_back(std::make_shared<const HistoryRecord>(std::move(rec)));
}

int PretrainedBundle::AssignCluster(const JobGraph& g) const {
  return graph::NearestCenter(g, centers_);
}

ml::Matrix PretrainedBundle::AgnosticEmbeddings(
    int c, const JobGraph& g, const std::vector<double>& rates) const {
  ml::Matrix features = FeatureMatrix(feature_encoder_, g, rates);
  ml::GraphContext ctx = ml::GraphContext::Build(g);
  // thread_local: kb_service calls this concurrently; each thread reuses
  // its own warmed-up tape.
  thread_local ml::Tape tape;
  tape.Reset();
  ml::Tape::Ref emb_ref =
      clusters_[c].encoder.ForwardAgnostic(&tape, ctx, features);
  const ml::Matrix& emb = tape.value(emb_ref);

  // Skip connection for the fine-tuned model: append the job's mean source-
  // rate encoding to every row. The message-passing output carries the rate
  // signal only after several mixing layers, which attenuates it; demand
  // thresholds scale directly with the rate multiplier, so M_f gets the
  // global rate level verbatim.
  const int n = g.num_operators();
  const int r_dim = FeatureEncoder::kRateFeatures;
  const std::vector<double> mean_rate = MeanRateRow(features);

  ml::Matrix out(n, emb.cols() + r_dim);
  for (int v = 0; v < n; ++v) {
    for (int j = 0; j < emb.cols(); ++j) {
      out.at(v, j) = emb.at(v, j);
    }
    for (int j = 0; j < r_dim; ++j) {
      out.at(v, emb.cols() + j) = mean_rate[j];
    }
  }
  return out;
}

std::vector<double> PretrainedBundle::PretrainHeadProbabilities(
    int c, const JobGraph& g, const std::vector<double>& rates,
    const std::vector<int>& parallelism) const {
  const ClusterModel& cm = clusters_[c];
  ml::Matrix features = FeatureMatrix(feature_encoder_, g, rates);
  ml::Matrix pcol = ParallelismColumn(feature_encoder_, parallelism);
  ml::GraphContext ctx = ml::GraphContext::Build(g);
  thread_local ml::Tape tape;
  tape.Reset();
  ml::Tape::Ref emb = cm.encoder.Forward(&tape, ctx, features, pcol);
  ml::Tape::Ref logits = cm.head.Forward(&tape, emb);
  const ml::Matrix& lv = tape.value(logits);
  std::vector<double> probs(g.num_operators());
  for (int v = 0; v < g.num_operators(); ++v) {
    probs[v] = Sigmoid(lv.at(v, 0));
  }
  return probs;
}

std::vector<ml::LabeledSample> PretrainedBundle::WarmUpDataset(
    int c, int max_records, uint64_t seed) const {
  const ClusterModel& cm = clusters_[c];
  std::vector<int> idx = cm.record_indices;
  Rng rng(seed);
  rng.Shuffle(&idx);
  if (static_cast<int>(idx.size()) > max_records) idx.resize(max_records);

  std::vector<ml::LabeledSample> samples;
  for (int ri : idx) {
    const HistoryRecord& rec = records_[ri];
    ml::Matrix emb = AgnosticEmbeddings(c, rec.graph, rec.source_rates);
    for (int v = 0; v < rec.graph.num_operators(); ++v) {
      if (rec.labels[v] < 0) continue;
      ml::LabeledSample s;
      s.embedding = emb.Row(v);
      s.parallelism = rec.parallelism[v];
      s.label = rec.labels[v];
      samples.push_back(std::move(s));
    }
  }
  return samples;
}

Result<PretrainedBundle> Pretrainer::Run(Corpus records) const {
  if (records.empty()) return Status::InvalidArgument("empty corpus");
  for (const HistoryRecord& rec : records) {
    ST_RETURN_NOT_OK(ValidateHistoryRecord(rec));
  }

  FeatureEncoder feature_encoder;

  // Deduplicate graphs by name: samples of the same job share a DAG, and
  // clustering should see each structure once.
  std::vector<JobGraph> unique_graphs;
  std::map<std::string, int> graph_index;
  std::vector<int> record_graph(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    auto [it, inserted] = graph_index.try_emplace(
        records[i].graph.name(), static_cast<int>(unique_graphs.size()));
    if (inserted) unique_graphs.push_back(records[i].graph);
    record_graph[i] = it->second;
  }

  // Normalized adjacency is a pure function of the (deduplicated) graph
  // structure: build each GraphContext once and share it read-only across
  // every cluster worker, epoch, and sample. At bench-scale corpora this
  // loop is minutes of dense-matrix setup, so it fans out over the pool
  // (slot-per-graph writes: deterministic regardless of schedule).
  ThreadPool pool(options_.num_threads);
  std::vector<ml::GraphContext> graph_contexts(unique_graphs.size());
  pool.ParallelFor(0, static_cast<int64_t>(unique_graphs.size()),
                   [&](int64_t gi) {
                     graph_contexts[gi] =
                         ml::GraphContext::Build(unique_graphs[gi]);
                   });

  // ---- Clustering (Sec. IV-C) ----
  std::vector<int> graph_cluster(unique_graphs.size(), 0);
  std::vector<JobGraph> centers;
  int num_clusters = 1;
  graph::GedCache ged_cache;  // shared across the elbow sweep + final run
  if (options_.use_clustering && unique_graphs.size() > 1) {
    graph::KMeansOptions km;
    km.seed = options_.seed;
    km.cache = &ged_cache;
    int k = options_.k;
    if (k <= 0) {
      int hi = std::min<int>(options_.max_k,
                             static_cast<int>(unique_graphs.size()));
      if (hi >= 3) {
        auto elbow = graph::SelectKByElbow(unique_graphs, 2, hi, km);
        if (!elbow.ok()) return elbow.status();
        k = *elbow;
      } else {
        k = hi >= 2 ? 2 : 1;
      }
    }
    k = std::min<int>(k, static_cast<int>(unique_graphs.size()));
    km.k = k;
    auto clustering = graph::ClusterDags(unique_graphs, km);
    if (!clustering.ok()) return clustering.status();
    graph_cluster = clustering->assignment;
    num_clusters = k;
    for (int ci : clustering->center_indices) {
      centers.push_back(unique_graphs[ci]);
    }
  } else {
    centers.push_back(unique_graphs.front());
  }

  // ---- Per-cluster supervised pre-training (Sec. IV-A) ----
  // Clusters are independent once records are assigned, so training fans
  // out over the pool. All seeds are drawn serially first, in exactly the
  // order the serial loop drew them (encoder, head, then — only for
  // non-empty clusters — the epoch shuffler), so the trained weights are
  // bit-identical for any thread count.
  std::vector<ClusterModel> clusters(num_clusters);
  std::vector<uint64_t> encoder_seeds(num_clusters), head_seeds(num_clusters),
      shuffle_seeds(num_clusters, 0);
  Rng seeder(options_.seed);
  for (int c = 0; c < num_clusters; ++c) {
    ClusterModel& cm = clusters[c];
    cm.center = centers[c];
    for (size_t i = 0; i < records.size(); ++i) {
      if (graph_cluster[record_graph[i]] == c) {
        cm.record_indices.push_back(static_cast<int>(i));
      }
    }
    encoder_seeds[c] = seeder.NextU64();
    head_seeds[c] = seeder.NextU64();
    if (!cm.record_indices.empty()) shuffle_seeds[c] = seeder.NextU64();
  }

  pool.ParallelFor(0, num_clusters, [&](int64_t c) {
    ClusterModel& cm = clusters[c];

    ml::GnnConfig gcfg;
    gcfg.feature_dim = FeatureEncoder::FeatureDim();
    gcfg.hidden_dim = options_.hidden_dim;
    gcfg.num_layers = options_.gnn_layers;
    gcfg.seed = encoder_seeds[c];
    cm.encoder = ml::GnnEncoder(gcfg);
    Rng head_rng(head_seeds[c]);
    cm.head = ml::Mlp({options_.hidden_dim, 16, 1}, ml::Activation::kRelu,
                      &head_rng);

    if (cm.record_indices.empty()) return;

    std::vector<ml::Var> params = cm.encoder.Params();
    for (const ml::Var& p : cm.head.Params()) params.push_back(p);
    ml::Adam opt(params, options_.learning_rate);

    Rng shuffle_rng(shuffle_seeds[c]);

    // Per-sample inputs are a pure function of the record, so prepare them
    // once (aligned with cm.record_indices) instead of rebuilding them
    // every epoch.
    std::vector<PreparedSample> prepared(cm.record_indices.size());
    for (size_t i = 0; i < cm.record_indices.size(); ++i) {
      const HistoryRecord& rec = records[cm.record_indices[i]];
      PreparedSample& ps = prepared[i];
      ps.ctx = &graph_contexts[record_graph[cm.record_indices[i]]];
      ps.features = FeatureMatrix(feature_encoder, rec.graph,
                                  rec.source_rates);
      ps.pcol = ParallelismColumn(feature_encoder, rec.parallelism);
      const int n = rec.graph.num_operators();
      ps.targets = ml::Matrix(n, 1);
      ps.mask = ml::Matrix(n, 1);
      for (int v = 0; v < n; ++v) {
        if (rec.labels[v] >= 0) {
          ps.targets.at(v, 0) = rec.labels[v];
          ps.mask.at(v, 0) = 1.0;
          ps.any_label = true;
        }
      }
    }

    // Shuffling positions applies the identical Fisher-Yates permutation
    // the original per-record loop applied to record indices (the draws are
    // value-independent), so the sample visit order is unchanged.
    std::vector<int> positions(prepared.size());
    std::iota(positions.begin(), positions.end(), 0);
    ml::Tape tape;  // persistent: epoch 2+ run allocation-free
    for (int epoch = 0; epoch < options_.epochs; ++epoch) {
      shuffle_rng.Shuffle(&positions);
      for (int pos : positions) {
        const PreparedSample& ps = prepared[pos];
        if (!ps.any_label) continue;
        tape.Reset();
        ml::Tape::Ref emb =
            cm.encoder.Forward(&tape, *ps.ctx, ps.features, ps.pcol);
        ml::Tape::Ref logits = cm.head.Forward(&tape, emb);
        ml::Tape::Ref loss =
            tape.BceWithLogitsMasked(logits, &ps.targets, &ps.mask);
        tape.Backward(loss);
        opt.Step();
      }
    }
  });

  return PretrainedBundle(std::move(clusters), std::move(records),
                          feature_encoder);
}

}  // namespace streamtune::core
