#include "core/serialization.h"

#include <cctype>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace streamtune::core {

CheckedFileWriter::CheckedFileWriter(std::string path)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      os_(tmp_path_, std::ios::trunc) {}

CheckedFileWriter::~CheckedFileWriter() {
  if (!committed_) {
    os_.close();
    std::remove(tmp_path_.c_str());
  }
}

Status CheckedFileWriter::Commit() {
  if (!os_.is_open()) {
    return Status::Internal("cannot open '" + tmp_path_ + "' for writing");
  }
  os_.flush();
  if (!os_) {
    return Status::Internal("write to '" + tmp_path_ + "' failed");
  }
  os_.close();
  if (os_.fail()) {
    return Status::Internal("closing '" + tmp_path_ + "' failed");
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    return Status::Internal("cannot rename '" + tmp_path_ + "' to '" + path_ +
                            "'");
  }
  committed_ = true;
  return Status::OK();
}

namespace io {

// Reads the next whitespace-separated token; fails at EOF.
Result<std::string> Token(std::istream& is) {
  std::string t;
  if (!(is >> t)) return Status::InvalidArgument("unexpected end of input");
  return t;
}

Result<std::string> ExpectToken(std::istream& is, const std::string& want) {
  ST_ASSIGN_OR_RETURN(std::string t, Token(is));
  if (t != want) {
    return Status::InvalidArgument("expected '" + want + "', got '" + t +
                                   "'");
  }
  return t;
}

Result<long long> IntToken(std::istream& is) {
  ST_ASSIGN_OR_RETURN(std::string t, Token(is));
  try {
    size_t pos = 0;
    long long v = std::stoll(t, &pos);
    if (pos != t.size()) throw std::invalid_argument(t);
    return v;
  } catch (...) {
    return Status::InvalidArgument("expected integer, got '" + t + "'");
  }
}

Result<double> DoubleToken(std::istream& is) {
  ST_ASSIGN_OR_RETURN(std::string t, Token(is));
  try {
    size_t pos = 0;
    double v = std::stod(t, &pos);
    if (pos != t.size()) throw std::invalid_argument(t);
    return v;
  } catch (...) {
    return Status::InvalidArgument("expected number, got '" + t + "'");
  }
}

}  // namespace io

namespace {

constexpr const char* kHistoryMagic = "STHISTORY";
constexpr int kVersion = 1;
/// Encoder shapes ReadBundleBody accepts. The encoder allocates 3 *
/// num_layers hidden_dim x hidden_dim matrices before any weight is read,
/// so its shape is checked first. Trained bundles use 32 and 3.
constexpr long long kMaxHiddenDim = 512;
constexpr long long kMaxGnnLayers = 16;
/// Most records a history file or bundle corpus may hold.
constexpr long long kMaxCorpusRecords = 10000000;

using io::DoubleToken;
using io::ExpectToken;
using io::IntToken;
using io::Token;

bool HasWhitespace(const std::string& s) {
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) return true;
  }
  return false;
}

Result<unsigned long long> UIntToken(std::istream& is) {
  ST_ASSIGN_OR_RETURN(std::string t, Token(is));
  try {
    size_t pos = 0;
    unsigned long long v = std::stoull(t, &pos);
    if (pos != t.size()) throw std::invalid_argument(t);
    return v;
  } catch (...) {
    return Status::InvalidArgument("expected unsigned integer, got '" + t +
                                   "'");
  }
}

Result<int> EnumToken(std::istream& is, int cardinality) {
  ST_ASSIGN_OR_RETURN(long long v, IntToken(is));
  if (v < 0 || v >= cardinality) {
    return Status::InvalidArgument("enum value out of range");
  }
  return static_cast<int>(v);
}

void WriteMatrix(std::ostream& os, const ml::Matrix& m) {
  os << "mat " << m.rows() << ' ' << m.cols() << '\n';
  os.precision(17);
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      os << m.at(r, c) << (c + 1 == m.cols() ? '\n' : ' ');
    }
  }
}

Result<ml::Matrix> ReadMatrix(std::istream& is) {
  ST_RETURN_NOT_OK(ExpectToken(is, "mat").status());
  ST_ASSIGN_OR_RETURN(long long rows, IntToken(is));
  ST_ASSIGN_OR_RETURN(long long cols, IntToken(is));
  if (rows < 0 || cols < 0 || rows * cols > 100000000) {
    return Status::InvalidArgument("implausible matrix shape");
  }
  ml::Matrix m(static_cast<int>(rows), static_cast<int>(cols));
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      ST_ASSIGN_OR_RETURN(double v, DoubleToken(is));
      // Only model weights are stored as matrices: a NaN or Inf one would
      // load and then poison every embedding and prediction silently.
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("non-finite weight '" +
                                       std::to_string(v) + "'");
      }
      m.at(r, c) = v;
    }
  }
  return m;
}

Status WriteParams(std::ostream& os, const std::vector<ml::Var>& params) {
  os << "params " << params.size() << '\n';
  for (const ml::Var& p : params) WriteMatrix(os, p->value);
  return Status::OK();
}

Status ReadParamsInto(std::istream& is, const std::vector<ml::Var>& params) {
  ST_RETURN_NOT_OK(ExpectToken(is, "params").status());
  ST_ASSIGN_OR_RETURN(long long count, IntToken(is));
  if (count != static_cast<long long>(params.size())) {
    return Status::InvalidArgument("parameter count mismatch");
  }
  for (const ml::Var& p : params) {
    ST_ASSIGN_OR_RETURN(ml::Matrix m, ReadMatrix(is));
    if (!m.same_shape(p->value)) {
      return Status::InvalidArgument("parameter shape mismatch");
    }
    p->value = std::move(m);
  }
  return Status::OK();
}

}  // namespace

void WriteJobGraph(std::ostream& os, const JobGraph& graph) {
  os << "graph " << graph.name() << '\n';
  os << "ops " << graph.num_operators() << '\n';
  for (const OperatorSpec& op : graph.operators()) {
    os << "op " << op.name << ' ' << static_cast<int>(op.type) << ' '
       << static_cast<int>(op.window_type) << ' '
       << static_cast<int>(op.window_policy) << ' ' << op.window_length
       << ' ' << op.sliding_length << ' '
       << static_cast<int>(op.join_key_class) << ' '
       << static_cast<int>(op.aggregate_class) << ' '
       << static_cast<int>(op.aggregate_key_class) << ' '
       << static_cast<int>(op.aggregate_function) << ' ' << op.tuple_width_in
       << ' ' << op.tuple_width_out << ' '
       << static_cast<int>(op.tuple_data_type) << ' ' << op.source_rate
       << '\n';
  }
  os << "edges " << graph.num_edges() << '\n';
  for (const auto& [from, to] : graph.edges()) {
    os << "e " << from << ' ' << to << '\n';
  }
}

Result<JobGraph> ReadJobGraph(std::istream& is) {
  ST_RETURN_NOT_OK(ExpectToken(is, "graph").status());
  ST_ASSIGN_OR_RETURN(std::string name, Token(is));
  JobGraph graph(name);
  ST_RETURN_NOT_OK(ExpectToken(is, "ops").status());
  ST_ASSIGN_OR_RETURN(long long num_ops, IntToken(is));
  if (num_ops < 1 || num_ops > 10000) {
    return Status::InvalidArgument("implausible operator count");
  }
  for (long long i = 0; i < num_ops; ++i) {
    ST_RETURN_NOT_OK(ExpectToken(is, "op").status());
    OperatorSpec op;
    ST_ASSIGN_OR_RETURN(op.name, Token(is));
    ST_ASSIGN_OR_RETURN(int type, EnumToken(is, kNumOperatorTypes));
    op.type = static_cast<OperatorType>(type);
    ST_ASSIGN_OR_RETURN(int wt, EnumToken(is, kNumWindowTypes));
    op.window_type = static_cast<WindowType>(wt);
    ST_ASSIGN_OR_RETURN(int wp, EnumToken(is, kNumWindowPolicies));
    op.window_policy = static_cast<WindowPolicy>(wp);
    ST_ASSIGN_OR_RETURN(op.window_length, DoubleToken(is));
    ST_ASSIGN_OR_RETURN(op.sliding_length, DoubleToken(is));
    ST_ASSIGN_OR_RETURN(int jkc, EnumToken(is, kNumKeyClasses));
    op.join_key_class = static_cast<KeyClass>(jkc);
    ST_ASSIGN_OR_RETURN(int ac, EnumToken(is, kNumKeyClasses));
    op.aggregate_class = static_cast<KeyClass>(ac);
    ST_ASSIGN_OR_RETURN(int akc, EnumToken(is, kNumKeyClasses));
    op.aggregate_key_class = static_cast<KeyClass>(akc);
    ST_ASSIGN_OR_RETURN(int af, EnumToken(is, kNumAggregateFunctions));
    op.aggregate_function = static_cast<AggregateFunction>(af);
    ST_ASSIGN_OR_RETURN(op.tuple_width_in, DoubleToken(is));
    ST_ASSIGN_OR_RETURN(op.tuple_width_out, DoubleToken(is));
    ST_ASSIGN_OR_RETURN(int tdt, EnumToken(is, kNumKeyClasses));
    op.tuple_data_type = static_cast<KeyClass>(tdt);
    ST_ASSIGN_OR_RETURN(op.source_rate, DoubleToken(is));
    graph.AddOperator(std::move(op));
  }
  ST_RETURN_NOT_OK(ExpectToken(is, "edges").status());
  ST_ASSIGN_OR_RETURN(long long num_edges, IntToken(is));
  if (num_edges < 0 || num_edges > 100000) {
    return Status::InvalidArgument("implausible edge count");
  }
  for (long long i = 0; i < num_edges; ++i) {
    ST_RETURN_NOT_OK(ExpectToken(is, "e").status());
    ST_ASSIGN_OR_RETURN(long long from, IntToken(is));
    ST_ASSIGN_OR_RETURN(long long to, IntToken(is));
    ST_RETURN_NOT_OK(graph.AddEdge(static_cast<int>(from),
                                   static_cast<int>(to)));
  }
  ST_RETURN_NOT_OK(graph.Validate());
  return graph;
}

Status ValidateGraphNames(const JobGraph& graph) {
  if (HasWhitespace(graph.name())) {
    return Status::InvalidArgument("graph name contains whitespace: '" +
                                   graph.name() + "'");
  }
  for (const OperatorSpec& op : graph.operators()) {
    if (HasWhitespace(op.name)) {
      return Status::InvalidArgument("operator name contains whitespace: '" +
                                     op.name + "'");
    }
  }
  return Status::OK();
}

Status ValidateHistoryRecord(const HistoryRecord& rec) {
  ST_RETURN_NOT_OK(rec.graph.Validate());
  ST_RETURN_NOT_OK(ValidateGraphNames(rec.graph));
  const size_t n = static_cast<size_t>(rec.graph.num_operators());
  if (rec.parallelism.size() != n || rec.source_rates.size() != n ||
      rec.labels.size() != n) {
    return Status::InvalidArgument(
        "history record vectors do not match operator count");
  }
  for (int p : rec.parallelism) {
    if (p < 1) return Status::InvalidArgument("parallelism must be >= 1");
  }
  for (double r : rec.source_rates) {
    if (!std::isfinite(r) || r < 0) {
      return Status::InvalidArgument("source rate must be finite and >= 0");
    }
  }
  for (int l : rec.labels) {
    if (l < -1 || l > 1) return Status::InvalidArgument("label out of range");
  }
  if (!std::isfinite(rec.job_cost)) {
    return Status::InvalidArgument("job cost must be finite");
  }
  return Status::OK();
}

void WriteHistoryRecord(std::ostream& os, const HistoryRecord& rec) {
  WriteJobGraph(os, rec.graph);
  os << "parallelism";
  for (int p : rec.parallelism) os << ' ' << p;
  os << "\nrates";
  os.precision(17);
  for (double r : rec.source_rates) os << ' ' << r;
  os << "\nlabels";
  for (int l : rec.labels) os << ' ' << l;
  os << "\ncost " << rec.job_cost << " backpressure "
     << (rec.backpressure ? 1 : 0) << '\n';
}

Result<HistoryRecord> ReadHistoryRecord(std::istream& is) {
  HistoryRecord rec;
  ST_ASSIGN_OR_RETURN(rec.graph, ReadJobGraph(is));
  const int n = rec.graph.num_operators();
  ST_RETURN_NOT_OK(ExpectToken(is, "parallelism").status());
  for (int i = 0; i < n; ++i) {
    ST_ASSIGN_OR_RETURN(long long p, IntToken(is));
    // Checked before the cast; ValidateHistoryRecord checks the rest.
    if (p < 1 || p > INT_MAX) {
      return Status::InvalidArgument("parallelism must be in [1, INT_MAX]");
    }
    rec.parallelism.push_back(static_cast<int>(p));
  }
  ST_RETURN_NOT_OK(ExpectToken(is, "rates").status());
  for (int i = 0; i < n; ++i) {
    ST_ASSIGN_OR_RETURN(double r, DoubleToken(is));
    rec.source_rates.push_back(r);
  }
  ST_RETURN_NOT_OK(ExpectToken(is, "labels").status());
  for (int i = 0; i < n; ++i) {
    ST_ASSIGN_OR_RETURN(long long l, IntToken(is));
    if (l < -1 || l > 1) return Status::InvalidArgument("label out of range");
    rec.labels.push_back(static_cast<int>(l));
  }
  ST_RETURN_NOT_OK(ExpectToken(is, "cost").status());
  ST_ASSIGN_OR_RETURN(rec.job_cost, DoubleToken(is));
  ST_RETURN_NOT_OK(ExpectToken(is, "backpressure").status());
  ST_ASSIGN_OR_RETURN(long long bp, IntToken(is));
  rec.backpressure = bp != 0;
  ST_RETURN_NOT_OK(ValidateHistoryRecord(rec));
  return rec;
}

Status SaveHistory(const std::vector<HistoryRecord>& records,
                   const std::string& path) {
  for (const HistoryRecord& rec : records) {
    ST_RETURN_NOT_OK(ValidateHistoryRecord(rec));
  }
  CheckedFileWriter writer(path);
  std::ostream& os = writer.stream();
  os << kHistoryMagic << ' ' << kVersion << '\n';
  os << "count " << records.size() << '\n';
  for (const HistoryRecord& rec : records) WriteHistoryRecord(os, rec);
  return writer.Commit();
}

Result<std::vector<HistoryRecord>> LoadHistory(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::NotFound("cannot open '" + path + "'");
  ST_RETURN_NOT_OK(ExpectToken(is, kHistoryMagic).status());
  ST_ASSIGN_OR_RETURN(long long version, IntToken(is));
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported history version");
  }
  ST_RETURN_NOT_OK(ExpectToken(is, "count").status());
  ST_ASSIGN_OR_RETURN(long long count, IntToken(is));
  if (count < 0 || count > kMaxCorpusRecords) {
    return Status::InvalidArgument("implausible record count");
  }
  std::vector<HistoryRecord> records;
  records.reserve(count);
  for (long long i = 0; i < count; ++i) {
    ST_ASSIGN_OR_RETURN(HistoryRecord rec, ReadHistoryRecord(is));
    records.push_back(std::move(rec));
  }
  return records;
}

Status WriteBundleBody(std::ostream& os, const PretrainedBundle& bundle) {
  for (const HistoryRecord& rec : bundle.records()) {
    ST_RETURN_NOT_OK(ValidateHistoryRecord(rec));
  }
  os << "clusters " << bundle.num_clusters() << '\n';
  for (int c = 0; c < bundle.num_clusters(); ++c) {
    const ClusterModel& cm = bundle.cluster(c);
    os << "cluster " << c << '\n';
    WriteJobGraph(os, cm.center);
    os << "members " << cm.record_indices.size();
    for (int i : cm.record_indices) os << ' ' << i;
    os << '\n';
    const ml::GnnConfig& cfg = cm.encoder.config();
    os << "encoder " << cfg.feature_dim << ' ' << cfg.hidden_dim << ' '
       << cfg.num_layers << ' ' << cfg.seed << '\n';
    ST_RETURN_NOT_OK(WriteParams(os, cm.encoder.Params()));
    os << "head\n";
    ST_RETURN_NOT_OK(WriteParams(os, cm.head.Params()));
  }

  os << "corpus " << bundle.records().size() << '\n';
  for (const HistoryRecord& rec : bundle.records()) {
    WriteHistoryRecord(os, rec);
  }
  return Status::OK();
}

Result<PretrainedBundle> ReadBundleBody(std::istream& is) {
  ST_RETURN_NOT_OK(ExpectToken(is, "clusters").status());
  ST_ASSIGN_OR_RETURN(long long k, IntToken(is));
  if (k < 1 || k > 1000) {
    return Status::InvalidArgument("implausible cluster count");
  }
  std::vector<ClusterModel> clusters(k);
  // Member indices stay 64-bit until the corpus size they index is known.
  std::vector<std::vector<long long>> members(k);
  for (long long c = 0; c < k; ++c) {
    ST_RETURN_NOT_OK(ExpectToken(is, "cluster").status());
    ST_ASSIGN_OR_RETURN(long long idx, IntToken(is));
    if (idx != c) return Status::InvalidArgument("cluster index mismatch");
    ClusterModel& cm = clusters[c];
    ST_ASSIGN_OR_RETURN(cm.center, ReadJobGraph(is));
    ST_RETURN_NOT_OK(ExpectToken(is, "members").status());
    ST_ASSIGN_OR_RETURN(long long count, IntToken(is));
    if (count < 0 || count > kMaxCorpusRecords) {
      return Status::InvalidArgument("implausible cluster member count");
    }
    for (long long i = 0; i < count; ++i) {
      ST_ASSIGN_OR_RETURN(long long ri, IntToken(is));
      members[c].push_back(ri);
    }
    ST_RETURN_NOT_OK(ExpectToken(is, "encoder").status());
    ml::GnnConfig cfg;
    ST_ASSIGN_OR_RETURN(long long fd, IntToken(is));
    ST_ASSIGN_OR_RETURN(long long hd, IntToken(is));
    ST_ASSIGN_OR_RETURN(long long nl, IntToken(is));
    ST_ASSIGN_OR_RETURN(unsigned long long seed, UIntToken(is));
    if (fd != FeatureEncoder::FeatureDim()) {
      return Status::InvalidArgument(
          "bundle was built with a different feature schema");
    }
    if (hd < 1 || hd > kMaxHiddenDim || nl < 0 || nl > kMaxGnnLayers) {
      return Status::InvalidArgument("implausible encoder shape");
    }
    cfg.feature_dim = static_cast<int>(fd);
    cfg.hidden_dim = static_cast<int>(hd);
    cfg.num_layers = static_cast<int>(nl);
    cfg.seed = static_cast<uint64_t>(seed);
    cm.encoder = ml::GnnEncoder(cfg);
    ST_RETURN_NOT_OK(ReadParamsInto(is, cm.encoder.Params()));
    ST_RETURN_NOT_OK(ExpectToken(is, "head").status());
    // Peek the head parameter list to rebuild the MLP with matching dims.
    // The writer stores (W, b) per layer; dims come from the W shapes.
    ST_RETURN_NOT_OK(ExpectToken(is, "params").status());
    ST_ASSIGN_OR_RETURN(long long nparams, IntToken(is));
    if (nparams <= 0 || nparams % 2 != 0 || nparams > 64) {
      return Status::InvalidArgument("implausible head parameter count");
    }
    std::vector<ml::Matrix> head_params;
    for (long long i = 0; i < nparams; ++i) {
      ST_ASSIGN_OR_RETURN(ml::Matrix m, ReadMatrix(is));
      head_params.push_back(std::move(m));
    }
    std::vector<int> dims{head_params[0].rows()};
    for (size_t i = 0; i < head_params.size(); i += 2) {
      dims.push_back(head_params[i].cols());
    }
    Rng rng(1);
    cm.head = ml::Mlp(dims, ml::Activation::kRelu, &rng);
    std::vector<ml::Var> params = cm.head.Params();
    for (size_t i = 0; i < params.size(); ++i) {
      if (!params[i]->value.same_shape(head_params[i])) {
        return Status::InvalidArgument("head parameter shape mismatch");
      }
      params[i]->value = std::move(head_params[i]);
    }
  }

  ST_RETURN_NOT_OK(ExpectToken(is, "corpus").status());
  ST_ASSIGN_OR_RETURN(long long count, IntToken(is));
  if (count < 0 || count > kMaxCorpusRecords) {
    return Status::InvalidArgument("implausible corpus size");
  }
  std::vector<HistoryRecord> records;
  records.reserve(count);
  for (long long i = 0; i < count; ++i) {
    ST_ASSIGN_OR_RETURN(HistoryRecord rec, ReadHistoryRecord(is));
    records.push_back(std::move(rec));
  }
  for (long long c = 0; c < k; ++c) {
    for (long long ri : members[c]) {
      if (ri < 0 || ri >= count) {
        return Status::InvalidArgument("cluster member index out of range");
      }
      clusters[c].record_indices.push_back(static_cast<int>(ri));
    }
  }
  return PretrainedBundle(std::move(clusters), std::move(records),
                          FeatureEncoder{});
}

}  // namespace streamtune::core
