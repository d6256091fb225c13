#include "ml/bottleneck_model.h"

#include <cmath>

namespace streamtune::ml {

Status CheckTrainingSet(const std::vector<LabeledSample>& data,
                        int embedding_dim) {
  if (data.empty()) return Status::InvalidArgument("empty training set");
  for (size_t i = 0; i < data.size(); ++i) {
    const LabeledSample& s = data[i];
    auto reject = [i](const char* what) {
      return Status::InvalidArgument("training sample " + std::to_string(i) +
                                     ": " + what);
    };
    if (static_cast<int>(s.embedding.size()) != embedding_dim) {
      return reject("embedding dimension mismatch");
    }
    for (double v : s.embedding) {
      if (!std::isfinite(v)) return reject("non-finite embedding entry");
    }
    if (s.parallelism < 1) return reject("parallelism < 1");
    if (s.label != 0 && s.label != 1) return reject("label outside {0, 1}");
  }
  return Status::OK();
}

}  // namespace streamtune::ml
