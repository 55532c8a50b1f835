// The pinned training scenario: a pre-training run (with best-validation
// selection) and a CMD fine-tune (alpha > 0, both domain passes) on a small
// fixed dataset, hashed over every parameter bit after each phase. The
// hashes were recorded before training moved onto the shared arena forward
// and before it was sharded across threads; they hold at every pool size.
// One pair per kernel ISA.
#ifndef TESTS_GOLDEN_TRAINING_H_
#define TESTS_GOLDEN_TRAINING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/predictor.h"
#include "src/support/cpu_features.h"
#include "src/support/fnv_hash.h"

namespace cdmpp {

// Two devices (T4, V100), ten networks: small enough to train in seconds.
inline const Dataset& GoldenDataset() {
  static const Dataset* ds = [] {
    DatasetOptions opts;
    opts.device_ids = {0, 3};
    opts.schedules_per_task = 3;
    opts.max_networks = 10;
    opts.seed = 202;
    return new Dataset(BuildDataset(opts));
  }();
  return *ds;
}

inline PredictorConfig GoldenConfig() {
  PredictorConfig cfg;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  cfg.num_layers = 1;
  cfg.z_dim = 32;
  cfg.epochs = 6;
  cfg.batch_size = 64;
  cfg.seed = 3;
  cfg.alpha_cmd = 0.3;
  return cfg;
}

inline uint64_t HashParams(const std::vector<Matrix>& params) {
  uint64_t h = kFnvOffset;
  for (const Matrix& m : params) {
    h = FnvMix(h, static_cast<uint64_t>(m.rows()));
    h = FnvMix(h, static_cast<uint64_t>(m.cols()));
    for (size_t i = 0; i < m.size(); ++i) {
      h = FnvMixFloat(h, m.data()[i]);
    }
  }
  return h;
}

struct GoldenHashes {
  uint64_t pretrain = 0;
  uint64_t finetune = 0;
};

// The pinned hashes for the active kernel ISA.
inline GoldenHashes ExpectedGoldenHashes() {
  if (ActiveKernelIsa() == KernelIsa::kAvx2) {
    return {0x2256985d86540d2cull, 0xf999eb560d8654bcull};
  }
  return {0x7f64fc862033cdcdull, 0x6286d669fd377237ull};
}

// Trains the scenario on the global pool and the active ISA.
inline GoldenHashes RunGoldenTraining() {
  const Dataset& ds = GoldenDataset();
  Rng rng(21);
  SplitIndices src = SplitDataset(ds, {0}, {}, &rng);
  std::vector<int> tgt = SamplesOnDevice(ds, 3);
  tgt.resize(std::min<size_t>(tgt.size(), 240));
  std::vector<int> labeled(tgt.begin(), tgt.begin() + 40);
  std::vector<int> src_sub(src.train.begin(),
                           src.train.begin() + std::min<size_t>(240, src.train.size()));
  CdmppPredictor predictor(GoldenConfig());
  GoldenHashes out;
  predictor.Pretrain(ds, src.train, src.valid);
  out.pretrain = HashParams(predictor.ExportParams());
  predictor.Finetune(ds, labeled, src_sub, tgt, 3);
  out.finetune = HashParams(predictor.ExportParams());
  return out;
}

}  // namespace cdmpp

#endif  // TESTS_GOLDEN_TRAINING_H_
