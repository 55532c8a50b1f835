// Regression losses with analytic gradients: MSE, MAPE, MSPE and the paper's
// scale-insensitive hybrid objective (Eqn. 3): MSE + lambda * MAPE.
#ifndef SRC_NN_LOSS_H_
#define SRC_NN_LOSS_H_

#include <cstddef>

namespace cdmpp {

enum class LossKind { kMse, kMape, kMspe, kHybrid };

const char* LossKindName(LossKind kind);

// Computes the loss over n predictions and writes the gradient
// d(loss)/d(pred_i) into grad[n] (overwritten) in one pass; returns the loss.
// Each gradient element depends on its own prediction, target and n only.
// `lambda` is the MAPE coefficient of the hybrid objective (paper: 1e-3 when
// labels are raw latencies; with normalized labels, 0.1 keeps both terms at
// the same order of magnitude, matching the paper's stated intent).
// Targets with |y| < eps are guarded to avoid division blow-ups.
double ComputeLoss(LossKind kind, const float* pred, const float* target, size_t n,
                   double lambda, float* grad);

}  // namespace cdmpp

#endif  // SRC_NN_LOSS_H_
