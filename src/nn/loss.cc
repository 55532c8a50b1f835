#include "src/nn/loss.h"

#include <cmath>

#include "src/support/check.h"

namespace cdmpp {

const char* LossKindName(LossKind kind) {
  switch (kind) {
    case LossKind::kMse:
      return "MSE";
    case LossKind::kMape:
      return "MAPE";
    case LossKind::kMspe:
      return "MSPE";
    case LossKind::kHybrid:
      return "MSE+MAPE";
  }
  return "unknown";
}

namespace {

constexpr double kEps = 1e-6;

double GuardedTarget(float y) {
  double ay = std::abs(static_cast<double>(y));
  return ay < kEps ? kEps : ay;
}

}  // namespace

double ComputeLoss(LossKind kind, const float* pred, const float* target, size_t count,
                   double lambda, float* grad) {
  CDMPP_CHECK(count > 0);
  const double n = static_cast<double>(count);
  double value = 0.0;
  for (size_t i = 0; i < count; ++i) {
    grad[i] = 0.0f;
  }

  auto add_mse = [&](double weight) {
    for (size_t i = 0; i < count; ++i) {
      double d = static_cast<double>(pred[i]) - target[i];
      value += weight * d * d / n;
      grad[i] += static_cast<float>(weight * 2.0 * d / n);
    }
  };
  auto add_mape = [&](double weight) {
    for (size_t i = 0; i < count; ++i) {
      double y = GuardedTarget(target[i]);
      double d = static_cast<double>(pred[i]) - target[i];
      value += weight * std::abs(d) / y / n;
      grad[i] += static_cast<float>(weight * (d >= 0.0 ? 1.0 : -1.0) / y / n);
    }
  };
  auto add_mspe = [&](double weight) {
    for (size_t i = 0; i < count; ++i) {
      double y = GuardedTarget(target[i]);
      double d = static_cast<double>(pred[i]) - target[i];
      value += weight * d * d / (y * y) / n;
      grad[i] += static_cast<float>(weight * 2.0 * d / (y * y) / n);
    }
  };

  switch (kind) {
    case LossKind::kMse:
      add_mse(1.0);
      break;
    case LossKind::kMape:
      add_mape(1.0);
      break;
    case LossKind::kMspe:
      add_mspe(1.0);
      break;
    case LossKind::kHybrid:
      add_mse(1.0);
      add_mape(lambda);
      break;
  }
  return value;
}

}  // namespace cdmpp
