#include "src/nn/matrix.h"

#include <cmath>

#include "src/nn/kernels.h"

namespace cdmpp {

void Matrix::XavierInit(Rng* rng) {
  CDMPP_CHECK(rng != nullptr);
  double limit = std::sqrt(6.0 / (rows_ + cols_));
  for (float& v : data_) {
    v = static_cast<float>(rng->Uniform(-limit, limit));
  }
}

void Matrix::AddInPlace(const Matrix& other) {
  CDMPP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += other.data_[i];
  }
}

void Matrix::AddScaled(const Matrix& other, float scale) {
  CDMPP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

void Matrix::Scale(float scale) {
  for (float& v : data_) {
    v *= scale;
  }
}

double Matrix::SquaredNorm() const {
  double s = 0.0;
  for (float v : data_) {
    s += static_cast<double>(v) * v;
  }
  return s;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  CDMPP_CHECK(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  kernels::GemmNN(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), b.data(), b.cols(),
                  /*beta=*/0.0f, out.data(), out.cols());
  return out;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  CDMPP_CHECK(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols());
  kernels::GemmTN(a.cols(), b.cols(), a.rows(), a.data(), a.cols(), b.data(), b.cols(),
                  /*beta=*/0.0f, out.data(), out.cols());
  return out;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  CDMPP_CHECK(a.cols() == b.cols());
  // The seed implementation's innermost loop strode BOTH operands along p
  // with nothing cached between j iterations: out[i][j] re-streamed a's row
  // for every j and touched a fresh b row each time, so b's rows fell out of
  // L1 long before they were revisited. kernels::GemmNT guarantees the fixed
  // access pattern this call site now relies on: per row i of a, columns j
  // are tiled by 4 so one unit-stride pass over a.Row(i) feeds four resident
  // b rows, and each out element is a single p-ascending dot product —
  // locality-blocked without changing the accumulation order.
  Matrix out(a.rows(), b.rows());
  kernels::GemmNT(a.rows(), b.rows(), a.cols(), a.data(), a.cols(), b.data(), b.cols(),
                  /*beta=*/0.0f, out.data(), out.cols());
  return out;
}

void AddRowBroadcast(Matrix* x, const Matrix& bias) {
  CDMPP_CHECK(bias.rows() == 1 && bias.cols() == x->cols());
  const float* b = bias.Row(0);
  for (int i = 0; i < x->rows(); ++i) {
    float* row = x->Row(i);
    for (int j = 0; j < x->cols(); ++j) {
      row[j] += b[j];
    }
  }
}

Matrix ColumnSum(const Matrix& x) {
  Matrix out(1, x.cols());
  for (int i = 0; i < x.rows(); ++i) {
    const float* row = x.Row(i);
    for (int j = 0; j < x.cols(); ++j) {
      out.At(0, j) += row[j];
    }
  }
  return out;
}

void SoftmaxRows(float* x, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    float* row = x + static_cast<size_t>(i) * cols;
    float mx = row[0];
    for (int j = 1; j < cols; ++j) {
      mx = std::max(mx, row[j]);
    }
    float sum = 0.0f;
    for (int j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (int j = 0; j < cols; ++j) {
      row[j] *= inv;
    }
  }
}

}  // namespace cdmpp
