#ifndef ELSA_TENSOR_OPS_H_
#define ELSA_TENSOR_OPS_H_

/**
 * @file
 * Dense linear-algebra operations on elsa::Matrix.
 *
 * These are the reference (software, FP32) kernels: the self-attention
 * definition from Section II-A of the paper, plus the Kronecker-product
 * machinery from Section III-C used by the fast hash computation.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace elsa {

/** C = A * B. Shapes must agree (A.cols == B.rows). */
Matrix matmul(const Matrix& a, const Matrix& b);

/** C = A * B^T. Shapes must agree (A.cols == B.cols). */
Matrix matmulTransposedB(const Matrix& a, const Matrix& b);

/** Transpose of A. */
Matrix transpose(const Matrix& a);

/** Kronecker product A (x) B; see Section III-C of the paper. */
Matrix kronecker(const Matrix& a, const Matrix& b);

/** Dot product of two length-n float spans. */
double dot(const float* x, const float* y, std::size_t n);

/**
 * Score tile over a row range: out[j - begin] = dot(q, keys.row(j),
 * keys.cols()) for j in [begin, end), bit for bit. Runs on the
 * dispatched lane-per-key kernel (src/common/simd/); causal callers
 * pass their visibility limit as `end`.
 */
void scoreRows(const float* q, const Matrix& keys, std::size_t begin,
               std::size_t end, double* out);

/** Score tile over gathered rows: out[j] = dot(q, keys.row(rows[j]),
 *  keys.cols()) for j in [0, count), bit for bit. Rows must be
 *  < keys.rows(). */
void scoreGathered(const float* q, const Matrix& keys,
                   const std::uint32_t* rows, std::size_t count,
                   double* out);

/** Euclidean (L2) norm of a length-n float span. */
double l2Norm(const float* x, std::size_t n);

/**
 * L2 norm of every row of m in one pass (the batched key-norm
 * computation of the preprocessing phase). Element r equals
 * l2Norm(m.row(r), m.cols()) exactly.
 */
std::vector<double> l2NormRows(const Matrix& m);

/** In-place softmax over a row vector. Numerically stabilized. */
void softmaxInPlace(std::vector<double>& row);

/** Softmax of the given values. */
std::vector<double> softmax(const std::vector<double>& row);

/**
 * Reshape a flat vector of length r*c into an r x c matrix,
 * filling rows first (the "x.reshape(r, c)" of Section III-C).
 */
Matrix reshapeToMatrix(const std::vector<float>& x, std::size_t r,
                       std::size_t c);

/** Flatten a matrix into a row-major vector. */
std::vector<float> flatten(const Matrix& m);

/** Max absolute elementwise difference between two same-shaped matrices. */
double maxAbsDiff(const Matrix& a, const Matrix& b);

/** Frobenius norm of (a - b). */
double frobeniusDiff(const Matrix& a, const Matrix& b);

/** Frobenius norm of a. */
double frobeniusNorm(const Matrix& a);

} // namespace elsa

#endif // ELSA_TENSOR_OPS_H_
