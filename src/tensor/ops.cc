#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "common/simd/simd.h"

namespace elsa {

Matrix
matmul(const Matrix& a, const Matrix& b)
{
    ELSA_CHECK(a.cols() == b.rows(),
               "matmul shape mismatch: " << a.rows() << "x" << a.cols()
                                         << " * " << b.rows() << "x"
                                         << b.cols());
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const float aik = a(i, k);
            if (aik == 0.0f) {
                continue;
            }
            const float* brow = b.row(k);
            float* crow = c.row(i);
            for (std::size_t j = 0; j < b.cols(); ++j) {
                crow[j] += aik * brow[j];
            }
        }
    }
    return c;
}

Matrix
matmulTransposedB(const Matrix& a, const Matrix& b)
{
    ELSA_CHECK(a.cols() == b.cols(),
               "matmulTransposedB shape mismatch: " << a.rows() << "x"
                                                    << a.cols() << " * ("
                                                    << b.rows() << "x"
                                                    << b.cols() << ")^T");
    Matrix c(a.rows(), b.rows());
    std::vector<double> scores(b.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        scoreRows(a.row(i), b, 0, b.rows(), scores.data());
        for (std::size_t j = 0; j < b.rows(); ++j) {
            c(i, j) = static_cast<float>(scores[j]);
        }
    }
    return c;
}

Matrix
transpose(const Matrix& a)
{
    Matrix t(a.cols(), a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            t(j, i) = a(i, j);
        }
    }
    return t;
}

Matrix
kronecker(const Matrix& a, const Matrix& b)
{
    Matrix k(a.rows() * b.rows(), a.cols() * b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            const float aij = a(i, j);
            for (std::size_t p = 0; p < b.rows(); ++p) {
                for (std::size_t q = 0; q < b.cols(); ++q) {
                    k(i * b.rows() + p, j * b.cols() + q) = aij * b(p, q);
                }
            }
        }
    }
    return k;
}

double
dot(const float* x, const float* y, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        acc += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    }
    return acc;
}

void
scoreRows(const float* q, const Matrix& keys, std::size_t begin,
          std::size_t end, double* out)
{
    ELSA_CHECK(begin <= end && end <= keys.rows(),
               "score tile rows [" << begin << "," << end
                                   << ") out of range");
    if (begin == end) {
        return;
    }
    simd::kernels().score_rows(q, keys.row(begin), keys.cols(),
                               keys.cols(), end - begin, out);
}

void
scoreGathered(const float* q, const Matrix& keys,
              const std::uint32_t* rows, std::size_t count, double* out)
{
    simd::kernels().score_gather(q, keys.data(), keys.cols(), keys.cols(),
                                 rows, count, out);
}

double
l2Norm(const float* x, std::size_t n)
{
    return std::sqrt(dot(x, x, n));
}

std::vector<double>
l2NormRows(const Matrix& m)
{
    std::vector<double> norms(m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r) {
        norms[r] = std::sqrt(dot(m.row(r), m.row(r), m.cols()));
    }
    return norms;
}

void
softmaxInPlace(std::vector<double>& row)
{
    ELSA_CHECK(!row.empty(), "softmax of empty row");
    const double max_val = *std::max_element(row.begin(), row.end());
    double sum = 0.0;
    for (auto& v : row) {
        v = std::exp(v - max_val);
        sum += v;
    }
    for (auto& v : row) {
        v /= sum;
    }
}

std::vector<double>
softmax(const std::vector<double>& row)
{
    std::vector<double> out = row;
    softmaxInPlace(out);
    return out;
}

Matrix
reshapeToMatrix(const std::vector<float>& x, std::size_t r, std::size_t c)
{
    ELSA_CHECK(x.size() == r * c,
               "reshape size mismatch: " << x.size() << " != " << r << "x"
                                         << c);
    return Matrix(r, c, x);
}

std::vector<float>
flatten(const Matrix& m)
{
    return std::vector<float>(m.data(), m.data() + m.size());
}

double
maxAbsDiff(const Matrix& a, const Matrix& b)
{
    ELSA_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
               "maxAbsDiff shape mismatch");
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        worst = std::max(
            worst, std::abs(static_cast<double>(a.data()[i])
                            - static_cast<double>(b.data()[i])));
    }
    return worst;
}

double
frobeniusDiff(const Matrix& a, const Matrix& b)
{
    ELSA_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
               "frobeniusDiff shape mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = static_cast<double>(a.data()[i])
                         - static_cast<double>(b.data()[i]);
        acc += d * d;
    }
    return std::sqrt(acc);
}

double
frobeniusNorm(const Matrix& a)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        acc += static_cast<double>(a.data()[i])
               * static_cast<double>(a.data()[i]);
    }
    return std::sqrt(acc);
}

} // namespace elsa
