#include "lsh/srp.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/simd/simd.h"
#include "fixed/fixed_point.h"
#include "lsh/orthogonal.h"
#include "obs/profile.h"
#include "tensor/ops.h"

namespace elsa {

// sign(x) per the paper -- 1 iff x >= 0 -- is computed by the
// dispatched sign_pack kernels (see simd.h for the exactness
// argument).

HashValue
SrpHasher::hash(const std::vector<float>& x) const
{
    ELSA_CHECK(x.size() == dim(),
               "hash input size " << x.size() << " != d = " << dim());
    return hash(x.data());
}

void
SrpHasher::hashInto(const float* x, std::uint64_t* out,
                    HashScratch& scratch) const
{
    // Generic fallback for hasher implementations that only provide
    // hash(); the packed words are copied out of the HashValue.
    (void)scratch;
    const HashValue h = hash(x);
    for (std::size_t w = 0; w < h.words().size(); ++w) {
        out[w] = h.words()[w];
    }
}

HashMatrix
SrpHasher::hashMatrix(const Matrix& m) const
{
    ELSA_CHECK(m.cols() == dim(),
               "hashMatrix input has " << m.cols() << " cols, d = "
                                       << dim());
    ELSA_PROF_SCOPE("lsh.hash_rows");
    HashMatrix hashes(m.rows(), bits());
    HashScratch scratch;
    for (std::size_t r = 0; r < m.rows(); ++r) {
        hashInto(m.row(r), hashes.rowWords(r), scratch);
    }
    return hashes;
}

std::vector<HashValue>
SrpHasher::hashRows(const Matrix& m) const
{
    const HashMatrix packed = hashMatrix(m);
    std::vector<HashValue> hashes;
    hashes.reserve(packed.rows());
    for (std::size_t r = 0; r < packed.rows(); ++r) {
        hashes.push_back(packed.rowValue(r));
    }
    return hashes;
}

// --- DenseSrpHasher --------------------------------------------------

DenseSrpHasher::DenseSrpHasher(Matrix projection)
    : projection_(std::move(projection))
{
    ELSA_CHECK(projection_.rows() > 0 && projection_.cols() > 0,
               "empty projection matrix");
}

DenseSrpHasher
DenseSrpHasher::makeRandom(std::size_t k, std::size_t d, Rng& rng)
{
    return DenseSrpHasher(randomOrthogonalProjection(k, d, rng));
}

HashValue
DenseSrpHasher::hash(const float* x) const
{
    HashValue h(bits());
    HashScratch scratch;
    hashInto(x, h.data(), scratch);
    return h;
}

void
DenseSrpHasher::hashInto(const float* x, std::uint64_t* out,
                         HashScratch& scratch) const
{
    // GEMV on the lane-per-key score tile: each projected value is
    // the same double-precision dot, in the same order, as the
    // scalar path, so the packed signs are bit-identical to per-bit
    // setBit hashing.
    const std::size_t k = bits();
    scratch.d.resize(k);
    scoreRows(x, projection_, 0, k, scratch.d.data());
    simd::kernels().sign_pack_f64(scratch.d.data(), k, out);
}

std::size_t
DenseSrpHasher::multiplicationsPerHash() const
{
    return bits() * dim();
}

// --- KroneckerSrpHasher ----------------------------------------------

KroneckerSrpHasher::KroneckerSrpHasher(std::vector<Matrix> factors)
    : factors_(std::move(factors))
{
    ELSA_CHECK(!factors_.empty(), "KroneckerSrpHasher needs >= 1 factor");
    factor_size_ = factors_.front().rows();
    dim_ = 1;
    for (const auto& f : factors_) {
        ELSA_CHECK(f.rows() == factor_size_ && f.cols() == factor_size_,
                   "Kronecker factors must all be square of equal size; "
                   "got " << f.rows() << "x" << f.cols() << " vs s = "
                          << factor_size_);
        dim_ *= factor_size_;
    }
}

KroneckerSrpHasher
KroneckerSrpHasher::makeRandom(std::size_t d, std::size_t num_factors,
                               Rng& rng, bool quantize_factors)
{
    ELSA_CHECK(num_factors >= 1, "need at least one Kronecker factor");
    const double root = std::pow(static_cast<double>(d),
                                 1.0 / static_cast<double>(num_factors));
    const auto s = static_cast<std::size_t>(std::lround(root));
    std::size_t check = 1;
    for (std::size_t i = 0; i < num_factors; ++i) {
        check *= s;
    }
    ELSA_CHECK(check == d,
               "d = " << d << " is not a perfect " << num_factors
                      << "-th power");
    std::vector<Matrix> factors;
    factors.reserve(num_factors);
    for (std::size_t i = 0; i < num_factors; ++i) {
        Matrix f = randomOrthogonalSquare(s, rng);
        if (quantize_factors) {
            f = quantizeProjectionMatrix(f);
        }
        factors.push_back(std::move(f));
    }
    return KroneckerSrpHasher(std::move(factors));
}

std::vector<float>
KroneckerSrpHasher::project(const float* x) const
{
    HashScratch scratch;
    const float* projected = projectInto(x, scratch);
    return std::vector<float>(projected, projected + dim_);
}

const float*
KroneckerSrpHasher::projectInto(const float* x, HashScratch& scratch) const
{
    const std::size_t s = factor_size_;
    const std::size_t m = factors_.size();
    scratch.f.assign(x, x + dim_);
    scratch.f2.resize(dim_);
    std::vector<float>& buf = scratch.f;
    std::vector<float>& tmp = scratch.f2;
    // Contract one tensor mode per factor. Viewing x as an order-m
    // tensor with every mode of extent s, mode t has stride s^(m-1-t)
    // in row-major order; contracting A_t over mode t costs d*s
    // multiplications, for m*d*s total (Section III-C).
    std::size_t stride = dim_ / s; // stride of mode 0
    for (std::size_t t = 0; t < m; ++t) {
        const Matrix& a = factors_[t];
        const std::size_t block = s * stride;
        for (std::size_t base = 0; base < dim_; base += block) {
            for (std::size_t inner = 0; inner < stride; ++inner) {
                const std::size_t offset = base + inner;
                for (std::size_t j = 0; j < s; ++j) {
                    double acc = 0.0;
                    for (std::size_t i = 0; i < s; ++i) {
                        acc += static_cast<double>(a(j, i))
                               * static_cast<double>(
                                   buf[offset + i * stride]);
                    }
                    tmp[offset + j * stride] = static_cast<float>(acc);
                }
            }
        }
        buf.swap(tmp);
        stride /= s;
    }
    return buf.data();
}

HashValue
KroneckerSrpHasher::hash(const float* x) const
{
    HashValue h(dim_);
    HashScratch scratch;
    hashInto(x, h.data(), scratch);
    return h;
}

void
KroneckerSrpHasher::hashInto(const float* x, std::uint64_t* out,
                             HashScratch& scratch) const
{
    // sign_pack_f32's `v >= 0.0f` equals the historical per-bit
    // `double(v) >= 0.0` for every float, so the packed result is
    // bit-identical to the setBit path.
    const float* projected = projectInto(x, scratch);
    simd::kernels().sign_pack_f32(projected, dim_, out);
}

std::size_t
KroneckerSrpHasher::multiplicationsPerHash() const
{
    return factors_.size() * dim_ * factor_size_;
}

Matrix
KroneckerSrpHasher::denseProjection() const
{
    Matrix acc = factors_.front();
    for (std::size_t i = 1; i < factors_.size(); ++i) {
        acc = kronecker(acc, factors_[i]);
    }
    return acc;
}

// --- Quantization ----------------------------------------------------

Matrix
quantizeProjectionMatrix(const Matrix& m)
{
    Matrix out(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.rows(); ++i) {
        for (std::size_t j = 0; j < m.cols(); ++j) {
            out(i, j) = static_cast<float>(
                quantize<0, 5>(static_cast<double>(m(i, j))));
        }
    }
    return out;
}

} // namespace elsa
