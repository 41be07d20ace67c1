/**
 * @file
 * The portable kernel table: the reference every other table must
 * match bit for bit, and the fallback on CPUs without AVX2/NEON.
 */

#include "common/simd/simd.h"

#include <bit>

namespace elsa::simd {

namespace {

void
hammingBatchScalar(const std::uint64_t* query, const std::uint64_t* keys,
                   std::size_t words_per_row, std::size_t num_rows,
                   std::uint32_t* out)
{
    for (std::size_t r = 0; r < num_rows; ++r) {
        const std::uint64_t* row = keys + r * words_per_row;
        std::uint32_t distance = 0;
        for (std::size_t w = 0; w < words_per_row; ++w) {
            distance += static_cast<std::uint32_t>(
                std::popcount(query[w] ^ row[w]));
        }
        out[r] = distance;
    }
}

int
popcountWordsScalar(const std::uint64_t* words, std::size_t n)
{
    int count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        count += std::popcount(words[i]);
    }
    return count;
}

template <typename T>
void
signPackScalar(const T* v, std::size_t n, std::uint64_t* out)
{
    const std::size_t words = (n + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
        out[w] = 0;
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (v[i] >= T{0}) {
            out[i / 64] |= std::uint64_t{1} << (i % 64);
        }
    }
}

void
signPackF32Scalar(const float* v, std::size_t n, std::uint64_t* out)
{
    signPackScalar(v, n, out);
}

void
signPackF64Scalar(const double* v, std::size_t n, std::uint64_t* out)
{
    signPackScalar(v, n, out);
}

/**
 * Lane-per-key score tile: kKeys independent dot products advance
 * together, each its own sequential float->double multiply-then-add
 * chain -- exactly elsa::dot's operation sequence, so each result is
 * bit-identical to it -- while the interleaving hides the add
 * latency a single chain is bound by. row(j) yields row j's pointer.
 */
template <typename RowAt>
void
scoreTileScalar(const float* q, std::size_t d, std::size_t count,
                RowAt row, double* out)
{
    constexpr std::size_t kKeys = 8;
    std::size_t j = 0;
    for (; j + kKeys <= count; j += kKeys) {
        const float* rows[kKeys];
        double acc[kKeys];
        for (std::size_t l = 0; l < kKeys; ++l) {
            rows[l] = row(j + l);
            acc[l] = 0.0;
        }
        for (std::size_t c = 0; c < d; ++c) {
            const double qc = static_cast<double>(q[c]);
            for (std::size_t l = 0; l < kKeys; ++l) {
                acc[l] += qc * static_cast<double>(rows[l][c]);
            }
        }
        for (std::size_t l = 0; l < kKeys; ++l) {
            out[j + l] = acc[l];
        }
    }
    for (; j < count; ++j) {
        const float* r = row(j);
        double acc = 0.0;
        for (std::size_t c = 0; c < d; ++c) {
            acc += static_cast<double>(q[c]) * static_cast<double>(r[c]);
        }
        out[j] = acc;
    }
}

void
scoreRowsScalar(const float* q, const float* keys, std::size_t stride,
                std::size_t d, std::size_t num_rows, double* out)
{
    scoreTileScalar(
        q, d, num_rows,
        [&](std::size_t j) { return keys + j * stride; }, out);
}

void
scoreGatherScalar(const float* q, const float* keys, std::size_t stride,
                  std::size_t d, const std::uint32_t* index,
                  std::size_t count, double* out)
{
    scoreTileScalar(
        q, d, count,
        [&](std::size_t j) {
            return keys + static_cast<std::size_t>(index[j]) * stride;
        },
        out);
}

std::size_t
cfloatAccumulateScalar(double* acc, double scale, const float* v,
                       std::size_t n, const CustomFloatBits& format)
{
    std::size_t unquantized = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double sum = acc[i] + scale * static_cast<double>(v[i]);
        if (!quantizeCustomFloatInRange(sum, format, &acc[i])) {
            acc[i] = sum;
            ++unquantized;
        }
    }
    return unquantized;
}

const KernelTable kScalarTable = {
    SimdLevel::kScalar,  "scalar",          hammingBatchScalar,
    popcountWordsScalar, signPackF32Scalar, signPackF64Scalar,
    scoreRowsScalar,     scoreGatherScalar, cfloatAccumulateScalar,
};

} // namespace

const KernelTable&
scalarKernels()
{
    return kScalarTable;
}

} // namespace elsa::simd
