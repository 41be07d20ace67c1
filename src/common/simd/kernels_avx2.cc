/**
 * @file
 * AVX2 kernel specializations. This translation unit is the only
 * x86-intrinsics site in the tree (elsa-lint: no-raw-intrinsics); it
 * is compiled with -mavx2 -mpopcnt on x86-64 targets, and the table
 * is handed out only after a runtime __builtin_cpu_supports check,
 * so nothing here executes on CPUs without AVX2.
 *
 * Hamming distance uses the in-register nibble-LUT population count
 * (Mula's algorithm): PSHUFB maps each nibble to its popcount and
 * PSADBW horizontally sums the per-byte counts into four 64-bit
 * lanes. All operations are integer, so results are bit-identical
 * to the scalar table by construction.
 *
 * The score tile runs one key per double lane: four floats of four
 * key rows are loaded and transposed so each vector holds one element
 * of every row, VCVTPS2PD widens it, and VMULPD/VADDPD advance each
 * lane's own sequential dot product -- the same
 * multiply-then-add sequence elsa::dot runs for that key, so every
 * lane rounds exactly as the scalar loop does. The custom-float
 * accumulate rounds on the IEEE bits with 64-bit integer adds and
 * masks. This TU is compiled with -ffp-contract=off (FMA is not
 * enabled either), so no multiply-add is ever fused.
 */

#include "common/simd/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace elsa::simd {

namespace {

/** Per-64-bit-lane popcount of a 256-bit vector. */
inline __m256i
popcount256(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1,
        2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    const __m256i counts =
        _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                        _mm256_shuffle_epi8(lut, hi));
    return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

/**
 * One-word rows (the k <= 64 hot case, e.g. the paper's k = 64):
 * four keys are XOR'd and popcounted per vector op.
 */
void
hammingBatchOneWord(std::uint64_t query, const std::uint64_t* keys,
                    std::size_t num_rows, std::uint32_t* out)
{
    const __m256i q = _mm256_set1_epi64x(
        static_cast<long long>(query));
    std::size_t r = 0;
    for (; r + 4 <= num_rows; r += 4) {
        const __m256i k = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(keys + r));
        const __m256i counts = popcount256(_mm256_xor_si256(q, k));
        alignas(32) std::uint64_t lanes[4];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), counts);
        out[r + 0] = static_cast<std::uint32_t>(lanes[0]);
        out[r + 1] = static_cast<std::uint32_t>(lanes[1]);
        out[r + 2] = static_cast<std::uint32_t>(lanes[2]);
        out[r + 3] = static_cast<std::uint32_t>(lanes[3]);
    }
    for (; r < num_rows; ++r) {
        out[r] = static_cast<std::uint32_t>(
            __builtin_popcountll(query ^ keys[r]));
    }
}

void
hammingBatchAvx2(const std::uint64_t* query, const std::uint64_t* keys,
                 std::size_t words_per_row, std::size_t num_rows,
                 std::uint32_t* out)
{
    if (words_per_row == 1) {
        hammingBatchOneWord(query[0], keys, num_rows, out);
        return;
    }
    for (std::size_t r = 0; r < num_rows; ++r) {
        const std::uint64_t* row = keys + r * words_per_row;
        std::uint64_t distance = 0;
        std::size_t w = 0;
        if (words_per_row >= 4) {
            __m256i acc = _mm256_setzero_si256();
            for (; w + 4 <= words_per_row; w += 4) {
                const __m256i qv = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(query + w));
                const __m256i kv = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(row + w));
                acc = _mm256_add_epi64(
                    acc, popcount256(_mm256_xor_si256(qv, kv)));
            }
            alignas(32) std::uint64_t lanes[4];
            _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
            distance = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        }
        for (; w < words_per_row; ++w) {
            distance += static_cast<std::uint64_t>(
                __builtin_popcountll(query[w] ^ row[w]));
        }
        out[r] = static_cast<std::uint32_t>(distance);
    }
}

int
popcountWordsAvx2(const std::uint64_t* words, std::size_t n)
{
    std::uint64_t count = 0;
    std::size_t i = 0;
    if (n >= 4) {
        __m256i acc = _mm256_setzero_si256();
        for (; i + 4 <= n; i += 4) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(words + i));
            acc = _mm256_add_epi64(acc, popcount256(v));
        }
        alignas(32) std::uint64_t lanes[4];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
        count = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    }
    for (; i < n; ++i) {
        count += static_cast<std::uint64_t>(
            __builtin_popcountll(words[i]));
    }
    return static_cast<int>(count);
}

/**
 * Sign packing: VCMPPS/VCMPPD with the ordered greater-equal
 * predicate reproduces the scalar `v >= 0` exactly (NaN compares
 * false, -0.0 compares true); MOVMSKPS/PD extracts the mask bits.
 */
void
signPackF32Avx2(const float* v, std::size_t n, std::uint64_t* out)
{
    const __m256 zero = _mm256_setzero_ps();
    const std::size_t words = (n + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
        out[w] = 0;
    }
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 x = _mm256_loadu_ps(v + i);
        const int mask = _mm256_movemask_ps(
            _mm256_cmp_ps(x, zero, _CMP_GE_OQ));
        out[i / 64] |= static_cast<std::uint64_t>(
                           static_cast<unsigned>(mask))
                       << (i % 64);
    }
    for (; i < n; ++i) {
        if (v[i] >= 0.0f) {
            out[i / 64] |= std::uint64_t{1} << (i % 64);
        }
    }
}

void
signPackF64Avx2(const double* v, std::size_t n, std::uint64_t* out)
{
    const __m256d zero = _mm256_setzero_pd();
    const std::size_t words = (n + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
        out[w] = 0;
    }
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d x = _mm256_loadu_pd(v + i);
        const int mask = _mm256_movemask_pd(
            _mm256_cmp_pd(x, zero, _CMP_GE_OQ));
        out[i / 64] |= static_cast<std::uint64_t>(
                           static_cast<unsigned>(mask))
                       << (i % 64);
    }
    for (; i < n; ++i) {
        if (v[i] >= 0.0) {
            out[i / 64] |= std::uint64_t{1} << (i % 64);
        }
    }
}

/** Scalar dot for the keys left over after the vector blocks. */
inline double
dotTail(const float* q, const float* row, std::size_t d)
{
    double acc = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
        acc += static_cast<double>(q[c]) * static_cast<double>(row[c]);
    }
    return acc;
}

/** acc lane l += q[c] * rows[l][c] for the four rows, one IEEE
 *  multiply and one add per lane. */
inline __m256d
scoreStep(__m256d acc, double qc, __m128 keys)
{
    return _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_set1_pd(qc), _mm256_cvtps_pd(keys)));
}

/**
 * Advance four lanes (rows[0..3]) over elements c..c+3 in order: load
 * four floats of each row, transpose so vector t holds element c + t
 * of all four rows, then four lane-wise multiply-add steps.
 */
inline __m256d
scoreStep4(__m256d acc, const float* q, const float* const* rows,
           std::size_t c)
{
    __m128 k0 = _mm_loadu_ps(rows[0] + c);
    __m128 k1 = _mm_loadu_ps(rows[1] + c);
    __m128 k2 = _mm_loadu_ps(rows[2] + c);
    __m128 k3 = _mm_loadu_ps(rows[3] + c);
    _MM_TRANSPOSE4_PS(k0, k1, k2, k3);
    acc = scoreStep(acc, static_cast<double>(q[c]), k0);
    acc = scoreStep(acc, static_cast<double>(q[c + 1]), k1);
    acc = scoreStep(acc, static_cast<double>(q[c + 2]), k2);
    return scoreStep(acc, static_cast<double>(q[c + 3]), k3);
}

/** Single-element step of the four lanes (the d % 4 tail). */
inline __m256d
scoreStep1(__m256d acc, const float* q, const float* const* rows,
           std::size_t c)
{
    return scoreStep(acc, static_cast<double>(q[c]),
                     _mm_setr_ps(rows[0][c], rows[1][c], rows[2][c],
                                 rows[3][c]));
}

/**
 * Lane-per-key score tile; row(j) yields row j's pointer. Blocks of
 * eight keys run two independent four-lane chains, then one
 * four-key block, then scalar keys. Every lane visits elements
 * 0..d-1 in order, so it is elsa::dot's chain for its key.
 */
template <typename RowAt>
void
scoreTileAvx2(const float* q, std::size_t d, std::size_t count,
              RowAt row, double* out)
{
    std::size_t j = 0;
    for (; j + 8 <= count; j += 8) {
        const float* rows[8];
        for (std::size_t l = 0; l < 8; ++l) {
            rows[l] = row(j + l);
        }
        __m256d lo = _mm256_setzero_pd();
        __m256d hi = _mm256_setzero_pd();
        std::size_t c = 0;
        for (; c + 4 <= d; c += 4) {
            lo = scoreStep4(lo, q, rows, c);
            hi = scoreStep4(hi, q, rows + 4, c);
        }
        for (; c < d; ++c) {
            lo = scoreStep1(lo, q, rows, c);
            hi = scoreStep1(hi, q, rows + 4, c);
        }
        _mm256_storeu_pd(out + j, lo);
        _mm256_storeu_pd(out + j + 4, hi);
    }
    if (j + 4 <= count) {
        const float* rows[4] = {row(j), row(j + 1), row(j + 2),
                                row(j + 3)};
        __m256d acc = _mm256_setzero_pd();
        std::size_t c = 0;
        for (; c + 4 <= d; c += 4) {
            acc = scoreStep4(acc, q, rows, c);
        }
        for (; c < d; ++c) {
            acc = scoreStep1(acc, q, rows, c);
        }
        _mm256_storeu_pd(out + j, acc);
        j += 4;
    }
    for (; j < count; ++j) {
        out[j] = dotTail(q, row(j), d);
    }
}

void
scoreRowsAvx2(const float* q, const float* keys, std::size_t stride,
              std::size_t d, std::size_t num_rows, double* out)
{
    scoreTileAvx2(
        q, d, num_rows,
        [&](std::size_t j) { return keys + j * stride; }, out);
}

void
scoreGatherAvx2(const float* q, const float* keys, std::size_t stride,
                std::size_t d, const std::uint32_t* index,
                std::size_t count, double* out)
{
    scoreTileAvx2(
        q, d, count,
        [&](std::size_t j) {
            return keys + static_cast<std::size_t>(index[j]) * stride;
        },
        out);
}

/**
 * acc[i] = quantize(acc[i] + scale * v[i]) four doubles at a time:
 * the in-range rounding is integer arithmetic on the sum's bits,
 * small magnitudes select +0.0, and lanes at or above the largest
 * finite magnitude (incl. inf/NaN, whose magnitude bits compare
 * higher still) keep the raw sum for the caller's reference path.
 * Magnitudes have the sign bit cleared, so the signed 64-bit compare
 * orders them correctly.
 */
std::size_t
cfloatAccumulateAvx2(double* acc, double scale, const float* v,
                     std::size_t n, const CustomFloatBits& format)
{
    const __m256d s = _mm256_set1_pd(scale);
    const __m256i magnitude_mask =
        _mm256_set1_epi64x(static_cast<long long>(~kDoubleSignBit));
    const __m256i min_normal =
        _mm256_set1_epi64x(static_cast<long long>(format.min_normal));
    const __m256i max_minus_one = _mm256_set1_epi64x(
        static_cast<long long>(format.max_magnitude - 1));
    const __m256i half_minus_one = _mm256_set1_epi64x(
        static_cast<long long>((std::uint64_t{1} << (format.drop_bits - 1))
                               - 1));
    const __m256i keep_mask = _mm256_set1_epi64x(static_cast<long long>(
        ~((std::uint64_t{1} << format.drop_bits) - 1)));
    const __m256i one = _mm256_set1_epi64x(1);
    const __m128i shift =
        _mm_cvtsi32_si128(static_cast<int>(format.drop_bits));

    std::size_t unquantized = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d sum = _mm256_add_pd(
            _mm256_loadu_pd(acc + i),
            _mm256_mul_pd(s, _mm256_cvtps_pd(_mm_loadu_ps(v + i))));
        const __m256i bits = _mm256_castpd_si256(sum);
        const __m256i magnitude = _mm256_and_si256(bits, magnitude_mask);
        const __m256i kept_lsb =
            _mm256_and_si256(_mm256_srl_epi64(bits, shift), one);
        const __m256i rounded = _mm256_and_si256(
            _mm256_add_epi64(_mm256_add_epi64(bits, half_minus_one),
                             kept_lsb),
            keep_mask);
        const __m256i small = _mm256_cmpgt_epi64(min_normal, magnitude);
        const __m256i large =
            _mm256_cmpgt_epi64(magnitude, max_minus_one);
        __m256i result = _mm256_andnot_si256(small, rounded);
        result = _mm256_blendv_epi8(result, bits, large);
        _mm256_storeu_pd(acc + i, _mm256_castsi256_pd(result));
        unquantized += static_cast<std::size_t>(__builtin_popcount(
            static_cast<unsigned>(
                _mm256_movemask_pd(_mm256_castsi256_pd(large)))));
    }
    for (; i < n; ++i) {
        const double sum = acc[i] + scale * static_cast<double>(v[i]);
        if (!quantizeCustomFloatInRange(sum, format, &acc[i])) {
            acc[i] = sum;
            ++unquantized;
        }
    }
    return unquantized;
}

const KernelTable kAvx2Table = {
    SimdLevel::kAvx2,  "avx2",          hammingBatchAvx2,
    popcountWordsAvx2, signPackF32Avx2, signPackF64Avx2,
    scoreRowsAvx2,     scoreGatherAvx2, cfloatAccumulateAvx2,
};

} // namespace

const KernelTable*
avx2KernelsOrNull()
{
    // The build compiled AVX2 code; only hand it out when the CPU
    // can actually execute it. The check itself is plain code.
    return __builtin_cpu_supports("avx2") ? &kAvx2Table : nullptr;
}

} // namespace elsa::simd

#else // !defined(__AVX2__)

namespace elsa::simd {

const KernelTable*
avx2KernelsOrNull()
{
    return nullptr;
}

} // namespace elsa::simd

#endif // defined(__AVX2__)
