/**
 * @file
 * ARM NEON kernel specializations, the AArch64 counterpart of
 * kernels_avx2.cc and the only NEON-intrinsics site in the tree
 * (elsa-lint: no-raw-intrinsics). NEON is baseline on AArch64, so
 * unlike AVX2 there is no runtime CPU check: if the compiler defined
 * __ARM_NEON the table is available, otherwise this TU compiles to
 * the null stub.
 *
 * CNT (vcntq_u8) counts bits per byte; ADDV folds the byte counts.
 * All operations are integer or exact IEEE >= comparisons, so
 * results are bit-identical to the scalar table by construction.
 *
 * The score tile runs one key per double lane (two keys per
 * float64x2, two vectors per block), each lane the sequential
 * multiply-then-add chain elsa::dot runs for its key; the custom-float
 * accumulate rounds on the IEEE bits with 64-bit integer adds and
 * masks. FMA is baseline on AArch64, so this TU's -ffp-contract=off
 * is what keeps VMUL+VADD from being fused into an FMLA with a
 * different rounding.
 */

#include "common/simd/simd.h"

#if defined(__ARM_NEON)

#include <arm_neon.h>

namespace elsa::simd {

namespace {

/** Total popcount of a 128-bit vector. */
inline std::uint32_t
popcount128(uint8x16_t v)
{
    return vaddvq_u8(vcntq_u8(v));
}

void
hammingBatchNeon(const std::uint64_t* query, const std::uint64_t* keys,
                 std::size_t words_per_row, std::size_t num_rows,
                 std::uint32_t* out)
{
    for (std::size_t r = 0; r < num_rows; ++r) {
        const std::uint64_t* row = keys + r * words_per_row;
        std::uint32_t distance = 0;
        std::size_t w = 0;
        for (; w + 2 <= words_per_row; w += 2) {
            const uint64x2_t qv = vld1q_u64(query + w);
            const uint64x2_t kv = vld1q_u64(row + w);
            distance += popcount128(
                vreinterpretq_u8_u64(veorq_u64(qv, kv)));
        }
        for (; w < words_per_row; ++w) {
            distance += static_cast<std::uint32_t>(
                __builtin_popcountll(query[w] ^ row[w]));
        }
        out[r] = distance;
    }
}

int
popcountWordsNeon(const std::uint64_t* words, std::size_t n)
{
    std::uint32_t count = 0;
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        count += popcount128(vreinterpretq_u8_u64(vld1q_u64(words + i)));
    }
    for (; i < n; ++i) {
        count += static_cast<std::uint32_t>(
            __builtin_popcountll(words[i]));
    }
    return static_cast<int>(count);
}

/**
 * Sign packing via FCMGE against zero: lane i is all-ones when
 * v[i] >= 0 (NaN compares false, -0.0 true), matching the scalar
 * `v >= 0` exactly; the masked lane bits are OR-folded into the
 * output word.
 */
void
signPackF32Neon(const float* v, std::size_t n, std::uint64_t* out)
{
    const float32x4_t zero = vdupq_n_f32(0.0f);
    const std::size_t words = (n + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
        out[w] = 0;
    }
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const uint32x4_t ge = vcgeq_f32(vld1q_f32(v + i), zero);
        const uint32x4_t lane_bits = {1u, 2u, 4u, 8u};
        const std::uint32_t mask =
            vaddvq_u32(vandq_u32(ge, lane_bits));
        out[i / 64] |= static_cast<std::uint64_t>(mask) << (i % 64);
    }
    for (; i < n; ++i) {
        if (v[i] >= 0.0f) {
            out[i / 64] |= std::uint64_t{1} << (i % 64);
        }
    }
}

void
signPackF64Neon(const double* v, std::size_t n, std::uint64_t* out)
{
    const float64x2_t zero = vdupq_n_f64(0.0);
    const std::size_t words = (n + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
        out[w] = 0;
    }
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t ge = vcgeq_f64(vld1q_f64(v + i), zero);
        const uint64x2_t lane_bits = {1u, 2u};
        const std::uint64_t mask =
            vaddvq_u64(vandq_u64(ge, lane_bits));
        out[i / 64] |= mask << (i % 64);
    }
    for (; i < n; ++i) {
        if (v[i] >= 0.0) {
            out[i / 64] |= std::uint64_t{1} << (i % 64);
        }
    }
}

/** Elements c of two rows, widened to double. */
inline float64x2_t
widenPair(const float* a, const float* b, std::size_t c)
{
    return vcvt_f64_f32(vset_lane_f32(b[c], vdup_n_f32(a[c]), 1));
}

/** Lane-per-key score tile; row(j) yields row j's pointer. */
template <typename RowAt>
void
scoreTileNeon(const float* q, std::size_t d, std::size_t count,
              RowAt row, double* out)
{
    std::size_t j = 0;
    for (; j + 4 <= count; j += 4) {
        const float* r0 = row(j);
        const float* r1 = row(j + 1);
        const float* r2 = row(j + 2);
        const float* r3 = row(j + 3);
        float64x2_t lo = vdupq_n_f64(0.0);
        float64x2_t hi = vdupq_n_f64(0.0);
        for (std::size_t c = 0; c < d; ++c) {
            const float64x2_t qc = vdupq_n_f64(static_cast<double>(q[c]));
            lo = vaddq_f64(lo, vmulq_f64(qc, widenPair(r0, r1, c)));
            hi = vaddq_f64(hi, vmulq_f64(qc, widenPair(r2, r3, c)));
        }
        vst1q_f64(out + j, lo);
        vst1q_f64(out + j + 2, hi);
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
scoreRowsNeon(const float* q, const float* keys, std::size_t stride,
              std::size_t d, std::size_t num_rows, double* out)
{
    scoreTileNeon(
        q, d, num_rows,
        [&](std::size_t j) { return keys + j * stride; }, out);
}

void
scoreGatherNeon(const float* q, const float* keys, std::size_t stride,
                std::size_t d, const std::uint32_t* index,
                std::size_t count, double* out)
{
    scoreTileNeon(
        q, d, count,
        [&](std::size_t j) {
            return keys + static_cast<std::size_t>(index[j]) * stride;
        },
        out);
}

/** acc[i] = quantize(acc[i] + scale * v[i]) two doubles at a time;
 *  see cfloatAccumulateAvx2 for the lane selection. */
std::size_t
cfloatAccumulateNeon(double* acc, double scale, const float* v,
                     std::size_t n, const CustomFloatBits& format)
{
    const float64x2_t s = vdupq_n_f64(scale);
    const uint64x2_t magnitude_mask = vdupq_n_u64(~kDoubleSignBit);
    const uint64x2_t min_normal = vdupq_n_u64(format.min_normal);
    const uint64x2_t max_magnitude = vdupq_n_u64(format.max_magnitude);
    const uint64x2_t half_minus_one = vdupq_n_u64(
        (std::uint64_t{1} << (format.drop_bits - 1)) - 1);
    const uint64x2_t keep_mask =
        vdupq_n_u64(~((std::uint64_t{1} << format.drop_bits) - 1));
    const uint64x2_t one = vdupq_n_u64(1);
    const int64x2_t shift =
        vdupq_n_s64(-static_cast<std::int64_t>(format.drop_bits));
    const uint64x2_t zero = vdupq_n_u64(0);

    std::size_t unquantized = 0;
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const float64x2_t sum = vaddq_f64(
            vld1q_f64(acc + i), vmulq_f64(s, vcvt_f64_f32(vld1_f32(v + i))));
        const uint64x2_t bits = vreinterpretq_u64_f64(sum);
        const uint64x2_t magnitude = vandq_u64(bits, magnitude_mask);
        const uint64x2_t kept_lsb =
            vandq_u64(vshlq_u64(bits, shift), one);
        const uint64x2_t rounded = vandq_u64(
            vaddq_u64(vaddq_u64(bits, half_minus_one), kept_lsb),
            keep_mask);
        const uint64x2_t small = vcltq_u64(magnitude, min_normal);
        const uint64x2_t large = vcgeq_u64(magnitude, max_magnitude);
        uint64x2_t result = vbslq_u64(small, zero, rounded);
        result = vbslq_u64(large, bits, result);
        vst1q_f64(acc + i, vreinterpretq_f64_u64(result));
        unquantized += static_cast<std::size_t>(
            vgetq_lane_u64(vandq_u64(large, one), 0)
            + vgetq_lane_u64(vandq_u64(large, one), 1));
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

const KernelTable kNeonTable = {
    SimdLevel::kNeon,  "neon",          hammingBatchNeon,
    popcountWordsNeon, signPackF32Neon, signPackF64Neon,
    scoreRowsNeon,     scoreGatherNeon, cfloatAccumulateNeon,
};

} // namespace

const KernelTable*
neonKernelsOrNull()
{
    return &kNeonTable;
}

} // namespace elsa::simd

#else // !defined(__ARM_NEON)

namespace elsa::simd {

const KernelTable*
neonKernelsOrNull()
{
    return nullptr;
}

} // namespace elsa::simd

#endif // defined(__ARM_NEON)
