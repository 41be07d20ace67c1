#ifndef ELSA_COMMON_SIMD_SIMD_H_
#define ELSA_COMMON_SIMD_SIMD_H_

/**
 * @file
 * Runtime-dispatched SIMD kernels for the functional hot path.
 *
 * Every sweep and every simulated query pays wall-clock for a handful
 * of kernels: XOR+popcount Hamming distance over packed hash words,
 * population counts, sign extraction (SRP's sign(proj) bit packing),
 * the float-by-float dot products of a query against many keys (the
 * score tile), and the custom-float re-quantized accumulation of the
 * attention datapath. This layer provides a scalar baseline plus
 * AVX2 and NEON specializations behind a dispatch table selected
 * exactly once at startup.
 *
 * Dispatch contract (the determinism safety net relies on it):
 *
 *  - every kernel is BIT-IDENTICAL across implementations. The
 *    integer kernels (XOR/popcount/shift) and the sign packing (an
 *    exact IEEE x >= 0 with NaN -> false) have nothing to round. The
 *    floating-point kernels keep the scalar operation sequence per
 *    output element: the score tile vectorizes ACROSS keys, so each
 *    lane performs exactly the sequential float->double
 *    multiply-then-add chain of elsa::dot for its own key, and the
 *    custom-float accumulate performs one IEEE multiply, one add and
 *    an integer rounding on the result's bits per element. Every
 *    kernel TU is compiled with -ffp-contract=off, so no multiply-add
 *    pair is ever fused into an FMA with a different rounding;
 *  - the active table is chosen once, from the CPU's capabilities
 *    and the optional ELSA_SIMD override (scalar|avx2|neon), and
 *    never changes afterwards. Because outputs are bit-identical,
 *    the choice can never leak into metrics, stats, traces, or any
 *    simulated result;
 *  - raw intrinsics live only under src/common/simd/ (enforced by
 *    the elsa-lint `no-raw-intrinsics` rule); the rest of the tree
 *    consumes these function pointers.
 *
 * See docs/PERFORMANCE.md for the measured throughput and how the
 * kernel_throughput bench entry tracks it.
 */

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace elsa::simd {

/**
 * A sign / exponent / fraction custom float format described by the
 * IEEE-754 double bit patterns the bit-level quantizer works on
 * (built from a CustomFloatFormat by src/fixed/custom_float.h; this
 * layer sits below src/fixed and only sees the constants).
 */
struct CustomFloatBits
{
    /** Double fraction bits dropped by the format: 52 - fraction_bits. */
    unsigned drop_bits;

    /** Bits of the smallest normal magnitude (a normal double). */
    std::uint64_t min_normal;

    /** Bits of the largest finite magnitude (a finite double). */
    std::uint64_t max_magnitude;
};

/** Mask of the IEEE-754 double sign bit. */
inline constexpr std::uint64_t kDoubleSignBit = std::uint64_t{1} << 63;

/**
 * Round the double with bit pattern `bits` to nearest, ties to even,
 * at fraction bit `drop_bits` of the IEEE encoding: add
 * 2^(drop_bits-1) - 1 plus the kept least-significant bit, then clear
 * the dropped bits. A carry out of the fraction increments the
 * exponent field, which is exactly the renormalization of a mantissa
 * that rounds up to 2.0. Valid for a nonzero finite normal double
 * whose rounded magnitude stays finite; the sign bit rides along
 * untouched.
 */
constexpr std::uint64_t
roundBitsToNearestEven(std::uint64_t bits, unsigned drop_bits)
{
    const std::uint64_t half_minus_one =
        (std::uint64_t{1} << (drop_bits - 1)) - 1;
    const std::uint64_t kept_lsb = (bits >> drop_bits) & 1;
    return (bits + half_minus_one + kept_lsb)
           & ~((std::uint64_t{1} << drop_bits) - 1);
}

/**
 * The in-range part of the bit-level custom-float quantizer: values
 * whose magnitude is below the smallest normal flush to +0.0, values
 * in [min_normal, max_magnitude) round to nearest even. Returns false
 * (leaving *out untouched) for everything else -- magnitudes at or
 * above the largest finite value, infinities, NaN -- which the caller
 * hands to the reference quantizer so saturation is handled and
 * counted in one place.
 */
constexpr bool
quantizeCustomFloatInRange(double value, const CustomFloatBits& format,
                           double* out)
{
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    const std::uint64_t magnitude = bits & ~kDoubleSignBit;
    if (magnitude < format.min_normal) {
        *out = 0.0;
        return true;
    }
    if (magnitude >= format.max_magnitude) {
        return false;
    }
    *out = std::bit_cast<double>(
        roundBitsToNearestEven(bits, format.drop_bits));
    return true;
}

/** Instruction-set level of a kernel table. */
enum class SimdLevel
{
    kScalar,
    kAvx2,
    kNeon,
};

/**
 * One complete kernel implementation. All pointers are always
 * non-null; all kernels accept zero-length inputs.
 *
 * Packed-word convention (shared with HashValue/HashMatrix): bit i
 * of a row lives in word i/64 at bit position i%64, and the unused
 * tail bits of the last word are zero.
 */
struct KernelTable
{
    SimdLevel level;

    /** Human-readable level name ("scalar", "avx2", "neon"). */
    const char* name;

    /**
     * out[r] = popcount(query XOR keys[r]) for r in [0, num_rows).
     * Rows are contiguous: row r starts at keys + r * words_per_row;
     * query holds words_per_row words.
     */
    void (*hamming_batch)(const std::uint64_t* query,
                          const std::uint64_t* keys,
                          std::size_t words_per_row,
                          std::size_t num_rows, std::uint32_t* out);

    /** Total population count of n words. */
    int (*popcount_words)(const std::uint64_t* words, std::size_t n);

    /**
     * Pack sign bits of n floats: bit i of out = (v[i] >= 0), NaN
     * packing to 0. Writes ceil(n/64) words; tail bits are zeroed.
     */
    void (*sign_pack_f32)(const float* v, std::size_t n,
                          std::uint64_t* out);

    /** Double-precision variant of sign_pack_f32. */
    void (*sign_pack_f64)(const double* v, std::size_t n,
                          std::uint64_t* out);

    /**
     * Score tile over contiguous rows: out[j] = dot(q, row j) for j in
     * [0, num_rows), where row j starts at keys + j * stride and both
     * it and q hold d floats. Bit-identical to elsa::dot per row (see
     * the dispatch contract above).
     */
    void (*score_rows)(const float* q, const float* keys,
                       std::size_t stride, std::size_t d,
                       std::size_t num_rows, double* out);

    /**
     * Score tile over a gathered row list: out[j] = dot(q, row
     * index[j]) for j in [0, count), rows laid out as in score_rows.
     */
    void (*score_gather)(const float* q, const float* keys,
                         std::size_t stride, std::size_t d,
                         const std::uint32_t* index, std::size_t count,
                         double* out);

    /**
     * Custom-float accumulate: acc[i] = quantize(acc[i] + scale * v[i])
     * for i in [0, n), the multiply and the add each rounded once in
     * double, the quantization as quantizeCustomFloatInRange. Elements
     * outside its range are left as the unquantized sum; returns how
     * many were (0 in the common case), for the caller to finish with
     * the reference quantizer.
     */
    std::size_t (*cfloat_accumulate)(double* acc, double scale,
                                     const float* v, std::size_t n,
                                     const CustomFloatBits& format);
};

/** The portable baseline (always available). */
const KernelTable& scalarKernels();

/**
 * The AVX2 table, or null when the binary was not built with the
 * AVX2 kernels or this CPU does not support AVX2.
 */
const KernelTable* avx2KernelsOrNull();

/** The NEON table, or null when not built for an ARM NEON target. */
const KernelTable* neonKernelsOrNull();

/** Table for an explicit level, or null when unavailable. */
const KernelTable* kernelsFor(SimdLevel level);

/** Levels usable in this process, scalar first. */
std::vector<SimdLevel> availableLevels();

/** Name of a level ("scalar", "avx2", "neon"). */
const char* levelName(SimdLevel level);

/**
 * Resolve a dispatch override string to a level. Null or empty
 * selects the best available level (highest ISA the CPU supports);
 * "scalar", "avx2", or "neon" force that level and fail loudly when
 * it is unknown or unavailable on this machine.
 */
SimdLevel resolveLevel(const char* override_value);

/**
 * The active kernel table. Selected once, on first use, from the
 * CPU's capabilities and the ELSA_SIMD environment override; stable
 * for the lifetime of the process.
 */
const KernelTable& kernels();

/** Level of the active table. */
SimdLevel activeLevel();

} // namespace elsa::simd

#endif // ELSA_COMMON_SIMD_SIMD_H_
