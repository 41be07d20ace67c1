#ifndef ELSA_FIXED_CUSTOM_FLOAT_H_
#define ELSA_FIXED_CUSTOM_FLOAT_H_

/**
 * @file
 * Custom floating-point format of the ELSA datapath (Section IV-E).
 *
 * The output of the exponent unit and all computation downstream of it
 * (the running sum of exponentiated scores, the weighted value
 * accumulation) use a custom floating-point representation with a
 * single sign bit, ten exponent bits, and five fraction bits, to cover
 * the huge dynamic range of e^x. CustomFloat models the format's
 * quantization: values round to the nearest representable number and
 * saturate at the format's limits.
 *
 * The format is constexpr end to end: compile-time tests pin the bias,
 * the saturation magnitude, the subnormal flush, and the rounding
 * behaviour in static_assert (tests/fixed_test.cc). The runtime path
 * is bit-identical to the previous out-of-line implementation -- the
 * fixed_detail helpers fall through to the same libm calls outside
 * constant evaluation.
 *
 * quantizeToCustomFloat is the reference. The simulator's hot loops
 * use the bit-level forms below instead (quantizeCustomFloatFast and
 * accumulateCustomFloat), which round directly on the IEEE-754 bits
 * of the double and hand every saturating or non-finite input back to
 * the reference, so results and saturation counts are identical; the
 * agreement is tested on random bit patterns and every edge case in
 * tests/fixed_test.cc.
 */

#include <bit>
#include <cstddef>
#include <cstdint>

#include "common/simd/simd.h"
#include "fixed/constexpr_math.h"
#include "fixed/saturation.h"

namespace elsa {

/** Parameters of a sign/exponent/fraction custom float format. */
struct CustomFloatFormat
{
    int exponent_bits = 10;
    int fraction_bits = 5;

    /** Exponent bias; follows the IEEE convention 2^(E-1) - 1. */
    constexpr int bias() const { return (1 << (exponent_bits - 1)) - 1; }

    /** Largest finite representable magnitude. */
    constexpr double
    maxMagnitude() const
    {
        // Largest exponent (all-ones reserved would be the IEEE
        // convention; the ELSA unit does not need infinities, so we
        // use the full range).
        const int max_exp = (1 << exponent_bits) - 1 - bias();
        const double max_mantissa =
            2.0 - fixed_detail::scaleByPow2(1.0, -fraction_bits);
        return fixed_detail::scaleByPow2(max_mantissa, max_exp);
    }

    /** Smallest positive normal magnitude. */
    constexpr double
    minNormal() const
    {
        return fixed_detail::scaleByPow2(1.0, -bias());
    }
};

/** The format used by the ELSA pipeline: 1 sign / 10 exponent / 5 frac. */
inline constexpr CustomFloatFormat kElsaFloatFormat{10, 5};

/**
 * Quantize a double to the given custom float format (round to
 * nearest, saturate to the largest finite value, flush subnormals
 * to zero, preserve sign).
 */
constexpr double
quantizeToCustomFloat(double value,
                      const CustomFloatFormat& format = kElsaFloatFormat)
{
    if (value == 0.0 || !fixed_detail::isFinite(value)) {
        if (!fixed_detail::isFinite(value)) {
            noteCustomFloatSaturation();
            return fixed_detail::copySign(format.maxMagnitude(), value);
        }
        return 0.0;
    }
    const double magnitude = fixed_detail::absValue(value);
    if (magnitude >= format.maxMagnitude()) {
        // Exactly maxMagnitude is representable, not clipped.
        if (magnitude > format.maxMagnitude()) {
            noteCustomFloatSaturation();
        }
        return fixed_detail::copySign(format.maxMagnitude(), value);
    }
    if (magnitude < format.minNormal()) {
        // Flush to zero; the ELSA pipeline has no subnormal support.
        return 0.0;
    }
    int exp = 0;
    const double mantissa =
        fixed_detail::normalizedFraction(magnitude, exp); // in [0.5, 1)
    // Normalize mantissa to [1, 2) with exponent exp - 1.
    const double m = mantissa * 2.0;
    const double scale = fixed_detail::scaleByPow2(1.0, format.fraction_bits);
    const double rounded =
        fixed_detail::roundTiesToEven((m - 1.0) * scale) / scale + 1.0;
    return fixed_detail::copySign(fixed_detail::scaleByPow2(rounded, exp - 1),
                                  value);
}

/**
 * IEEE-bit constants of a format for the bit-level quantizers. Its
 * smallest normal and largest finite magnitudes must be normal finite
 * doubles (exponent_bits <= 10) and it must drop at least one double
 * fraction bit (fraction_bits <= 51).
 */
constexpr simd::CustomFloatBits
customFloatBits(const CustomFloatFormat& format)
{
    return {static_cast<unsigned>(52 - format.fraction_bits),
            std::bit_cast<std::uint64_t>(format.minNormal()),
            std::bit_cast<std::uint64_t>(format.maxMagnitude())};
}

static_assert(kElsaFloatFormat.exponent_bits <= 10
              && kElsaFloatFormat.fraction_bits <= 51);

/** kElsaFloatFormat's IEEE-bit constants. */
inline constexpr simd::CustomFloatBits kElsaFloatBits =
    customFloatBits(kElsaFloatFormat);

/**
 * quantizeToCustomFloat(value) (kElsaFloatFormat) on the IEEE bits:
 * in-range magnitudes round with one integer add and mask, magnitudes
 * below the smallest normal flush to +0.0, and everything else
 * (saturating, +-inf, NaN) is handed to the reference, which
 * saturates and counts. Equal to the reference for every input.
 */
constexpr double
quantizeCustomFloatFast(double value)
{
    double out = 0.0;
    if (simd::quantizeCustomFloatInRange(value, kElsaFloatBits, &out)) {
        return out;
    }
    return quantizeToCustomFloat(value);
}

/**
 * The weighted accumulate of the attention datapath,
 * acc[i] = quantizeToCustomFloat(acc[i] + scale * v[i]) for i in
 * [0, n), through the vector kernel of `table`; the rare elements it
 * leaves unquantized (saturating or non-finite sums) finish on the
 * reference quantizer, which saturates and counts them.
 * Every table gives identical results; tests and benchmarks pin one.
 */
inline void
accumulateCustomFloat(double* acc, double scale, const float* v,
                      std::size_t n,
                      const simd::KernelTable& table = simd::kernels())
{
    if (table.cfloat_accumulate(acc, scale, v, n, kElsaFloatBits) == 0) {
        return;
    }
    constexpr double kMaxMagnitude = kElsaFloatFormat.maxMagnitude();
    for (std::size_t i = 0; i < n; ++i) {
        if (!(fixed_detail::absValue(acc[i]) < kMaxMagnitude)) {
            acc[i] = quantizeToCustomFloat(acc[i]);
        }
    }
}

/**
 * A value held in a custom float format.
 *
 * The value is stored as the already-quantized double, plus the format,
 * so downstream arithmetic can be carried out in double precision and
 * re-quantized at each stage boundary (which is what the hardware's
 * normalize-and-round steps do).
 */
class CustomFloat
{
  public:
    CustomFloat() = default;

    /** Quantize a real value into the given format. */
    static constexpr CustomFloat
    fromReal(double value, const CustomFloatFormat& format = kElsaFloatFormat)
    {
        CustomFloat cf;
        cf.format_ = format;
        cf.value_ = quantizeToCustomFloat(value, format);
        return cf;
    }

    /** The represented (already quantized) value. */
    constexpr double toReal() const { return value_; }

    /** Sum with re-quantization, as the accumulator hardware performs. */
    constexpr CustomFloat
    add(const CustomFloat& other) const
    {
        return fromReal(value_ + other.value_, format_);
    }

    /** Product with re-quantization. */
    constexpr CustomFloat
    mul(const CustomFloat& other) const
    {
        return fromReal(value_ * other.value_, format_);
    }

    constexpr const CustomFloatFormat& format() const { return format_; }

  private:
    double value_ = 0.0;
    CustomFloatFormat format_ = kElsaFloatFormat;
};

} // namespace elsa

#endif // ELSA_FIXED_CUSTOM_FLOAT_H_
