/**
 * @file
 * Unit tests for the hardware number formats (Section IV-E):
 * fixed-point quantization, the custom float format, and the LUT
 * functional units (exponent, reciprocal, square root).
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "fixed/custom_float.h"
#include "fixed/fixed_point.h"
#include "fixed/units.h"

namespace elsa {
namespace {

// ---------------------------------------------------------------------
// Compile-time pins. The number formats are constexpr, so the Q-format
// widths, the ties-to-even rounding, and the saturation bounds are
// asserted at compile time: a change to any of them fails the build
// here before it can skew a simulation result. Runtime tests below
// additionally pin that constant evaluation and runtime agree.
// ---------------------------------------------------------------------

// S5.3 input format: 9 bits total, scale 8, raw range [-256, 255].
static_assert(InputFixed::kTotalBits == 9);
static_assert(InputFixed::kScale == 8);
static_assert(InputFixed::kRawMax == 255);
static_assert(InputFixed::kRawMin == -256);
static_assert(InputFixed::step() == 0.125);
static_assert(InputFixed::maxReal() == 31.875);
static_assert(InputFixed::minReal() == -32.0);

// S0.5 hash-matrix format: 6 bits total, scale 32.
static_assert(HashMatrixFixed::kTotalBits == 6);
static_assert(HashMatrixFixed::kScale == 32);
static_assert(HashMatrixFixed::kRawMax == 31);
static_assert(HashMatrixFixed::kRawMin == -32);

// Rounding is to nearest with ties to even: 1.0625 scales to raw 8.5
// (rounds down to even 8) while 1.1875 scales to raw 9.5 (rounds up
// to even 10).
static_assert(InputFixed::fromReal(1.0625).raw() == 8);
static_assert(InputFixed::fromReal(1.1875).raw() == 10);
static_assert(InputFixed::fromReal(1.06).toReal() == 1.0);
static_assert(InputFixed::fromReal(1.07).toReal() == 1.125);
static_assert(quantize<5, 3>(1.06) == 1.0);

// Saturation clamps to the raw range in both fromReal and fromRaw.
static_assert(InputFixed::fromReal(100.0).raw() == InputFixed::kRawMax);
static_assert(InputFixed::fromReal(-100.0).raw() == InputFixed::kRawMin);
static_assert(InputFixed::fromRaw(1000).raw() == 255);
static_assert(InputFixed::fromRaw(-1000).raw() == -256);

// Custom float: 10 exponent bits -> bias 511; round-to-nearest-even
// at 5 fraction bits; saturate at maxMagnitude; flush below
// minNormal.
static_assert(kElsaFloatFormat.bias() == 511);
static_assert(kElsaFloatFormat.maxMagnitude() > 1e150);
static_assert(kElsaFloatFormat.minNormal() < 1e-150);
static_assert(quantizeToCustomFloat(1.5) == 1.5);
static_assert(quantizeToCustomFloat(1.0 + 1.0 / 64.0) == 1.0);
static_assert(quantizeToCustomFloat(1.0 + 3.0 / 64.0) == 1.0 + 1.0 / 16.0);
static_assert(quantizeToCustomFloat(kElsaFloatFormat.maxMagnitude() * 4.0)
              == kElsaFloatFormat.maxMagnitude());
static_assert(quantizeToCustomFloat(-kElsaFloatFormat.maxMagnitude() * 4.0)
              == -kElsaFloatFormat.maxMagnitude());
static_assert(quantizeToCustomFloat(kElsaFloatFormat.minNormal() / 4.0)
              == 0.0);
// The bit-level quantizer agrees with the reference at compile time.
static_assert(quantizeCustomFloatFast(1.0 + 1.0 / 64.0) == 1.0);
static_assert(quantizeCustomFloatFast(1.0 + 3.0 / 64.0)
              == 1.0 + 1.0 / 16.0);
static_assert(quantizeCustomFloatFast(-(2.0 - 1.0 / 64.0)) == -2.0);
static_assert(quantizeCustomFloatFast(kElsaFloatFormat.maxMagnitude() * 4.0)
              == kElsaFloatFormat.maxMagnitude());
static_assert(kElsaFloatBits.drop_bits == 47);
static_assert(CustomFloat::fromReal(1.0)
                  .add(CustomFloat::fromReal(1.0 / 64.0))
                  .toReal()
              == 1.0);
static_assert(CustomFloat::fromReal(1.5)
                  .mul(CustomFloat::fromReal(2.0))
                  .toReal()
              == 3.0);

TEST(FixedPointTest, InputFormatProperties)
{
    // S5.3: 9 bits total, step 1/8, range [-32, 31.875].
    EXPECT_EQ(InputFixed::kTotalBits, 9);
    EXPECT_DOUBLE_EQ(InputFixed::step(), 0.125);
    EXPECT_DOUBLE_EQ(InputFixed::maxReal(), 31.875);
    EXPECT_DOUBLE_EQ(InputFixed::minReal(), -32.0);
}

TEST(FixedPointTest, HashMatrixFormatProperties)
{
    // S0.5: 6 bits total, step 1/32.
    EXPECT_EQ(HashMatrixFixed::kTotalBits, 6);
    EXPECT_DOUBLE_EQ(HashMatrixFixed::step(), 1.0 / 32.0);
}

TEST(FixedPointTest, RoundsToNearest)
{
    EXPECT_DOUBLE_EQ(InputFixed::fromReal(1.0).toReal(), 1.0);
    EXPECT_DOUBLE_EQ(InputFixed::fromReal(1.06).toReal(), 1.0);
    EXPECT_DOUBLE_EQ(InputFixed::fromReal(1.07).toReal(), 1.125);
    EXPECT_DOUBLE_EQ(InputFixed::fromReal(-0.06).toReal(), -0.0625 * 0.0);
}

TEST(FixedPointTest, SaturatesAtRangeLimits)
{
    EXPECT_DOUBLE_EQ(InputFixed::fromReal(100.0).toReal(), 31.875);
    EXPECT_DOUBLE_EQ(InputFixed::fromReal(-100.0).toReal(), -32.0);
}

TEST(FixedPointTest, QuantizationErrorBoundedByHalfStep)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-31.0, 31.0);
        const double q = quantize<5, 3>(x);
        EXPECT_LE(std::abs(q - x), 0.0625 + 1e-12);
    }
}

TEST(FixedPointTest, RawRoundTrip)
{
    const auto fp = InputFixed::fromRaw(17);
    EXPECT_EQ(fp.raw(), 17);
    EXPECT_DOUBLE_EQ(fp.toReal(), 17.0 / 8.0);
}

TEST(CustomFloatTest, FormatRange)
{
    // 10 exponent bits -> bias 511.
    EXPECT_EQ(kElsaFloatFormat.bias(), 511);
    EXPECT_GT(kElsaFloatFormat.maxMagnitude(), 1e150);
    EXPECT_LT(kElsaFloatFormat.minNormal(), 1e-150);
}

TEST(CustomFloatTest, ExactForRepresentableValues)
{
    // 1.0, 2.0, 1.5 and friends are exactly representable with
    // 5 fraction bits.
    for (const double v : {1.0, 2.0, 1.5, 0.75, -3.25, 1024.0}) {
        EXPECT_DOUBLE_EQ(quantizeToCustomFloat(v), v);
    }
}

TEST(CustomFloatTest, RelativeErrorBounded)
{
    // 5 fraction bits -> relative error <= 2^-6.
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const double x = std::exp(rng.uniform(-50.0, 50.0));
        const double q = quantizeToCustomFloat(x);
        EXPECT_LE(std::abs(q - x) / x, std::ldexp(1.0, -6) + 1e-12);
    }
}

TEST(CustomFloatTest, SaturatesAndFlushes)
{
    const double max = kElsaFloatFormat.maxMagnitude();
    EXPECT_DOUBLE_EQ(quantizeToCustomFloat(max * 4.0), max);
    EXPECT_DOUBLE_EQ(quantizeToCustomFloat(-max * 4.0), -max);
    EXPECT_DOUBLE_EQ(
        quantizeToCustomFloat(kElsaFloatFormat.minNormal() / 4.0), 0.0);
    EXPECT_DOUBLE_EQ(quantizeToCustomFloat(0.0), 0.0);
}

TEST(CustomFloatTest, ArithmeticRequantizes)
{
    const CustomFloat a = CustomFloat::fromReal(1.0);
    const CustomFloat b = CustomFloat::fromReal(1.0 / 64.0);
    // 1 + 1/64 is not representable with 5 fraction bits; the sum
    // rounds back to 1.0 (round-to-nearest-even at the half step).
    EXPECT_DOUBLE_EQ(a.add(b).toReal(), 1.0);
    EXPECT_DOUBLE_EQ(a.mul(CustomFloat::fromReal(2.0)).toReal(), 2.0);
}

TEST(CustomFloatTest, CompileTimeAgreesWithRuntime)
{
    // The constexpr implementations branch on is_constant_evaluated():
    // the compile-time path is pure C++, the runtime path is the libm
    // calls the formats have always made. Both are exact, so they
    // must agree bit for bit; pin that on values that exercise the
    // rounding, saturation, and flush branches.
    static constexpr std::array<double, 15> kInputs = {
        0.0,    1.0,    1.5,  1.0 + 1.0 / 64.0, 1.0 + 3.0 / 64.0,
        -3.25,  1024.0, 1e-200, -1e-200,        1e200,
        -1e200, 1e160,  0.3,  -0.7,             123456.789,
    };
    // Materialized during constant evaluation: these take the pure
    // compile-time branches of the fixed_detail helpers.
    static constexpr std::array<double, kInputs.size()> kCompileTime = [] {
        std::array<double, kInputs.size()> out{};
        for (std::size_t i = 0; i < out.size(); ++i) {
            out[i] = quantizeToCustomFloat(kInputs[i]);
        }
        return out;
    }();
    for (std::size_t i = 0; i < kInputs.size(); ++i) {
        volatile double rt_in = kInputs[i]; // force the runtime path
        EXPECT_DOUBLE_EQ(quantizeToCustomFloat(rt_in), kCompileTime[i])
            << "x = " << kInputs[i];
    }

    static constexpr std::array<double, 8> kFixedInputs = {
        0.0, 1.0625, 1.1875, 1.06, 1.07, 100.0, -100.0, -0.06};
    static constexpr std::array<std::int32_t, kFixedInputs.size()>
        kFixedRaw = [] {
        std::array<std::int32_t, kFixedInputs.size()> out{};
        for (std::size_t i = 0; i < out.size(); ++i) {
            out[i] = InputFixed::fromReal(kFixedInputs[i]).raw();
        }
        return out;
    }();
    for (std::size_t i = 0; i < kFixedInputs.size(); ++i) {
        volatile double rt_in = kFixedInputs[i];
        EXPECT_EQ(InputFixed::fromReal(rt_in).raw(), kFixedRaw[i])
            << "x = " << kFixedInputs[i];
    }
}

// ---------------------------------------------------------------------
// The bit-level quantizers (quantizeCustomFloatFast and the vector
// accumulate kernels behind accumulateCustomFloat) must equal the
// reference quantizeToCustomFloat bit for bit -- including the sign of
// zero -- and count exactly the same saturations.
// ---------------------------------------------------------------------

std::uint64_t
bitsOf(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** Every kernel table usable on this machine. */
std::vector<const simd::KernelTable*>
allTables()
{
    std::vector<const simd::KernelTable*> tables;
    for (const simd::SimdLevel level : simd::availableLevels()) {
        tables.push_back(simd::kernelsFor(level));
    }
    return tables;
}

/**
 * Quantize `inputs` with the reference, the scalar bit-level form,
 * and the vector accumulate of every table (acc = input, scale * v =
 * +0.0, so the sum is the input itself up to the sign of zero, which
 * the quantizer maps to +0.0 anyway); require identical bits and
 * identical saturation counts. Returns the reference's count.
 */
std::uint64_t
expectAllFormsMatchReference(const std::vector<double>& inputs)
{
    std::vector<double> expected(inputs.size());
    SaturationCounters reference_counts;
    {
        SaturationScope scope(&reference_counts);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            expected[i] = quantizeToCustomFloat(inputs[i]);
        }
    }

    SaturationCounters scalar_counts;
    std::vector<double> got(inputs.size());
    {
        SaturationScope scope(&scalar_counts);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            got[i] = quantizeCustomFloatFast(inputs[i]);
        }
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        EXPECT_EQ(bitsOf(got[i]), bitsOf(expected[i]))
            << "scalar form, input bits " << std::hex << bitsOf(inputs[i]);
    }
    EXPECT_EQ(scalar_counts.cfloat, reference_counts.cfloat);

    const std::vector<float> zeros(inputs.size(), 0.0f);
    for (const simd::KernelTable* table : allTables()) {
        std::vector<double> acc = inputs;
        SaturationCounters vector_counts;
        {
            SaturationScope scope(&vector_counts);
            accumulateCustomFloat(acc.data(), 1.0, zeros.data(),
                                  acc.size(), *table);
        }
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            EXPECT_EQ(bitsOf(acc[i]), bitsOf(expected[i]))
                << table->name << " vector form, input bits "
                << std::hex << bitsOf(inputs[i]);
        }
        EXPECT_EQ(vector_counts.cfloat, reference_counts.cfloat)
            << table->name;
    }
    return reference_counts.cfloat;
}

TEST(CustomFloatBitsTest, MatchesReferenceOnRandomBitPatterns)
{
    // 10^7 uniformly random IEEE-754 patterns: every exponent (about
    // half inside the format's range, the rest flushing or
    // saturating), every mantissa, NaN payloads, both signs.
    constexpr std::size_t kPatterns = 10'000'000;
    constexpr std::size_t kChunk = 1 << 16;
    Rng rng(0xc0ffee);
    std::vector<double> inputs(kChunk);
    for (std::size_t done = 0; done < kPatterns; done += kChunk) {
        for (double& x : inputs) {
            x = std::bit_cast<double>(rng.next());
        }
        expectAllFormsMatchReference(inputs);
        if (HasFailure()) {
            return; // One chunk's report is enough.
        }
    }
}

TEST(CustomFloatBitsTest, MatchesReferenceOnEnumeratedEdges)
{
    constexpr double kMax = kElsaFloatFormat.maxMagnitude();
    constexpr double kMinNormal = kElsaFloatFormat.minNormal();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kStep = 1.0 / 32.0; // one format ulp at 1.0
    std::vector<double> edges = {
        // Signed zeros (both quantize to +0.0).
        0.0, -0.0,
        // Ties at the rounding bit: to even below, to even above, and
        // the tie that carries into the exponent.
        1.0 + kStep / 2, 1.0 + 3 * kStep / 2, 2.0 - kStep / 2,
        -(1.0 + kStep / 2), -(1.0 + 3 * kStep / 2), -(2.0 - kStep / 2),
        // Just off the ties.
        std::nextafter(1.0 + kStep / 2, 2.0),
        std::nextafter(1.0 + kStep / 2, 0.0),
        // The largest magnitude: exactly, just below (rounds up to it
        // without saturating), just above and far above (saturate).
        kMax, -kMax, std::nextafter(kMax, 0.0),
        std::nextafter(kMax, kInf), -std::nextafter(kMax, kInf),
        kMax * (1.0 + kStep / 4), kMax * 1.5, 1e300, -1e300,
        std::numeric_limits<double>::max(),
        // The smallest normal: exactly, and just below (flushes).
        kMinNormal, -kMinNormal, std::nextafter(kMinNormal, 0.0),
        -std::nextafter(kMinNormal, 0.0), kMinNormal * (1.0 + kStep / 2),
        // Non-finite and subnormal doubles.
        kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 2,
        -std::numeric_limits<double>::min() / 2,
    };
    // Odd length and each edge at every vector lane position.
    std::vector<double> shifted;
    for (std::size_t lane = 0; lane < 4; ++lane) {
        shifted.assign(lane, 1.0);
        shifted.insert(shifted.end(), edges.begin(), edges.end());
        // 11 saturating inputs: 7 finite above kMax, +-inf, 2 NaNs.
        EXPECT_EQ(expectAllFormsMatchReference(shifted), 11u);
    }
}

TEST(CustomFloatBitsTest, VectorAccumulateMatchesScalarArithmetic)
{
    // Random finite accumulators, scales and values: the kernel's
    // multiply, add and rounding equal the reference sequence
    // quantizeToCustomFloat(acc + scale * v) element by element.
    Rng rng(77);
    for (int round = 0; round < 200; ++round) {
        const std::size_t n = 1 + rng.uniformInt(70);
        std::vector<double> acc(n);
        std::vector<float> v(n);
        for (std::size_t i = 0; i < n; ++i) {
            acc[i] = quantizeToCustomFloat(rng.gaussian(0.0, 50.0));
            v[i] = static_cast<float>(rng.gaussian(0.0, 8.0));
        }
        const int exponent = static_cast<int>(rng.uniformInt(40)) - 20;
        const double scale =
            quantizeToCustomFloat(std::ldexp(rng.uniform(), exponent));
        for (const simd::KernelTable* table : allTables()) {
            std::vector<double> got = acc;
            accumulateCustomFloat(got.data(), scale, v.data(), n, *table);
            for (std::size_t i = 0; i < n; ++i) {
                // volatile: keep this reference multiply-add unfused
                // on FMA targets, as the kernels keep theirs.
                const volatile double product =
                    scale * static_cast<double>(v[i]);
                const double expected =
                    quantizeToCustomFloat(acc[i] + product);
                ASSERT_EQ(bitsOf(got[i]), bitsOf(expected))
                    << table->name << " round " << round << " i " << i;
            }
        }
    }
}

TEST(ExpUnitTest, LutContentsArePowersOfTwo)
{
    ExpUnit unit;
    EXPECT_DOUBLE_EQ(unit.lutEntry(0), 1.0);
    for (int i = 1; i < ExpUnit::kLutSize; ++i) {
        const double expected = std::exp2(i / 32.0);
        EXPECT_NEAR(unit.lutEntry(i), expected, 0.02);
        EXPECT_GT(unit.lutEntry(i), unit.lutEntry(i - 1) - 1e-9);
    }
    EXPECT_THROW(unit.lutEntry(32), Error);
}

TEST(ExpUnitTest, RelativeErrorBounded)
{
    // 32-entry LUT: segment width 1/32 in the exponent -> worst
    // relative error ~ 2^(1/32) - 1 ~ 2.2%, plus output rounding.
    ExpUnit unit;
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const double x = rng.uniform(-20.0, 20.0);
        const double approx = unit.compute(x);
        const double exact = std::exp(x);
        EXPECT_LE(std::abs(approx - exact) / exact, 0.04)
            << "x = " << x;
    }
}

TEST(ExpUnitTest, HandlesLargeNegativeInputs)
{
    ExpUnit unit;
    EXPECT_GE(unit.compute(-600.0), 0.0);
    EXPECT_LE(unit.compute(-600.0), 1e-150);
}

TEST(ExpUnitTest, MonotoneNondecreasing)
{
    ExpUnit unit;
    double prev = 0.0;
    for (double x = -10.0; x <= 10.0; x += 0.05) {
        const double v = unit.compute(x);
        EXPECT_GE(v, prev - 1e-12) << "x = " << x;
        prev = v;
    }
}

TEST(ReciprocalUnitTest, RelativeErrorBounded)
{
    // 32 mantissa segments with midpoint entries: worst relative
    // error ~ 1/64 plus rounding.
    ReciprocalUnit unit;
    Rng rng(9);
    for (int i = 0; i < 2000; ++i) {
        const double x = std::exp(rng.uniform(-30.0, 30.0));
        const double approx = unit.compute(x);
        const double exact = 1.0 / x;
        EXPECT_LE(std::abs(approx - exact) / exact, 0.035)
            << "x = " << x;
    }
}

TEST(ReciprocalUnitTest, PreservesSign)
{
    ReciprocalUnit unit;
    EXPECT_GT(unit.compute(4.0), 0.0);
    EXPECT_LT(unit.compute(-4.0), 0.0);
    EXPECT_NEAR(unit.compute(-2.0), -0.5, 0.02);
}

TEST(ReciprocalUnitTest, RejectsZero)
{
    ReciprocalUnit unit;
    EXPECT_THROW(unit.compute(0.0), Error);
}

TEST(SqrtUnitTest, ExactForZeroAndPowersOfFour)
{
    SqrtUnit unit;
    EXPECT_DOUBLE_EQ(unit.compute(0.0), 0.0);
    for (const double x : {1.0, 4.0, 16.0, 64.0, 256.0}) {
        EXPECT_NEAR(unit.compute(x), std::sqrt(x),
                    std::sqrt(x) * 2e-4);
    }
}

TEST(SqrtUnitTest, RelativeErrorBounded)
{
    // Tabulate-and-multiply with 64 segments over [1, 4): the
    // first-order correction leaves O((3/64)^2 / 8) relative error.
    SqrtUnit unit;
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        const double x = std::exp(rng.uniform(-10.0, 10.0));
        const double approx = unit.compute(x);
        const double exact = std::sqrt(x);
        EXPECT_LE(std::abs(approx - exact) / exact, 5e-4)
            << "x = " << x;
    }
}

TEST(SqrtUnitTest, RejectsNegative)
{
    SqrtUnit unit;
    EXPECT_THROW(unit.compute(-1.0), Error);
}

/** Property sweep: quantize-dequantize is idempotent per format. */
template <int I, int F>
void
checkIdempotent()
{
    Rng rng(123);
    for (int i = 0; i < 200; ++i) {
        const double x = rng.uniform(-40.0, 40.0);
        const double once = quantize<I, F>(x);
        const double twice = quantize<I, F>(once);
        EXPECT_DOUBLE_EQ(once, twice);
    }
}

TEST(FixedPointTest, QuantizationIdempotent)
{
    checkIdempotent<5, 3>();
    checkIdempotent<0, 5>();
    checkIdempotent<4, 3>();
    checkIdempotent<8, 8>();
}

} // namespace
} // namespace elsa
