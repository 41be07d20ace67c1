#include "fixed/units.h"

#include <cmath>

#include "common/logging.h"

namespace elsa {

namespace {

/** Round a value to p fraction bits of mantissa precision. */
double
roundMantissa(double value, int p)
{
    if (value == 0.0) {
        return 0.0;
    }
    int exp = 0;
    const double mantissa = std::frexp(std::abs(value), &exp) * 2.0;
    const double scale = std::ldexp(1.0, p);
    const double rounded = std::nearbyint((mantissa - 1.0) * scale) / scale
                           + 1.0;
    return std::copysign(std::ldexp(rounded, exp - 1), value);
}

} // namespace

// --- ExpUnit ---------------------------------------------------------

ExpUnit::ExpUnit()
{
    // 2^(i/32), each entry stored with 5 fraction bits, exactly the
    // contents of the hardware table.
    for (int i = 0; i < kLutSize; ++i) {
        lut_[i] = roundMantissa(
            std::exp2(static_cast<double>(i) / kLutSize), 5);
    }
}

double
ExpUnit::lutEntry(int index) const
{
    ELSA_CHECK(index >= 0 && index < kLutSize,
               "exp LUT index out of range: " << index);
    return lut_[index];
}

void
ExpUnit::corruptEntry(int index, double value)
{
    ELSA_CHECK(index >= 0 && index < kLutSize,
               "exp LUT index out of range: " << index);
    lut_[index] = value;
}

double
ExpUnit::compute(double x) const
{
    // e^x = 2^y with y = x * log2(e).
    const double y = x * 1.4426950408889634; // log2(e)
    const double floor_y = std::floor(y);
    const double frac_y = y - floor_y;
    // The hardware truncates frac(y) to 5 bits to index the LUT.
    int index = static_cast<int>(frac_y * kLutSize);
    if (index >= kLutSize) {
        index = kLutSize - 1;
    }
    const double result = std::ldexp(lut_[index],
                                     static_cast<int>(floor_y));
    return quantizeCustomFloatFast(result);
}

// --- ReciprocalUnit --------------------------------------------------

ReciprocalUnit::ReciprocalUnit()
{
    // 1/(1 + i/32), midpoint-corrected: store the reciprocal of the
    // center of the i-th mantissa segment to halve the worst-case
    // error, each entry held with 5 fraction bits.
    for (int i = 0; i < kLutSize; ++i) {
        const double seg_mid = 1.0 + (static_cast<double>(i) + 0.5)
                                         / kLutSize;
        lut_[i] = roundMantissa(1.0 / seg_mid, 5);
    }
}

double
ReciprocalUnit::lutEntry(int index) const
{
    ELSA_CHECK(index >= 0 && index < kLutSize,
               "reciprocal LUT index out of range: " << index);
    return lut_[index];
}

void
ReciprocalUnit::corruptEntry(int index, double value)
{
    ELSA_CHECK(index >= 0 && index < kLutSize,
               "reciprocal LUT index out of range: " << index);
    lut_[index] = value;
}

double
ReciprocalUnit::compute(double x) const
{
    ELSA_CHECK(x != 0.0, "reciprocal of zero");
    int exp = 0;
    const double mantissa = std::frexp(std::abs(x), &exp) * 2.0; // [1,2)
    int index = static_cast<int>((mantissa - 1.0) * kLutSize);
    if (index >= kLutSize) {
        index = kLutSize - 1;
    }
    // 1/(m * 2^(e-1)) = (1/m) * 2^(1-e)
    const double result = std::ldexp(lut_[index], 1 - exp);
    return std::copysign(quantizeCustomFloatFast(result), x);
}

// --- SqrtUnit --------------------------------------------------------

SqrtUnit::SqrtUnit()
{
    // Table over [1, 4): segment i covers [1 + 3i/64, 1 + 3(i+1)/64).
    // Each entry is sqrt at the segment midpoint; the compute step then
    // multiplies by the modified operand (1 + delta / (2 * mid)), which
    // is the first-order Taylor correction -- one lookup, one multiply.
    for (int i = 0; i < kTableSize; ++i) {
        const double mid = 1.0 + 3.0 * (static_cast<double>(i) + 0.5)
                                     / kTableSize;
        table_[i] = std::sqrt(mid);
    }
}

double
SqrtUnit::compute(double x) const
{
    ELSA_CHECK(x >= 0.0, "sqrt of negative value: " << x);
    if (x == 0.0) {
        return 0.0;
    }
    int exp = 0;
    double mantissa = std::frexp(x, &exp) * 2.0; // [1, 2)
    --exp;                                       // x = mantissa * 2^exp
    // Fold exponent parity into the mantissa so exp is even.
    if (exp % 2 != 0) {
        mantissa *= 2.0; // mantissa now in [1, 4)
        exp -= 1;
    }
    int index = static_cast<int>((mantissa - 1.0) * kTableSize / 3.0);
    if (index >= kTableSize) {
        index = kTableSize - 1;
    }
    const double mid = 1.0 + 3.0 * (static_cast<double>(index) + 0.5)
                                 / kTableSize;
    // Operand modification: sqrt(m) ~= sqrt(mid) * (1 + (m - mid)/(2 mid)).
    const double corrected = table_[index]
                             * (1.0 + (mantissa - mid) / (2.0 * mid));
    return std::ldexp(corrected, exp / 2);
}

} // namespace elsa
