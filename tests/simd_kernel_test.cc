/**
 * @file
 * Property tests of the runtime-dispatched SIMD kernel layer
 * (src/common/simd/): every available kernel table must be
 * bit-identical to the scalar baseline on random inputs, including
 * non-word-multiple hash widths, empty and single-row key sets, and
 * exact IEEE sign-extraction edge cases (-0.0, NaN, denormals), and
 * the floating-point score tile, which must equal the sequential
 * elsa::dot loop bit for bit for every row it scores. Also
 * covers the dispatch surface itself -- availableLevels(),
 * resolveLevel() and the ELSA_SIMD forcing hook (the CTest
 * registration runs this binary a second time with ELSA_SIMD=scalar;
 * see tests/CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "lsh/bitvector.h"
#include "lsh/candidates.h"
#include "lsh/srp.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace elsa {
namespace {

/** Every table the dispatcher could ever hand out on this machine. */
std::vector<const simd::KernelTable*>
allTables()
{
    std::vector<const simd::KernelTable*> tables;
    for (const simd::SimdLevel level : simd::availableLevels()) {
        tables.push_back(simd::kernelsFor(level));
    }
    return tables;
}

/** Random packed words with the tail of the last word masked. */
std::vector<std::uint64_t>
randomPackedRow(std::size_t bits, Rng& rng)
{
    std::vector<std::uint64_t> words(hashWordCount(bits), 0);
    for (std::uint64_t& w : words) {
        w = rng.next();
    }
    if (!words.empty()) {
        words.back() &= hashTailMask(bits);
    }
    return words;
}

TEST(SimdDispatchTest, ScalarAlwaysAvailableAndFirst)
{
    const auto levels = simd::availableLevels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), simd::SimdLevel::kScalar);
    EXPECT_EQ(simd::scalarKernels().level, simd::SimdLevel::kScalar);
    EXPECT_STREQ(simd::scalarKernels().name, "scalar");
    EXPECT_EQ(simd::kernelsFor(simd::SimdLevel::kScalar),
              &simd::scalarKernels());
}

TEST(SimdDispatchTest, EveryAvailableTableIsComplete)
{
    for (const simd::KernelTable* table : allTables()) {
        ASSERT_NE(table, nullptr);
        EXPECT_NE(table->name, nullptr);
        EXPECT_NE(table->hamming_batch, nullptr);
        EXPECT_NE(table->popcount_words, nullptr);
        EXPECT_NE(table->sign_pack_f32, nullptr);
        EXPECT_NE(table->sign_pack_f64, nullptr);
        EXPECT_STREQ(simd::levelName(table->level), table->name);
    }
}

TEST(SimdDispatchTest, ResolveLevelDefaultsToBestAvailable)
{
    EXPECT_EQ(simd::resolveLevel(nullptr),
              simd::availableLevels().back());
    EXPECT_EQ(simd::resolveLevel(""),
              simd::availableLevels().back());
}

TEST(SimdDispatchTest, ResolveLevelParsesEveryName)
{
    EXPECT_EQ(simd::resolveLevel("scalar"), simd::SimdLevel::kScalar);
    for (const simd::SimdLevel level : simd::availableLevels()) {
        EXPECT_EQ(simd::resolveLevel(simd::levelName(level)), level);
    }
}

TEST(SimdDispatchTest, ResolveLevelRejectsUnknownNames)
{
    EXPECT_THROW(simd::resolveLevel("sse2"), Error);
    EXPECT_THROW(simd::resolveLevel("AVX2"), Error);
    EXPECT_THROW(simd::resolveLevel("fastest"), Error);
}

TEST(SimdDispatchTest, ResolveLevelRejectsUnavailableLevels)
{
    // Exactly one of the vector ISAs can be compiled in, so the
    // other must be rejected as unavailable (not silently ignored).
    if (simd::avx2KernelsOrNull() == nullptr) {
        EXPECT_THROW(simd::resolveLevel("avx2"), Error);
    }
    if (simd::neonKernelsOrNull() == nullptr) {
        EXPECT_THROW(simd::resolveLevel("neon"), Error);
    }
}

TEST(SimdDispatchTest, ActiveTableHonoursElsaSimdOverride)
{
    // The forcing hook end to end: when the harness sets ELSA_SIMD
    // (the CTest registration runs this binary once without it and
    // once with ELSA_SIMD=scalar), the process-wide table must be
    // the forced one; otherwise it must be the best available.
    // elsa-lint: allow(no-wallclock): reads the harness's own SIMD forcing hook, the exact contract under test
    const char* forced = std::getenv("ELSA_SIMD");
    if (forced != nullptr && forced[0] != '\0') {
        EXPECT_EQ(simd::activeLevel(), simd::resolveLevel(forced));
        EXPECT_STREQ(simd::kernels().name, forced);
    } else {
        EXPECT_EQ(simd::activeLevel(),
                  simd::availableLevels().back());
    }
    EXPECT_EQ(&simd::kernels(),
              simd::kernelsFor(simd::activeLevel()));
}

TEST(SimdKernelPropertyTest, HammingBatchMatchesScalarRandomWidths)
{
    Rng rng(0xe15a);
    for (int round = 0; round < 40; ++round) {
        // Random width in [1, 512] with non-word-multiples common,
        // random key count including 0 and 1.
        const std::size_t bits = 1 + rng.uniformInt(512);
        const std::size_t rows =
            round < 3 ? static_cast<std::size_t>(round)
                      : rng.uniformInt(97);
        const std::size_t words = hashWordCount(bits);
        const auto query = randomPackedRow(bits, rng);
        std::vector<std::uint64_t> keys(rows * words);
        for (std::size_t r = 0; r < rows; ++r) {
            const auto row = randomPackedRow(bits, rng);
            std::memcpy(keys.data() + r * words, row.data(),
                        words * sizeof(std::uint64_t));
        }
        std::vector<std::uint32_t> expected(rows, 0);
        simd::scalarKernels().hamming_batch(query.data(), keys.data(),
                                            words, rows,
                                            expected.data());
        for (const simd::KernelTable* table : allTables()) {
            std::vector<std::uint32_t> got(rows, 0xdeadbeef);
            if (rows == 0) {
                got.assign(1, 7);
            }
            table->hamming_batch(query.data(), keys.data(), words,
                                 rows, got.data());
            if (rows == 0) {
                EXPECT_EQ(got[0], 7u)
                    << table->name << " wrote on empty input";
                continue;
            }
            EXPECT_EQ(got, expected)
                << table->name << " diverges at bits=" << bits
                << " rows=" << rows;
        }
    }
}

TEST(SimdKernelPropertyTest, PopcountWordsMatchesScalar)
{
    Rng rng(0xbeef);
    for (int round = 0; round < 30; ++round) {
        const std::size_t n = rng.uniformInt(40);
        std::vector<std::uint64_t> words(n);
        for (std::uint64_t& w : words) {
            w = rng.next();
        }
        const int expected =
            simd::scalarKernels().popcount_words(words.data(), n);
        for (const simd::KernelTable* table : allTables()) {
            EXPECT_EQ(table->popcount_words(words.data(), n),
                      expected)
                << table->name << " diverges at n=" << n;
        }
    }
}

template <typename T>
void
checkSignPack(void (*scalar)(const T*, std::size_t, std::uint64_t*),
              std::uint64_t seed)
{
    Rng rng(seed);
    const T special[] = {
        T{0},
        -T{0},
        std::numeric_limits<T>::quiet_NaN(),
        std::numeric_limits<T>::infinity(),
        -std::numeric_limits<T>::infinity(),
        std::numeric_limits<T>::denorm_min(),
        -std::numeric_limits<T>::denorm_min(),
    };
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = rng.uniformInt(300);
        std::vector<T> values(n);
        for (T& v : values) {
            // Mostly random gaussians, sprinkled with IEEE edge
            // cases (the sign rule is v >= 0: -0.0 -> 1, NaN -> 0).
            if (rng.uniform() < 0.2) {
                v = special[rng.uniformInt(std::size(special))];
            } else {
                v = static_cast<T>(rng.gaussian());
            }
        }
        std::vector<std::uint64_t> expected(hashWordCount(n) + 1,
                                            0xffffffffffffffffULL);
        scalar(values.data(), n, expected.data());
        for (const simd::KernelTable* table : allTables()) {
            std::vector<std::uint64_t> got(hashWordCount(n) + 1,
                                           0xffffffffffffffffULL);
            if constexpr (sizeof(T) == sizeof(float)) {
                table->sign_pack_f32(values.data(), n, got.data());
            } else {
                table->sign_pack_f64(values.data(), n, got.data());
            }
            for (std::size_t w = 0; w < hashWordCount(n); ++w) {
                EXPECT_EQ(got[w], expected[w])
                    << table->name << " diverges at n=" << n
                    << " word " << w;
            }
            // The word past the packed range is untouched.
            EXPECT_EQ(got.back(), 0xffffffffffffffffULL)
                << table->name << " overran at n=" << n;
            if (hashWordCount(n) != 0) {
                EXPECT_EQ(got[hashWordCount(n) - 1]
                              & ~hashTailMask(n),
                          0u)
                    << table->name << " stray tail bits at n=" << n;
            }
        }
    }
}

TEST(SimdKernelPropertyTest, SignPackF32MatchesScalar)
{
    checkSignPack<float>(simd::scalarKernels().sign_pack_f32, 0xf32);
}

TEST(SimdKernelPropertyTest, SignPackF64MatchesScalar)
{
    checkSignPack<double>(simd::scalarKernels().sign_pack_f64, 0xf64);
}

TEST(SimdKernelPropertyTest, BatchHammingMatchesPairwiseOnHashes)
{
    // End to end through the public API: hashMatrix + batch kernel
    // against per-pair hammingDistance on the same hashes, at the
    // widths the batched hashers actually produce.
    Rng rng(7);
    for (const std::size_t bits : {1u, 63u, 64u, 65u, 128u, 257u}) {
        const std::size_t rows = 1 + rng.uniformInt(60);
        HashMatrix keys(rows, bits);
        HashValue query(bits);
        for (std::size_t i = 0; i < bits; ++i) {
            query.setBit(i, rng.uniform() < 0.5);
            for (std::size_t r = 0; r < rows; ++r) {
                keys.setBit(r, i, rng.uniform() < 0.5);
            }
        }
        const auto batch = hammingDistanceBatch(query, keys);
        ASSERT_EQ(batch.size(), rows);
        for (std::size_t r = 0; r < rows; ++r) {
            EXPECT_EQ(static_cast<int>(batch[r]),
                      hammingDistance(query, keys.row(r)))
                << "bits=" << bits << " row=" << r;
        }
    }
}

TEST(SimdKernelPropertyTest, HashMatrixMatchesPerRowHash)
{
    // The packed batched hasher against the historical per-row
    // hash(): identical bits, for both hasher families.
    Rng rng(21);
    const auto dense = DenseSrpHasher::makeRandom(48, 64, rng);
    const auto kron = KroneckerSrpHasher::makeRandom(64, 3, rng);
    Matrix input(10, 64);
    for (std::size_t r = 0; r < input.rows(); ++r) {
        for (std::size_t c = 0; c < input.cols(); ++c) {
            input.at(r, c) = static_cast<float>(rng.gaussian());
        }
    }
    for (const SrpHasher* hasher :
         {static_cast<const SrpHasher*>(&dense),
          static_cast<const SrpHasher*>(&kron)}) {
        const HashMatrix packed = hasher->hashMatrix(input);
        ASSERT_EQ(packed.rows(), input.rows());
        ASSERT_EQ(packed.bits(), hasher->bits());
        for (std::size_t r = 0; r < input.rows(); ++r) {
            EXPECT_EQ(packed.rowValue(r), hasher->hash(input.row(r)))
                << "row " << r;
        }
    }
}

// ---------------------------------------------------------------------
// Score tile: lane-per-key dot products, bit-identical to elsa::dot.
// ---------------------------------------------------------------------

/** Gaussian matrix with a sprinkling of large and tiny magnitudes, so
 *  the double sums round differently in every accumulation order. */
Matrix
scoreTestMatrix(std::size_t rows, std::size_t cols, Rng& rng)
{
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i) {
        const double scale = rng.uniform() < 0.1 ? 1e6 : 1.0;
        m.data()[i] = static_cast<float>(rng.gaussian() * scale
                                         + rng.gaussian() * 1e-7);
    }
    return m;
}

/** Row counts around every block size the tables use (8, 4, 2),
 *  plus a large tile. */
const std::size_t kScoreRowCounts[] = {1,  2,  3,  4,  5,  7, 8,
                                       9,  11, 15, 16, 17, 384};
const std::size_t kScoreDims[] = {1, 3, 64, 65};

TEST(SimdScoreTileTest, ContiguousRowsMatchSequentialDot)
{
    Rng rng(0x5c07e);
    for (const std::size_t d : kScoreDims) {
        for (const std::size_t n : kScoreRowCounts) {
            const Matrix keys = scoreTestMatrix(n, d, rng);
            const Matrix query = scoreTestMatrix(1, d, rng);
            for (const simd::KernelTable* table : allTables()) {
                // One canary past the tile must stay untouched.
                std::vector<double> out(n + 1, -1.0);
                table->score_rows(query.row(0), keys.data(), d, d, n,
                                  out.data());
                for (std::size_t j = 0; j < n; ++j) {
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                              std::bit_cast<std::uint64_t>(
                                  dot(query.row(0), keys.row(j), d)))
                        << table->name << " n=" << n << " d=" << d
                        << " row " << j;
                }
                EXPECT_EQ(out[n], -1.0) << table->name << " overran";
            }
        }
    }
}

TEST(SimdScoreTileTest, GatheredRowsMatchSequentialDot)
{
    Rng rng(0x9a7e);
    for (const std::size_t d : kScoreDims) {
        const Matrix keys = scoreTestMatrix(97, d, rng);
        const Matrix query = scoreTestMatrix(1, d, rng);
        for (const std::size_t count : kScoreRowCounts) {
            // Random order with repeats, like arbiter grant lists.
            std::vector<std::uint32_t> rows(count);
            for (std::uint32_t& r : rows) {
                r = static_cast<std::uint32_t>(rng.uniformInt(keys.rows()));
            }
            for (const simd::KernelTable* table : allTables()) {
                std::vector<double> out(count + 1, -1.0);
                table->score_gather(query.row(0), keys.data(), d, d,
                                    rows.data(), count, out.data());
                for (std::size_t j = 0; j < count; ++j) {
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                              std::bit_cast<std::uint64_t>(
                                  dot(query.row(0), keys.row(rows[j]), d)))
                        << table->name << " count=" << count
                        << " d=" << d << " entry " << j;
                }
                EXPECT_EQ(out[count], -1.0) << table->name << " overran";
            }
        }
    }
}

TEST(SimdScoreTileTest, StridedRowsAndCausalLimit)
{
    // Rows of a wider matrix (stride > d) and the causal form: query
    // i scores keys [0, i + 1) only, through the tensor-layer wrapper
    // the attention code calls, and nothing past the limit is written.
    Rng rng(0xca05a1);
    const std::size_t n = 40;
    const std::size_t stride = 70;
    const std::size_t d = 65;
    const Matrix keys = scoreTestMatrix(n, stride, rng);
    const Matrix query = scoreTestMatrix(1, stride, rng);
    for (const simd::KernelTable* table : allTables()) {
        std::vector<double> out(n, -1.0);
        table->score_rows(query.row(0), keys.data(), stride, d, n,
                          out.data());
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                      std::bit_cast<std::uint64_t>(
                          dot(query.row(0), keys.row(j), d)))
                << table->name << " strided row " << j;
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t limit = i + 1;
        std::vector<double> out(n, -1.0);
        scoreRows(query.row(0), keys, 0, limit, out.data());
        for (std::size_t j = 0; j < n; ++j) {
            if (j < limit) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                          std::bit_cast<std::uint64_t>(
                              dot(query.row(0), keys.row(j), stride)))
                    << "limit " << limit << " row " << j;
            } else {
                EXPECT_EQ(out[j], -1.0) << "wrote past limit " << limit;
            }
        }
    }
}

TEST(SimdScoreTileTest, ZeroRowsWriteNothing)
{
    const float q[1] = {1.0f};
    const float keys[1] = {2.0f};
    const std::uint32_t rows[1] = {0};
    for (const simd::KernelTable* table : allTables()) {
        double out = -1.0;
        table->score_rows(q, keys, 1, 1, 0, &out);
        table->score_gather(q, keys, 1, 1, rows, 0, &out);
        EXPECT_EQ(out, -1.0) << table->name;
    }
}

TEST(SimdKernelPropertyTest, CfloatAccumulateMatchesScalar)
{
    // Every table's custom-float accumulate equals the scalar table's
    // bit for bit, returns the same count of unquantized lanes, and
    // leaves exactly the same raw sums for the caller's reference
    // pass; the inputs mix ordinary, zero, tied, flushing and
    // saturating sums at every lane position.
    const simd::CustomFloatBits format{
        47, std::bit_cast<std::uint64_t>(std::ldexp(1.0, -511)),
        std::bit_cast<std::uint64_t>(std::ldexp(2.0 - 1.0 / 32.0, 512))};
    Rng rng(0xacc);
    for (int round = 0; round < 300; ++round) {
        const std::size_t n = rng.uniformInt(40);
        std::vector<double> acc(n);
        std::vector<float> v(n);
        for (std::size_t i = 0; i < n; ++i) {
            const double pick = rng.uniform();
            // An exact tie at the rounding bit: 1 + odd/64, scaled.
            const double tie = std::ldexp(
                1.0 + static_cast<double>(2 * rng.uniformInt(32) + 1) / 64.0,
                static_cast<int>(rng.uniformInt(64)) - 32);
            acc[i] = pick < 0.1    ? 0.0
                     : pick < 0.15 ? std::ldexp(1.0, 600)
                     : pick < 0.2  ? std::ldexp(1.0, -600)
                     : pick < 0.4  ? tie
                                   : rng.gaussian(0.0, 100.0);
            v[i] = pick < 0.4 || rng.uniform() < 0.2
                       ? 0.0f
                       : static_cast<float>(rng.gaussian(0.0, 4.0));
        }
        const double scale = rng.uniform() < 0.1 ? 1e300 : rng.uniform();
        std::vector<double> expected = acc;
        const std::size_t expected_left =
            simd::scalarKernels().cfloat_accumulate(
                expected.data(), scale, v.data(), n, format);
        for (const simd::KernelTable* table : allTables()) {
            std::vector<double> got = acc;
            EXPECT_EQ(table->cfloat_accumulate(got.data(), scale, v.data(),
                                               n, format),
                      expected_left)
                << table->name << " n=" << n;
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                          std::bit_cast<std::uint64_t>(expected[i]))
                    << table->name << " n=" << n << " i=" << i;
            }
        }
    }
}

} // namespace
} // namespace elsa
