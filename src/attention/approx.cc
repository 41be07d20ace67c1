#include "attention/approx.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lsh/candidates.h"
#include "obs/profile.h"
#include "tensor/ops.h"

namespace elsa {

namespace {

/**
 * Exact attention of query i restricted to the keys ids[0..count):
 * dot products and softmax over the candidates, then the weighted
 * sum of their value rows into `out` (zero-initialised).
 */
void
attendOverCandidates(const AttentionInput& input, std::size_t i,
                     const std::uint32_t* ids, std::size_t count,
                     std::vector<double>& scores, float* out)
{
    scores.resize(count);
    scoreGathered(input.query.row(i), input.key, ids, count,
                  scores.data());
    softmaxInPlace(scores);
    const std::size_t d = input.d();
    for (std::size_t c = 0; c < count; ++c) {
        const double w = scores[c];
        const float* v = input.value.row(ids[c]);
        for (std::size_t col = 0; col < d; ++col) {
            out[col] += static_cast<float>(w * v[col]);
        }
    }
}

} // namespace

std::size_t
ApproxAttentionStats::totalCandidates() const
{
    std::size_t total = 0;
    for (const auto c : candidates_per_query) {
        total += c;
    }
    return total;
}

double
ApproxAttentionStats::candidateFraction(std::size_t n) const
{
    if (candidates_per_query.empty() || n == 0) {
        return 0.0;
    }
    const double mean = static_cast<double>(totalCandidates())
                        / static_cast<double>(candidates_per_query.size());
    return mean / static_cast<double>(n);
}

ApproxSelfAttention::ApproxSelfAttention(
    std::shared_ptr<const SrpHasher> hasher, double theta_bias)
    : hasher_(std::move(hasher)),
      cos_lut_(hasher_ ? hasher_->bits() : 1, theta_bias)
{
    ELSA_CHECK(hasher_ != nullptr, "null hasher");
}

KeyPreprocessing
ApproxSelfAttention::preprocessKeys(const Matrix& key) const
{
    ELSA_CHECK(key.cols() == hasher_->dim(),
               "key dim " << key.cols() << " != hasher dim "
                          << hasher_->dim());
    KeyPreprocessing prep;
    prep.hashes = hasher_->hashMatrix(key);
    {
        ELSA_PROF_SCOPE("attention.key_norms");
        prep.norms = l2NormRows(key);
        for (const double norm : prep.norms) {
            prep.max_norm = std::max(prep.max_norm, norm);
        }
    }
    return prep;
}

std::vector<std::uint32_t>
ApproxSelfAttention::selectCandidates(HashView query_hash,
                                      const KeyPreprocessing& prep,
                                      double threshold) const
{
    std::vector<std::uint32_t> selected;
    selectAboveCutoff(query_hash, prep.hashes, prep.norms, cos_lut_,
                      threshold * prep.max_norm, 0, prep.hashes.rows(),
                      selected);
    return selected;
}

std::vector<std::vector<std::uint32_t>>
ApproxSelfAttention::candidatesForAll(const AttentionInput& input,
                                      double threshold) const
{
    input.validate();
    const KeyPreprocessing prep = preprocessKeys(input.key);
    const HashMatrix query_hashes = hasher_->hashMatrix(input.query);
    std::vector<std::vector<std::uint32_t>> all(input.n());
    for (std::size_t i = 0; i < input.n(); ++i) {
        all[i] = selectCandidates(query_hashes[i], prep, threshold);
    }
    return all;
}

ApproxAttentionResult
ApproxSelfAttention::run(
    const AttentionInput& input, double threshold,
    std::vector<std::vector<std::uint32_t>>* selected) const
{
    input.validate();
    const KeyPreprocessing prep = preprocessKeys(input.key);
    return run(input, prep, hasher_->hashMatrix(input.query), threshold,
               selected);
}

ApproxAttentionResult
ApproxSelfAttention::run(
    const AttentionInput& input, const KeyPreprocessing& prep,
    const HashMatrix& query_hashes, double threshold,
    std::vector<std::vector<std::uint32_t>>* selected) const
{
    input.validate();
    const std::size_t n = input.n();
    ELSA_CHECK(prep.hashes.rows() == n && query_hashes.rows() == n,
               "hashes of " << prep.hashes.rows() << " keys and "
                            << query_hashes.rows()
                            << " queries for n = " << n);

    ApproxAttentionResult result;
    result.output = Matrix(n, input.d());
    result.stats.candidates_per_query.resize(n);
    if (selected != nullptr) {
        selected->resize(n);
    }

    const double cutoff = threshold * prep.max_norm;
    std::vector<std::uint32_t> scratch;
    std::vector<double> scores;
    for (std::size_t i = 0; i < n; ++i) {
        const HashView qh = query_hashes[i];
        std::vector<std::uint32_t>& cands =
            selected != nullptr ? (*selected)[i] : scratch;
        cands.clear();
        selectAboveCutoff(qh, prep.hashes, prep.norms, cos_lut_, cutoff,
                          0, n, cands);
        const std::uint32_t* ids = cands.data();
        std::size_t count = cands.size();
        std::uint32_t fallback = 0;
        if (count == 0) {
            ++result.stats.empty_selections;
            fallback = argmaxSimilarity(qh, prep.hashes, prep.norms,
                                        cos_lut_, 0, n);
            ids = &fallback;
            count = 1;
        }
        result.stats.candidates_per_query[i] = count;
        attendOverCandidates(input, i, ids, count, scores,
                             result.output.row(i));
    }
    return result;
}

ApproxAttentionResult
ApproxSelfAttention::runCausal(const AttentionInput& input,
                               double threshold) const
{
    input.validate();
    const std::size_t n = input.n();
    const std::size_t d = input.d();
    const KeyPreprocessing prep = preprocessKeys(input.key);

    ApproxAttentionResult result;
    result.output = Matrix(n, d);
    result.stats.candidates_per_query.resize(n);

    const HashMatrix query_hashes = hasher_->hashMatrix(input.query);
    std::vector<double> scores;
    for (std::size_t i = 0; i < n; ++i) {
        const HashView qh = query_hashes[i];
        // Only keys j <= i are visible: the hardware equivalent
        // simply stops the candidate scan at key i, so the fused
        // kernel runs over [0, i+1) directly.
        std::vector<std::uint32_t> cands;
        selectAboveCutoff(qh, prep.hashes, prep.norms, cos_lut_,
                          threshold * prep.max_norm, 0, i + 1, cands);
        if (cands.empty()) {
            ++result.stats.empty_selections;
            // Best visible key; key i itself is always visible.
            cands.push_back(argmaxSimilarity(qh, prep.hashes, prep.norms,
                                             cos_lut_, 0, i + 1));
        }
        result.stats.candidates_per_query[i] = cands.size();
        attendOverCandidates(input, i, cands.data(), cands.size(),
                             scores, result.output.row(i));
    }
    return result;
}

Matrix
ApproxSelfAttention::attentionOverCandidates(
    const AttentionInput& input,
    const std::vector<std::vector<std::uint32_t>>& candidates)
{
    input.validate();
    ELSA_CHECK(candidates.size() == input.n(),
               "candidate list count " << candidates.size()
                                       << " != n = " << input.n());
    const std::size_t n = input.n();
    const std::size_t d = input.d();
    Matrix output(n, d);
    std::vector<double> scores;
    for (std::size_t i = 0; i < n; ++i) {
        const auto& cands = candidates[i];
        ELSA_CHECK(!cands.empty(),
                   "empty candidate list for query " << i);
        for (const std::uint32_t key : cands) {
            ELSA_CHECK(key < n, "candidate index out of range");
        }
        attendOverCandidates(input, i, cands.data(), cands.size(),
                             scores, output.row(i));
    }
    return output;
}

} // namespace elsa
