#include "attention/approx.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lsh/candidates.h"
#include "obs/profile.h"
#include "tensor/ops.h"

namespace elsa {

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
ApproxSelfAttention::run(const AttentionInput& input,
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
        std::vector<std::uint32_t> cands =
            selectCandidates(qh, prep, threshold);
        if (cands.empty()) {
            ++result.stats.empty_selections;
            cands.push_back(argmaxSimilarity(qh, prep.hashes, prep.norms,
                                             cos_lut_, 0,
                                             prep.hashes.rows()));
        }
        result.stats.candidates_per_query[i] = cands.size();

        // Exact dot products and softmax restricted to candidates.
        scores.resize(cands.size());
        scoreGathered(input.query.row(i), input.key, cands.data(),
                      cands.size(), scores.data());
        softmaxInPlace(scores);
        float* out = result.output.row(i);
        for (std::size_t c = 0; c < cands.size(); ++c) {
            const double w = scores[c];
            const float* v = input.value.row(cands[c]);
            for (std::size_t col = 0; col < d; ++col) {
                out[col] += static_cast<float>(w * v[col]);
            }
        }
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

        scores.resize(cands.size());
        scoreGathered(input.query.row(i), input.key, cands.data(),
                      cands.size(), scores.data());
        softmaxInPlace(scores);
        float* out = result.output.row(i);
        for (std::size_t c = 0; c < cands.size(); ++c) {
            const double w = scores[c];
            const float* v = input.value.row(cands[c]);
            for (std::size_t col = 0; col < d; ++col) {
                out[col] += static_cast<float>(w * v[col]);
            }
        }
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
        scores.resize(cands.size());
        scoreGathered(input.query.row(i), input.key, cands.data(),
                      cands.size(), scores.data());
        softmaxInPlace(scores);
        float* out = output.row(i);
        for (std::size_t c = 0; c < cands.size(); ++c) {
            const double w = scores[c];
            const float* v = input.value.row(cands[c]);
            for (std::size_t col = 0; col < d; ++col) {
                out[col] += static_cast<float>(w * v[col]);
            }
        }
    }
    return output;
}

} // namespace elsa
