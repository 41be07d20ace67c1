#include "attention/topk.h"

#include <algorithm>
#include <cmath>

#include "lsh/bitvector.h"
#include "lsh/candidates.h"
#include "tensor/ops.h"

namespace elsa {

namespace {

/** Indices of the k largest scores (ties to the lower index). */
std::vector<std::uint32_t>
topIndices(const std::vector<double>& scores, std::size_t k)
{
    std::vector<std::uint32_t> order(scores.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<std::uint32_t>(i);
    }
    const std::size_t keep = std::min(k, order.size());
    std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          if (scores[a] != scores[b]) {
                              return scores[a] > scores[b];
                          }
                          return a < b;
                      });
    order.resize(keep);
    std::sort(order.begin(), order.end());
    return order;
}

} // namespace

TopKSelector::TopKSelector(const ApproxSelfAttention& engine)
    : engine_(engine)
{
}

std::vector<std::vector<std::uint32_t>>
TopKSelector::select(const AttentionInput& input, std::size_t k) const
{
    input.validate();
    ELSA_CHECK(k >= 1, "top-k needs k >= 1");
    const KeyPreprocessing prep = engine_.preprocessKeys(input.key);
    const auto hasher = engine_.hasher();
    const CosineLut& lut = engine_.cosineLut();

    const HashMatrix query_hashes = hasher->hashMatrix(input.query);
    std::vector<std::vector<std::uint32_t>> out(input.n());
    std::vector<double> sims(input.n());
    for (std::size_t i = 0; i < input.n(); ++i) {
        approximateSimilarities(query_hashes[i], prep.hashes, prep.norms,
                                lut, 0, input.n(), sims.data());
        out[i] = topIndices(sims, k);
    }
    return out;
}

std::vector<std::vector<std::uint32_t>>
TopKSelector::selectOracle(const AttentionInput& input, std::size_t k)
{
    input.validate();
    ELSA_CHECK(k >= 1, "top-k needs k >= 1");
    std::vector<std::vector<std::uint32_t>> out(input.n());
    std::vector<double> scores(input.n());
    for (std::size_t i = 0; i < input.n(); ++i) {
        scoreRows(input.query.row(i), input.key, 0, input.n(),
                  scores.data());
        out[i] = topIndices(scores, k);
    }
    return out;
}

double
TopKSelector::sortOpsPerQuery(std::size_t n)
{
    const double nn = static_cast<double>(n);
    return nn * std::log2(std::max(nn, 2.0));
}

} // namespace elsa
