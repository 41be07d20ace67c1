#include "elsa/elsa.h"

#include "common/rng.h"
#include "lsh/calibration.h"

namespace elsa {

Elsa::Elsa(std::size_t d, std::uint64_t seed) : d_(d)
{
    Rng rng(seed);
    auto hasher = std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(d, 3, rng,
                                       /*quantize_factors=*/true));
    theta_bias_ = thetaBiasFor(d, hasher->bits(), rng);
    hasher_ = hasher;
    engine_ = std::make_unique<ApproxSelfAttention>(hasher_, theta_bias_);
}

std::size_t
Elsa::hashBits() const
{
    return hasher_->bits();
}

Matrix
Elsa::attention(const Matrix& query, const Matrix& key,
                const Matrix& value) const
{
    return exactAttention(AttentionInput{query, key, value});
}

double
Elsa::learnThreshold(const Matrix& query, const Matrix& key,
                     double p) const
{
    ThresholdLearner learner(p);
    learner.observe(query, key);
    return learner.threshold();
}

ApproxAttentionResult
Elsa::approxAttention(
    const Matrix& query, const Matrix& key, const Matrix& value,
    double threshold,
    std::vector<std::vector<std::uint32_t>>* selected) const
{
    return engine_->run(AttentionInput{query, key, value}, threshold,
                        selected);
}

} // namespace elsa
