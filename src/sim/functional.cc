#include "sim/functional.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fixed/custom_float.h"
#include "fixed/fixed_point.h"
#include "lsh/candidates.h"
#include "tensor/ops.h"

namespace elsa {

namespace {

/** Quantize a whole matrix to the S5.3 input format. */
Matrix
quantizeInputMatrix(const Matrix& m)
{
    Matrix out(m.rows(), m.cols());
    for (std::size_t i = 0; i < m.size(); ++i) {
        out.data()[i] = static_cast<float>(
            quantize<5, 3>(static_cast<double>(m.data()[i])));
    }
    return out;
}

} // namespace

FunctionalModel::FunctionalModel(SimConfig config,
                                 std::shared_ptr<const SrpHasher> hasher,
                                 double theta_bias)
    : config_(std::move(config)),
      hasher_(std::move(hasher)),
      cos_lut_(hasher_ ? hasher_->bits() : 1, theta_bias)
{
    ELSA_CHECK(hasher_ != nullptr, "null hasher");
    config_.validate();
    ELSA_CHECK(hasher_->dim() == config_.d,
               "hasher dim " << hasher_->dim() << " != config d "
                             << config_.d);
    ELSA_CHECK(hasher_->bits() == config_.k,
               "hasher bits " << hasher_->bits() << " != config k "
                              << config_.k);
}

double
FunctionalModel::expStage(double x, const ExpUnit& unit) const
{
    return config_.model_quantization ? unit.compute(x) : std::exp(x);
}

double
FunctionalModel::cfq(double x) const
{
    return config_.model_quantization ? quantizeCustomFloatFast(x) : x;
}

FunctionalContext
FunctionalModel::preprocess(const AttentionInput& raw) const
{
    raw.validate();
    ELSA_CHECK(raw.d() == config_.d,
               "input d " << raw.d() << " != config d " << config_.d);

    FunctionalContext ctx;
    if (config_.model_quantization) {
        ctx.input.query = quantizeInputMatrix(raw.query);
        ctx.input.key = quantizeInputMatrix(raw.key);
        ctx.input.value = quantizeInputMatrix(raw.value);
    } else {
        ctx.input = raw;
    }

    const std::size_t n = ctx.input.n();
    ctx.key_hashes = hasher_->hashMatrix(ctx.input.key);
    ctx.key_norms.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
        // Norm = sqrt(K . K): the dot product reuses the attention
        // module's multipliers; the square root is the norm module's
        // tabulate-and-multiply unit. The result is stored in one
        // byte (S4.3 range covers the input norms).
        const double sq = dot(ctx.input.key.row(j), ctx.input.key.row(j),
                              config_.d);
        double norm = config_.model_quantization ? sqrt_unit_.compute(sq)
                                                 : std::sqrt(sq);
        if (config_.model_quantization) {
            norm = quantize<4, 3>(norm);
        }
        ctx.key_norms[j] = norm;
        ctx.max_norm = std::max(ctx.max_norm, norm);
    }

    ctx.query_hashes = hasher_->hashMatrix(ctx.input.query);
    return ctx;
}

void
FunctionalModel::bankHits(const FunctionalContext& ctx,
                          HashView query_hash, std::size_t bank_begin,
                          std::size_t bank_end, double threshold,
                          std::vector<bool>& hits) const
{
    ELSA_CHECK(bank_begin <= bank_end
                   && bank_end <= ctx.key_hashes.size(),
               "bank range [" << bank_begin << "," << bank_end
                              << ") out of bounds");
    thresholdHits(query_hash, ctx.key_hashes, ctx.key_norms, cos_lut_,
                  threshold * ctx.max_norm, bank_begin, bank_end, hits);
}

std::uint32_t
FunctionalModel::bestKey(const FunctionalContext& ctx,
                         HashView query_hash) const
{
    return argmaxSimilarity(query_hash, ctx.key_hashes, ctx.key_norms,
                            cos_lut_, 0, ctx.key_hashes.rows());
}

void
FunctionalModel::computeQueryOutput(
    const FunctionalContext& ctx, std::size_t query_id,
    const std::vector<std::vector<std::uint32_t>>& bank_grants,
    QueryOutputScratch& scratch, float* out_row) const
{
    const std::size_t d = config_.d;
    const float* q = ctx.input.query.row(query_id);

    // Fault injection may hand this run corrupted copies of the LUT
    // units; with no faults the pristine members are used.
    const ExpUnit& exp_unit =
        ctx.faulted_exp ? *ctx.faulted_exp : exp_unit_;
    const ReciprocalUnit& recip_unit =
        ctx.faulted_recip ? *ctx.faulted_recip : recip_unit_;

    // Each bank accumulates a partial weighted sum and a partial
    // sum-of-exponents (Fig. 8); the output division module then
    // reduces the partials and multiplies by the reciprocal.
    double total_sum_exp = 0.0;
    std::vector<double>& total_acc = scratch.total_acc;
    std::vector<double>& bank_acc = scratch.bank_acc;
    std::vector<double>& scores = scratch.scores;
    total_acc.assign(d, 0.0);
    for (const auto& grants : bank_grants) {
        for (const auto key_id : grants) {
            ELSA_CHECK(key_id < ctx.input.n(),
                       "grant key id out of range");
        }
        scores.resize(grants.size());
        scoreGathered(q, ctx.input.key, grants.data(), grants.size(),
                      scores.data());
        double bank_sum_exp = 0.0;
        bank_acc.assign(d, 0.0);
        for (std::size_t g = 0; g < grants.size(); ++g) {
            const double e = expStage(scores[g], exp_unit);
            const float* v = ctx.input.value.row(grants[g]);
            bank_sum_exp = cfq(bank_sum_exp + e);
            if (config_.model_quantization) {
                accumulateCustomFloat(bank_acc.data(), e, v, d);
            } else {
                for (std::size_t c = 0; c < d; ++c) {
                    bank_acc[c] += e * v[c];
                }
            }
        }
        total_sum_exp = cfq(total_sum_exp + bank_sum_exp);
        for (std::size_t c = 0; c < d; ++c) {
            total_acc[c] = cfq(total_acc[c] + bank_acc[c]);
        }
    }

    ELSA_CHECK(total_sum_exp > 0.0,
               "query " << query_id << " accumulated zero probability "
               "mass; candidate lists must be non-empty");
    const double reciprocal = config_.model_quantization
                                  ? recip_unit.compute(total_sum_exp)
                                  : 1.0 / total_sum_exp;
    for (std::size_t c = 0; c < d; ++c) {
        double out = cfq(total_acc[c] * reciprocal);
        if (config_.model_quantization) {
            // The output matrix memory stores 9-bit S5.3 elements.
            out = quantize<5, 3>(out);
        }
        out_row[c] = static_cast<float>(out);
    }
}

} // namespace elsa
