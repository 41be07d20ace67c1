#ifndef ELSA_SIM_FUNCTIONAL_H_
#define ELSA_SIM_FUNCTIONAL_H_

/**
 * @file
 * Functional (value-level) model of the ELSA datapath.
 *
 * Computes what the hardware computes, with the hardware's number
 * formats when SimConfig::model_quantization is set:
 *  - inputs quantized to S5.3 fixed point;
 *  - key norms stored in 8 bits (S4.3-equivalent range here: S5.3
 *    reused, one byte per norm as in Section IV-C (3));
 *  - exponent via the 32-entry LUT unit, reciprocal via the 32-entry
 *    LUT unit, square root via tabulate-and-multiply;
 *  - the exponentiated score, its running sum, and the weighted value
 *    accumulation quantized to the 1/10/5 custom float format.
 *
 * With quantization off, every step is double precision, so the
 * result must match the software ApproxSelfAttention reference (the
 * equivalence tests rely on this).
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "attention/exact.h"
#include "fixed/units.h"
#include "lsh/angle.h"
#include "lsh/bitvector.h"
#include "lsh/srp.h"
#include "sim/config.h"
#include "tensor/matrix.h"

namespace elsa {

/** Preprocessed state held in the accelerator's SRAMs. */
struct FunctionalContext
{
    /** Quantized (or copied) inputs as the input SRAMs hold them. */
    AttentionInput input;

    /** Key hash memory contents (one packed row per key). */
    HashMatrix key_hashes;

    /** Key norm memory contents (possibly 8-bit quantized). */
    std::vector<double> key_norms;

    /** Largest key norm, for the threshold comparison. */
    double max_norm = 0.0;

    /** Query hashes (computed one query ahead in hardware). */
    HashMatrix query_hashes;

    /**
     * Fault-injected LUT units overriding the model's pristine ones
     * for this run (src/fault); null = use the pristine unit. Only
     * the simulator's fault injector ever sets these.
     */
    std::shared_ptr<const ExpUnit> faulted_exp;
    std::shared_ptr<const ReciprocalUnit> faulted_recip;
};

/**
 * Working buffers of computeQueryOutput, owned by the caller so a run
 * allocates them once. Not shareable between concurrent calls.
 */
struct QueryOutputScratch
{
    /** Scores of one bank's granted keys. */
    std::vector<double> scores;

    /** One bank's partial weighted value sum. */
    std::vector<double> bank_acc;

    /** The reduced partial sums of all banks. */
    std::vector<double> total_acc;
};

/** Value-level datapath model. */
class FunctionalModel
{
  public:
    FunctionalModel(SimConfig config,
                    std::shared_ptr<const SrpHasher> hasher,
                    double theta_bias);

    const SimConfig& config() const { return config_; }
    const CosineLut& cosineLut() const { return cos_lut_; }

    /** The pristine LUT units (cloned by the fault injector). */
    const ExpUnit& expUnit() const { return exp_unit_; }
    const ReciprocalUnit& reciprocalUnit() const { return recip_unit_; }

    /** Preprocessing phase: quantize inputs, hash keys, compute norms. */
    FunctionalContext preprocess(const AttentionInput& input) const;

    /**
     * Candidate decisions of one bank for one query, written to hits
     * (resized to the bank's key count; its storage is reused):
     * element j is true when bank-local key j passes the threshold
     * filter.
     *
     * @param ctx        Preprocessed state.
     * @param query_hash Hash of the current query.
     * @param bank_begin First global key id of the bank.
     * @param bank_end   One past the last global key id of the bank.
     * @param threshold  Learned threshold t (compared against
     *                   approx similarity / ||K_max||).
     * @param hits       Output decisions.
     */
    void bankHits(const FunctionalContext& ctx, HashView query_hash,
                  std::size_t bank_begin, std::size_t bank_end,
                  double threshold, std::vector<bool>& hits) const;

    /**
     * Global key id with the highest approximate similarity; the
     * fallback used when no key passes the filter.
     */
    std::uint32_t bestKey(const FunctionalContext& ctx,
                          HashView query_hash) const;

    /**
     * Compute one query's output row (d values, already divided by
     * the sum of exponentiated scores) into out_row from the per-bank
     * candidate grant orders (global key ids), applying the datapath
     * number formats. Mirrors the attention computation + output
     * division modules (Fig. 8 pseudocode), including the banked
     * partial-sum reduction of the parallel pipeline (Section IV-D).
     */
    void computeQueryOutput(
        const FunctionalContext& ctx, std::size_t query_id,
        const std::vector<std::vector<std::uint32_t>>& bank_grants,
        QueryOutputScratch& scratch, float* out_row) const;

  private:
    /** e^x through the given LUT unit (or exactly, without
     *  quantization); the unit is the pristine exp_unit_ or a
     *  fault-injected copy from the context. */
    double expStage(double x, const ExpUnit& unit) const;

    /** Custom-float re-quantization (identity without quantization). */
    double cfq(double x) const;

    SimConfig config_;
    std::shared_ptr<const SrpHasher> hasher_;
    CosineLut cos_lut_;
    ExpUnit exp_unit_;
    ReciprocalUnit recip_unit_;
    SqrtUnit sqrt_unit_;
};

} // namespace elsa

#endif // ELSA_SIM_FUNCTIONAL_H_
