#include "sim/array.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/report.h"

namespace elsa {

AcceleratorArray::AcceleratorArray(SimConfig config,
                                   std::size_t num_accelerators,
                                   std::shared_ptr<const SrpHasher> hasher,
                                   double theta_bias,
                                   SchedulingPolicy policy)
    : num_accelerators_(num_accelerators),
      accelerator_(config, std::move(hasher), theta_bias),
      policy_(policy)
{
    ELSA_CHECK(num_accelerators > 0, "array needs >= 1 accelerator");
}

void
AcceleratorArray::attachObservability(obs::StatsRegistry* stats,
                                      obs::TraceWriter* trace,
                                      const std::string& prefix)
{
    // The prototype accelerator keeps the sinks so the trace's
    // process/thread-name metadata is emitted once, here; the batch
    // runs themselves go through detached per-worker clones and the
    // array publishes their results from the reduction (see run()).
    accelerator_.attachStats(stats, prefix);
    accelerator_.attachTrace(trace);
    stats_ = stats;
    trace_ = trace;
    stats_prefix_ = prefix;
}

ArrayRunResult
AcceleratorArray::run(const std::vector<const AttentionInput*>& inputs,
                      const std::vector<double>& thresholds) const
{
    ELSA_CHECK(inputs.size() == thresholds.size(),
               "inputs/thresholds size mismatch");
    ArrayRunResult result;
    result.num_invocations = inputs.size();
    const std::size_t n = inputs.size();
    for (std::size_t i = 0; i < n; ++i) {
        ELSA_CHECK(inputs[i] != nullptr, "null input " << i);
    }

    const bool tracing = trace_ != nullptr && trace_->enabled();

    // ---- Parallel phase: per-invocation simulation ----
    // Invocations are independent, so they fan out across the pool.
    // Each worker slot gets its own clone of the accelerator with
    // the observability sinks detached: a clone's run() is a pure
    // function of (input, threshold), which is what makes the fan-out
    // safe and the results independent of the thread count. When
    // tracing, every invocation records into its own memory buffer
    // so the merge below can replay the serial event order.
    //
    // The clone set is cached across run() calls (see array.h): the
    // serving engine issues many single-input batches against one
    // array, where re-cloning per call would dominate. The cache is
    // skipped under tracing (per-invocation attachTrace mutates the
    // clones) and under try-lock contention from nested parallelism,
    // both of which fall back to a fresh local set.
    ThreadPool& pool = ThreadPool::global();
    std::vector<Accelerator> local_clones;
    std::unique_lock<std::mutex> cache_lock(clone_mutex_,
                                            std::try_to_lock);
    const bool use_cache = !tracing && cache_lock.owns_lock();
    if (!use_cache && cache_lock.owns_lock()) {
        cache_lock.unlock();
    }
    std::vector<Accelerator>& clones =
        use_cache ? clone_cache_ : local_clones;
    if (clones.size() != pool.threads()) {
        clones.clear();
        clones.reserve(pool.threads());
        for (std::size_t s = 0; s < pool.threads(); ++s) {
            clones.push_back(accelerator_);
            clones.back().attachStats(nullptr);
            clones.back().attachTrace(nullptr);
        }
    }

    std::vector<RunResult> runs(n);
    std::vector<obs::TraceWriter> trace_buffers;
    if (tracing) {
        trace_buffers.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            trace_buffers.push_back(obs::TraceWriter::memoryBuffer());
        }
    }
    pool.parallelFor(n, [&](std::size_t i) {
        Accelerator& accel = clones[ThreadPool::currentSlot()];
        if (tracing) {
            accel.attachTrace(&trace_buffers[i],
                              accelerator_.tracePid());
        }
        runs[i] = accel.run(*inputs[i], thresholds[i]);
        if (tracing) {
            accel.attachTrace(nullptr);
        }
    });

    // ---- Serial reduction, in invocation-index order ----
    // Cycle totals, activity counters, the stall breakdown, stats
    // publication, and the trace merge all happen here in index
    // order, so every reported metric (and every floating-point
    // accumulation behind it) is bit-identical to a serial run.
    std::vector<std::size_t> load(num_accelerators_, 0);
    double fraction_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const RunResult& run_result = runs[i];
        const std::size_t cycles = run_result.totalCycles();
        result.total_cycles += cycles;
        result.total_preprocess_cycles += run_result.preprocess_cycles;
        result.activity.merge(run_result.activity);
        result.stall_breakdown.merge(run_result.stall_breakdown);
        result.fault.merge(run_result.fault);
        if (run_result.telemetry != nullptr) {
            // First shard becomes the batch recorder; later shards
            // fold in by name, still in invocation-index order.
            if (result.telemetry == nullptr) {
                result.telemetry = run_result.telemetry;
            } else {
                result.telemetry->merge(*run_result.telemetry);
            }
        }
        if (run_result.spans != nullptr) {
            // Unlike telemetry, the first shard cannot be adopted
            // directly: every shard's records carry invocation 0 and
            // must be re-tagged with the batch invocation index, so
            // the batch set starts empty and folds every shard.
            if (result.spans == nullptr) {
                result.spans = std::make_shared<obs::QuerySpanSet>(
                    run_result.spans->stageNames(),
                    run_result.spans->causeNames());
            }
            result.spans->mergeInvocation(*run_result.spans, i);
        }
        result.fixed_saturations += run_result.fixed_saturations;
        result.cfloat_saturations += run_result.cfloat_saturations;
        fraction_sum += run_result.candidateFraction();

        if (stats_ != nullptr) {
            publishRunStats(run_result, *stats_, stats_prefix_);
        }
        if (tracing) {
            // Metadata was already emitted on attach; the shards'
            // duplicate copies are skipped.
            trace_->appendFrom(trace_buffers[i],
                               /*skip_metadata=*/true);
        }

        if (policy_ == SchedulingPolicy::kLeastLoaded) {
            auto least = std::min_element(load.begin(), load.end());
            *least += cycles;
        } else {
            load[i % num_accelerators_] += cycles;
        }
    }
    result.makespan_cycles = *std::max_element(load.begin(), load.end());
    result.mean_candidate_fraction =
        inputs.empty() ? 0.0
                       : fraction_sum
                             / static_cast<double>(inputs.size());
    return result;
}

} // namespace elsa
