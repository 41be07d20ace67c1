/**
 * @file
 * The repository benchmark program (see README.md in this directory).
 *
 *   elsa_perfbench --workload <paper_figures|long_context|serve_overload>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *                  [--tiny] [--corrupt] [--trace-out <spans.json>]
 *
 * Every workload builds its inputs from --seed, sets up several
 * times (setup_s is the median), then goes round its inputs until
 * each ran once and --seconds have been measured, checking every
 * output. Reference probes run between the timed steps, and the
 * end-to-end times are scaled by the run's machine factor (see
 * Timeline). The last stdout line is the result object; the line
 * before it holds the run context and the workload's modelled
 * metrics by name.
 *
 * --trace 1 replaces the timed calls by the same work split into the
 * public calls of each layer, each wrapped in a span, and reports
 * per-layer metrics. --tiny shrinks every size for the self-test;
 * --corrupt damages one output per run so the self-test can see the
 * checks fail.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attention/metrics.h"
#include "common/args.h"
#include "common/parallel.h"
#include "common/simd/simd.h"
#include "elsa/elsa.h"
#include "elsa/system.h"
#include "serve/engine.h"
#include "serve/scenario.h"
#include "trace.h"
#include "workload/generator.h"
#include "workload/workload.h"

namespace {

using namespace elsa;
using perfbench::Span;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

/** Seed to confirm a claim on after tuning on other seeds. */
constexpr std::uint64_t kHeldOutSeed = 4242;

/** Traced layer spans must cover at least this share of the traced
 *  call wall time; the rest is the benchmark's own glue. */
constexpr double kMinTraceCoverage = 0.95;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** splitmix64 finaliser: independent streams from one seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Linear-interpolated quantile of a non-empty sample. */
double
quantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo))
                            * (values[hi] - values[lo]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Output checks, counted against the checks attempted. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    expect(bool ok, const std::string& what)
    {
        ++attempted;
        if (!ok) {
            if (failed < 8) {
                std::fprintf(stderr, "perfbench: check failed: %s\n",
                             what.c_str());
            }
            ++failed;
        }
    }
};

/** Time and work of one timed call. */
struct CallSample
{
    double seconds = 0.0;
    double units = 0.0;
};

/** Runs between the timed steps of a call, outside its timing. */
using Pause = std::function<void()>;

/**
 * One benchmark workload. A pass is a fixed sequence of calls over
 * the run's inputs; call(i) times the public call the workload
 * stands for, tracedCall(i) does the same work through the public
 * calls of each layer under spans. tracedCall(i) with a disabled
 * tracer does that work untraced, for the tracing overhead. A call
 * that is a sequence of public calls runs pause() between them.
 */
class Workload
{
  public:
    Workload() = default;
    virtual ~Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    /** Build inputs and library state (repeated for setup_s). */
    virtual void setup(Tracer& tracer) = 0;

    /** Calls in one pass over the run's inputs. */
    virtual std::size_t passCalls() const = 0;

    virtual CallSample call(std::size_t i, Checks& checks,
                            const Pause& pause) = 0;

    virtual void tracedCall(std::size_t i, Tracer& tracer,
                            Checks& checks) = 0;

    /** What one unit of work is, for the context line. */
    virtual const char* unitName() const = 0;

    /** The workload's modelled and accuracy metrics, by name. */
    virtual std::vector<Metric> modelled() const = 0;

    /**
     * Per-layer metrics the workload computes itself: its modelled
     * metrics and exact per-call counts of the traced calls.
     */
    virtual std::vector<Metric> layerMetrics() const = 0;
};

// --------------------------------------------------------------------
// paper_figures: ElsaSystem::evaluateAllModes over BERT-large/SQuAD
// v1.1 and SASRec/ML-1M, for several seeds derived from --seed.
// --------------------------------------------------------------------

/** The evaluation depth of the Fig. 11 / Fig. 13 benches. */
SystemConfig
figureConfig(bool tiny)
{
    SystemConfig config;
    config.eval.max_sublayers = tiny ? 2 : 6;
    config.eval.num_eval_inputs = tiny ? 1 : 3;
    config.eval.num_train_inputs = tiny ? 1 : 3;
    config.sim_sublayers = tiny ? 2 : 6;
    config.sim_inputs = tiny ? 1 : 6;
    config.sim.attribute_stalls = true;
    return config;
}

class PaperFigures final : public Workload
{
  public:
    PaperFigures(std::uint64_t seed, bool tiny, bool corrupt)
        : seed_(seed), corrupt_(corrupt), config_(figureConfig(tiny)),
          rounds_(tiny ? 1 : 6)
    {
    }

    void
    setup(Tracer&) override
    {
        jobs_.clear();
        for (std::size_t r = 0; r < rounds_; ++r) {
            for (const WorkloadSpec& spec :
                 {WorkloadSpec{bertLarge(), squadV11()},
                  WorkloadSpec{sasRec(), movieLens1M()}}) {
                Job job{spec, mixSeed(seed_, r), 0};
                // Simulated queries of one evaluateAllModes: every
                // mode simulates the same invocations.
                const WorkloadRunner runner(spec, job.seed);
                std::size_t tokens = 0;
                for (std::uint64_t id = 0; id < config_.sim_inputs; ++id) {
                    tokens += runner.evalLength(id);
                }
                job.queries =
                    kModes * tokens
                    * runner.representativeSublayers(config_.sim_sublayers)
                          .size();
                jobs_.push_back(job);
            }
        }
    }

    std::size_t passCalls() const override { return jobs_.size(); }

    CallSample
    call(std::size_t i, Checks& checks, const Pause& pause) override
    {
        const Job& job = jobs_[i];
        // ElsaSystem::evaluateAllModes is evaluateMode over the four
        // modes in this order; timed step by step so that the
        // reference probes can run between the steps.
        Clock::time_point start = Clock::now();
        ElsaSystem system(job.spec, config_, job.seed);
        double seconds = secondsSince(start);
        std::vector<ModeReport> reports;
        for (const ApproxMode mode : kModeOrder) {
            pause();
            start = Clock::now();
            reports.push_back(system.evaluateMode(mode));
            seconds += secondsSince(start);
        }

        if (corrupt_ && i == 0) {
            reports[0].simulated_cycles += 1;
            reports[1].candidate_fraction = 1.5;
        }
        checks.expect(reports.size() == kModes, "paper_figures: 4 modes");
        for (const ModeReport& report : reports) {
            checks.expect(
                report.stall_breakdown.conserves(report.simulated_cycles,
                                                 config_.sim),
                "paper_figures: stall conservation, "
                    + job.spec.label() + " "
                    + approxModeName(report.mode));
            checks.expect(report.candidate_fraction >= 0.0
                              && report.candidate_fraction <= 1.0,
                          "paper_figures: candidate fraction in [0, 1]");
        }
        last_reports_.resize(jobs_.size());
        last_reports_[i] = std::move(reports);
        return {seconds, static_cast<double>(job.queries)};
    }

    void
    tracedCall(std::size_t i, Tracer& tracer, Checks& checks) override
    {
        if (!tracer.enabled()) {
            // The facade is the untraced form of the replay below,
            // and its reports are what the replay must reproduce.
            call(i, checks, [] {});
            return;
        }
        const Job& job = jobs_[i];
        // The steps of ElsaSystem::evaluateAllModes, call by call:
        // fidelity over the p grid, p per mode, then invocations and
        // one array run per mode.
        const WorkloadRunner runner = [&] {
            Span span(tracer, "workload.runner");
            return WorkloadRunner(job.spec, job.seed);
        }();
        const std::vector<double>& grid = WorkloadRunner::standardPGrid();
        std::vector<WorkloadEvaluation> fidelity;
        for (const double p : grid) {
            Span span(tracer, "workload.evaluate");
            fidelity.push_back(runner.evaluate(p, config_.eval));
        }
        // The replay must reproduce the reports of the untraced
        // evaluateAllModes call just made on the same job.
        const std::vector<ModeReport>& reports = last_reports_[i];
        std::size_t queries = 0;
        std::size_t cycles = 0;
        double candidate_sum = 0.0;
        for (std::size_t m = 0; m < kModes; ++m) {
            const ApproxMode mode = kModeOrder[m];
            double p = 0.0;
            if (mode != ApproxMode::kBase) {
                const double bound =
                    accuracyLossBound(job.spec.model, mode);
                for (std::size_t g = 0; g < grid.size(); ++g) {
                    if (fidelity[g].estimated_loss_pct <= bound) {
                        p = std::max(p, grid[g]);
                    }
                }
            }
            std::vector<SimInvocation> invocations;
            {
                Span span(tracer, "workload.sim_invocations");
                invocations = runner.simInvocations(
                    p, config_.sim_inputs, config_.sim_sublayers,
                    config_.eval);
            }
            std::vector<const AttentionInput*> inputs;
            std::vector<double> thresholds;
            for (const SimInvocation& inv : invocations) {
                inputs.push_back(&inv.input);
                thresholds.push_back(inv.threshold);
                queries += inv.input.n();
            }
            ArrayRunResult run;
            {
                Span span(tracer, "sim.array_run");
                const AcceleratorArray array(
                    config_.sim, config_.num_accelerators,
                    runner.engine().hasher(),
                    runner.engine().cosineLut().thetaBias());
                run = array.run(inputs, thresholds);
            }
            checks.expect(run.stall_breakdown.conserves(run.total_cycles,
                                                        config_.sim),
                          "paper_figures trace: stall conservation");
            checks.expect(
                m < reports.size() && reports[m].p == p
                    && reports[m].simulated_cycles == run.total_cycles
                    && reports[m].candidate_fraction
                           == run.mean_candidate_fraction,
                "paper_figures trace: replay equals evaluateAllModes");
            cycles += run.total_cycles;
            candidate_sum += run.mean_candidate_fraction;
        }
        checks.expect(queries == job.queries,
                      "paper_figures trace: simulated query count");
        // Kept per job, so repeated passes leave the means unchanged.
        jobs_[i].traced_cycles = cycles;
        jobs_[i].traced_candidate_fraction =
            candidate_sum / static_cast<double>(kModes);
    }

    const char* unitName() const override { return "simulated query"; }

    std::vector<Metric>
    modelled() const override
    {
        // Geometric mean over the run's jobs of the moderate-mode
        // ratios Fig. 11a / 11b / 13a report.
        double log_tput = 0.0;
        double log_energy = 0.0;
        double log_latency = 0.0;
        double count = 0.0;
        for (const std::vector<ModeReport>& reports : last_reports_) {
            for (const ModeReport& report : reports) {
                if (report.mode == ApproxMode::kModerate) {
                    log_tput += std::log(report.throughput_vs_gpu);
                    log_energy += std::log(report.energy_eff_vs_gpu);
                    log_latency += std::log(report.latency_vs_ideal);
                    count += 1.0;
                }
            }
        }
        if (count == 0.0) {
            return {};
        }
        return {
            {"elsa.throughput_vs_gpu_moderate",
             std::exp(log_tput / count), "x"},
            {"elsa.energy_eff_vs_gpu_moderate",
             std::exp(log_energy / count), "x"},
            {"elsa.latency_vs_ideal_moderate",
             std::exp(log_latency / count), "x"},
        };
    }

    std::vector<Metric>
    layerMetrics() const override
    {
        // Means per job over the jobs the traced run reached.
        double traced = 0.0;
        double cycles = 0.0;
        double queries = 0.0;
        double fraction = 0.0;
        for (const Job& job : jobs_) {
            if (job.traced_cycles > 0) {
                traced += 1.0;
                cycles += static_cast<double>(job.traced_cycles);
                queries += static_cast<double>(job.queries);
                fraction += job.traced_candidate_fraction;
            }
        }
        traced = std::max(traced, 1.0);
        std::vector<Metric> metrics = modelled();
        metrics.insert(metrics.end(), {
            {"sim.cycles", cycles / traced, "count"},
            {"sim.queries", queries / traced, "count"},
            {"sim.candidate_fraction", fraction / traced, "fraction"},
        });
        return metrics;
    }

  private:
    static constexpr std::size_t kModes = 4;
    static constexpr ApproxMode kModeOrder[kModes] = {
        ApproxMode::kBase, ApproxMode::kConservative,
        ApproxMode::kModerate, ApproxMode::kAggressive};

    struct Job
    {
        WorkloadSpec spec;
        std::uint64_t seed = 0;
        std::size_t queries = 0;
        /** Simulated cycles and mean candidate fraction of the traced
         *  replay over the four modes; 0 until traced. */
        std::size_t traced_cycles = 0;
        double traced_candidate_fraction = 0.0;
    };

    std::uint64_t seed_;
    bool corrupt_;
    SystemConfig config_;
    std::size_t rounds_;
    std::vector<Job> jobs_;
    std::vector<std::vector<ModeReport>> last_reports_;
};

// --------------------------------------------------------------------
// long_context: Elsa::approxAttention on n = 1024 inputs from a few
// BERT-large sublayer profiles; thresholds learned once at set-up.
// --------------------------------------------------------------------

class LongContext final : public Workload
{
  public:
    LongContext(std::uint64_t seed, bool tiny, bool corrupt)
        : seed_(seed), corrupt_(corrupt), n_(tiny ? 128 : 1024)
    {
        if (tiny) {
            sublayers_.resize(2);
        }
    }

    void
    setup(Tracer& tracer) override
    {
        const QkvGenerator generator(bertLarge(), mixSeed(seed_, 1));
        elsa_ = std::make_unique<Elsa>(kDim, mixSeed(seed_, 2));
        pool_.clear();
        for (const SublayerCoord& c : sublayers_) {
            AttentionInput train;
            {
                Span span(tracer, "workload.generate");
                train = generator.generate(c.layer, c.head, n_, kTrainId);
            }
            double threshold = 0.0;
            {
                Span span(tracer, "attention.learn_threshold");
                threshold =
                    elsa_->learnThreshold(train.query, train.key, kP);
            }
            Entry entry;
            entry.threshold = threshold;
            {
                Span span(tracer, "workload.generate");
                entry.input = generator.generate(c.layer, c.head, n_, 0);
            }
            pool_.push_back(std::move(entry));
        }
    }

    std::size_t passCalls() const override { return pool_.size(); }

    CallSample
    call(std::size_t i, Checks& checks, const Pause&) override
    {
        Entry& entry = pool_[i];
        const AttentionInput& in = entry.input;
        const Clock::time_point start = Clock::now();
        ApproxAttentionResult result = elsa_->approxAttention(
            in.query, in.key, in.value, entry.threshold);
        const double seconds = secondsSince(start);

        referenceFor(entry);
        if (corrupt_ && i == 0) {
            for (std::size_t k = 0; k < result.output.size(); ++k) {
                result.output.data()[k] += 1.0F;
            }
        }
        checkCall(entry, result, checks);
        return {seconds, static_cast<double>(n_)};
    }

    void
    tracedCall(std::size_t i, Tracer& tracer, Checks& checks) override
    {
        Entry& entry = pool_[i];
        const AttentionInput& in = entry.input;
        const ApproxSelfAttention& engine = elsa_->engine();
        {
            Span span(tracer, "lsh.preprocess_keys");
            const KeyPreprocessing prep = engine.preprocessKeys(in.key);
            checks.expect(prep.hashes.rows() == n_,
                          "long_context trace: one hash per key");
        }
        std::vector<std::vector<std::uint32_t>> candidates;
        {
            Span span(tracer, "lsh.candidates");
            candidates = engine.candidatesForAll(in, entry.threshold);
        }
        ApproxAttentionResult result;
        {
            Span span(tracer, "attention.approx_run");
            result = elsa_->approxAttention(in.query, in.key, in.value,
                                            entry.threshold);
        }
        // The check's references, recomputed in every split so the
        // untraced and traced splits do the same work.
        {
            Span span(tracer, "attention.exact");
            entry.exact = exactAttention(in);
        }
        {
            Span span(tracer, "attention.mass_recall");
            entry.mass_recall = attentionMassRecall(in, candidates);
        }
        std::size_t selected = 0;
        for (const auto& list : candidates) {
            selected += list.size();
        }
        checks.expect(result.stats.totalCandidates()
                          == selected + result.stats.empty_selections,
                      "long_context trace: candidatesForAll matches run");
        if (tracer.enabled()) {
            entry.traced_fraction = result.stats.candidateFraction(n_);
            entry.traced_empty =
                static_cast<double>(result.stats.empty_selections);
        }
        checkCall(entry, result, checks);
    }

    const char* unitName() const override { return "query row"; }

    std::vector<Metric>
    modelled() const override
    {
        // Means over the inputs, not over calls: the number of calls
        // depends on the machine, the per-input values do not.
        double recall = 0.0;
        double rmse = 0.0;
        for (const Entry& entry : pool_) {
            recall += entry.mass_recall;
            rmse += entry.rmse;
        }
        const auto inputs = static_cast<double>(pool_.size());
        return {
            {"attention.mass_recall_mean", recall / inputs, "fraction"},
            {"attention.output_rmse", rmse / inputs, "value"},
        };
    }

    std::vector<Metric>
    layerMetrics() const override
    {
        double fraction = 0.0;
        double empty = 0.0;
        for (const Entry& entry : pool_) {
            fraction += entry.traced_fraction;
            empty += entry.traced_empty;
        }
        const auto inputs = static_cast<double>(pool_.size());
        std::vector<Metric> metrics = modelled();
        metrics.insert(metrics.end(), {
            {"attention.candidate_fraction", fraction / inputs,
             "fraction"},
            {"attention.empty_selections", empty / inputs, "count"},
        });
        return metrics;
    }

  private:
    static constexpr std::size_t kDim = 64;
    static constexpr double kP = 1.0;
    static constexpr std::uint64_t kTrainId = 1000;
    /** Accuracy bounds every call must meet at p = 1. */
    static constexpr double kMinMassRecall = 0.6;
    static constexpr double kMaxOutputRmse = 0.1;

    struct Entry
    {
        AttentionInput input;
        double threshold = 0.0;
        /** Reference output and recall, filled outside timed calls. */
        Matrix exact;
        double mass_recall = -1.0;
        /** RMSE of the last call's output against `exact`. */
        double rmse = 0.0;
        /** Candidate fraction and empty selections of the traced
         *  call. */
        double traced_fraction = 0.0;
        double traced_empty = 0.0;
    };

    /** Exact reference of an entry, computed once, untimed. */
    void
    referenceFor(Entry& entry) const
    {
        if (entry.mass_recall >= 0.0) {
            return;
        }
        entry.exact = exactAttention(entry.input);
        entry.mass_recall = attentionMassRecall(
            entry.input,
            elsa_->engine().candidatesForAll(entry.input, entry.threshold));
    }

    void
    checkCall(Entry& entry, const ApproxAttentionResult& result,
              Checks& checks)
    {
        const Matrix& out = result.output;
        double sq = 0.0;
        bool same_shape = out.rows() == entry.exact.rows()
                          && out.cols() == entry.exact.cols();
        if (same_shape) {
            for (std::size_t k = 0; k < out.size(); ++k) {
                const double diff =
                    static_cast<double>(out.data()[k])
                    - static_cast<double>(entry.exact.data()[k]);
                sq += diff * diff;
            }
        }
        const double rmse =
            same_shape ? std::sqrt(sq / static_cast<double>(out.size()))
                       : std::numeric_limits<double>::infinity();
        const double fraction = result.stats.candidateFraction(n_);
        checks.expect(same_shape && std::isfinite(rmse)
                          && rmse <= kMaxOutputRmse,
                      "long_context: output rmse " + std::to_string(rmse)
                          + " within bound");
        checks.expect(entry.mass_recall >= kMinMassRecall,
                      "long_context: mass recall "
                          + std::to_string(entry.mass_recall)
                          + " within bound");
        checks.expect(fraction > 0.0 && fraction <= 1.0,
                      "long_context: candidate fraction in (0, 1]");
        entry.rmse = rmse;
    }

    std::uint64_t seed_;
    bool corrupt_;
    std::size_t n_;
    /**
     * Sixteen sublayers spread over all 24 layers and all 16 heads:
     * each learns its own threshold, so the candidate fraction (and
     * with it the call cost) averages over sixteen independent
     * thresholds instead of swinging with one.
     */
    std::vector<SublayerCoord> sublayers_ = {
        {0, 0},   {1, 5},   {3, 10},  {4, 15}, {6, 2},   {7, 7},
        {9, 12},  {10, 1},  {12, 6},  {13, 11}, {15, 0}, {16, 5},
        {18, 10}, {19, 15}, {21, 3},  {23, 8}};
    std::unique_ptr<Elsa> elsa_;
    std::vector<Entry> pool_;
};

// --------------------------------------------------------------------
// serve_overload: the canonical 2x overload scenario with the
// degradation ladder, scaled to ~1e6 requests per ServeEngine::run.
// --------------------------------------------------------------------

class ServeOverload final : public Workload
{
  public:
    ServeOverload(std::uint64_t seed, bool tiny, bool corrupt)
        : seed_(seed), corrupt_(corrupt),
          num_requests_(tiny ? 4000 : 1000000)
    {
    }

    void
    setup(Tracer& tracer) override
    {
        ServeConfig config = overloadScenario(2.0, /*degraded=*/true,
                                              /*quick=*/false);
        config.num_requests = num_requests_;
        config.seed = mixSeed(seed_, 3);
        Span span(tracer, "serve.catalog");
        engine_ = std::make_unique<ServeEngine>(config);
    }

    std::size_t passCalls() const override { return 1; }

    CallSample
    call(std::size_t, Checks& checks, const Pause&) override
    {
        const Clock::time_point start = Clock::now();
        ServeResult result = engine_->run();
        const double seconds = secondsSince(start);
        if (corrupt_ && calls_ == 0) {
            result.completed += 1;
        }
        checkRun(result, checks);
        return {seconds, static_cast<double>(result.offered)};
    }

    void
    tracedCall(std::size_t, Tracer& tracer, Checks& checks) override
    {
        ServeResult result;
        {
            Span span(tracer, "serve.run");
            result = engine_->run();
        }
        checkRun(result, checks);
        if (tracer.enabled()) {
            traced_ = result;
        }
    }

    const char* unitName() const override { return "request"; }

    std::vector<Metric>
    modelled() const override
    {
        if (calls_ == 0) {
            return {};
        }
        return {
            {"serve.goodput_qps", last_.goodput_qps, "1/s"},
            {"serve.p99_latency_cycles", last_.latency.quantile(0.99),
             "cycles"},
            {"serve.deadline_miss_rate", last_.deadline_miss_rate,
             "fraction"},
        };
    }

    std::vector<Metric>
    layerMetrics() const override
    {
        const auto count = [](std::uint64_t v) {
            return static_cast<double>(v);
        };
        std::vector<Metric> metrics = modelled();
        metrics.insert(metrics.end(), {
            {"serve.offered", count(traced_.offered), "count"},
            {"serve.completed", count(traced_.completed), "count"},
            {"serve.shed", count(traced_.shed), "count"},
            {"serve.rejected", count(traced_.rejected), "count"},
            {"serve.failed", count(traced_.failed), "count"},
            {"serve.retry_attempts", count(traced_.retry_attempts),
             "count"},
        });
        return metrics;
    }

  private:
    void
    checkRun(const ServeResult& result, Checks& checks)
    {
        checks.expect(result.offered == num_requests_,
                      "serve_overload: every request offered");
        checks.expect(result.conservesOffered(),
                      "serve_overload: offered == admitted + rejected");
        checks.expect(result.conservesAdmitted(),
                      "serve_overload: admitted == completed + shed + "
                      "failed");
        if (calls_ > 0) {
            // The event loop is deterministic: every replay of the
            // same trace must give the same accounting.
            checks.expect(result.completed == last_.completed
                              && result.shed == last_.shed
                              && result.span_cycles == last_.span_cycles,
                          "serve_overload: replay is deterministic");
        }
        last_ = result;
        ++calls_;
    }

    std::uint64_t seed_;
    bool corrupt_;
    std::size_t num_requests_;
    std::unique_ptr<ServeEngine> engine_;
    ServeResult last_;
    ServeResult traced_;
    std::size_t calls_ = 0;
};

// --------------------------------------------------------------------
// Measurement
// --------------------------------------------------------------------

/**
 * Every per-layer metric, in output order. Each workload reports all
 * of them; a layer the workload does not drive reports 0. Span
 * timings are self seconds per call, or per set-up for the spans
 * that run only at set-up.
 */
struct LayerMetricDef
{
    const char* name;
    const char* unit;
    /** Span whose self time this is, or null for a value the
     *  workload or the measurement derives. */
    const char* span;
    bool per_setup;
};

constexpr LayerMetricDef kLayerMetrics[] = {
    {"workload.runner_s", "s", "workload.runner", false},
    {"workload.evaluate_s", "s", "workload.evaluate", false},
    {"workload.sim_invocations_s", "s", "workload.sim_invocations", false},
    {"sim.array_run_s", "s", "sim.array_run", false},
    {"sim.host_ns_per_cycle", "ns", nullptr, false},
    {"sim.cycles", "count", nullptr, false},
    {"sim.queries", "count", nullptr, false},
    {"sim.candidate_fraction", "fraction", nullptr, false},
    {"elsa.throughput_vs_gpu_moderate", "x", nullptr, false},
    {"elsa.energy_eff_vs_gpu_moderate", "x", nullptr, false},
    {"elsa.latency_vs_ideal_moderate", "x", nullptr, false},
    {"workload.generate_s", "s", "workload.generate", true},
    {"attention.learn_threshold_s", "s", "attention.learn_threshold",
     true},
    {"lsh.preprocess_keys_s", "s", "lsh.preprocess_keys", false},
    {"lsh.candidates_s", "s", "lsh.candidates", false},
    {"attention.approx_run_s", "s", "attention.approx_run", false},
    {"attention.exact_s", "s", "attention.exact", false},
    {"attention.mass_recall_s", "s", "attention.mass_recall", false},
    {"attention.candidate_fraction", "fraction", nullptr, false},
    {"attention.empty_selections", "count", nullptr, false},
    {"attention.mass_recall_mean", "fraction", nullptr, false},
    {"attention.output_rmse", "value", nullptr, false},
    {"serve.catalog_s", "s", "serve.catalog", true},
    {"serve.run_s", "s", "serve.run", false},
    {"serve.ns_per_request", "ns", nullptr, false},
    {"serve.offered", "count", nullptr, false},
    {"serve.completed", "count", nullptr, false},
    {"serve.shed", "count", nullptr, false},
    {"serve.rejected", "count", nullptr, false},
    {"serve.failed", "count", nullptr, false},
    {"serve.retry_attempts", "count", nullptr, false},
    {"serve.goodput_qps", "1/s", nullptr, false},
    {"serve.p99_latency_cycles", "cycles", nullptr, false},
    {"serve.deadline_miss_rate", "fraction", nullptr, false},
    {"trace.coverage", "fraction", nullptr, false},
    {"trace.overhead_s", "s", nullptr, false},
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric>& metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": "
               + jsonNumber(metrics[i].value) + ", \"unit\": \""
               + metrics[i].unit + "\"}";
    }
    return out + "}";
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool corrupt = false;
    std::string trace_out;
};

std::unique_ptr<Workload>
makeWorkload(const Options& opt)
{
    if (opt.workload == "paper_figures") {
        return std::make_unique<PaperFigures>(opt.seed, opt.tiny,
                                              opt.corrupt);
    }
    if (opt.workload == "long_context") {
        return std::make_unique<LongContext>(opt.seed, opt.tiny,
                                             opt.corrupt);
    }
    if (opt.workload == "serve_overload") {
        return std::make_unique<ServeOverload>(opt.seed, opt.tiny,
                                               opt.corrupt);
    }
    return nullptr;
}

/**
 * Machine-speed reference. Other tenants of a shared machine slow its
 * cores by up to 40%, from one second to the next and for minutes at
 * a time, and no statistic over one run's own calls removes a slow
 * spell that lasts the whole run. A probe is a fixed amount of work
 * that lives in this file, so no library change moves it, in three
 * shapes of the library's hot loops, about 3 ms each: a pointer chase
 * through a 512 KiB single-cycle permutation (memory latency), a
 * block of 64-wide float dot products (vector arithmetic) and an
 * event queue with data-dependent branches (the simulator and the
 * serving loop).
 */
class ReferenceProbe
{
  public:
    ReferenceProbe()
        : next_(kChaseSlots), keys_(kKeys * kDim),
          queries_(kQueries * kDim)
    {
        // Sattolo's shuffle: a single cycle through every slot, so the
        // chase visits the whole table.
        for (std::uint32_t i = 0; i < kChaseSlots; ++i) {
            next_[i] = i;
        }
        for (std::uint32_t i = kChaseSlots - 1; i > 0; --i) {
            const auto j = static_cast<std::uint32_t>(mixSeed(0x9b05, i) % i);
            std::swap(next_[i], next_[j]);
        }
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            keys_[i] = std::sin(0.37F * static_cast<float>(i));
        }
        for (std::size_t i = 0; i < queries_.size(); ++i) {
            queries_[i] = std::cos(0.11F * static_cast<float>(i));
        }
        events_.reserve(kEvents);
    }

    /** Seconds one probe took. */
    double
    run()
    {
        const Clock::time_point start = Clock::now();
        std::uint32_t slot = 0;
        for (std::size_t step = 0; step < kChaseSteps; ++step) {
            slot = next_[slot];
        }
        float mass = 0.0F;
        for (std::size_t q = 0; q < kQueries; ++q) {
            const float* query = &queries_[q * kDim];
            for (std::size_t k = 0; k < kKeys; ++k) {
                const float* key = &keys_[k * kDim];
                float dot = 0.0F;
                for (std::size_t d = 0; d < kDim; ++d) {
                    dot += query[d] * key[d];
                }
                mass += dot > 0.0F ? dot : 0.0F;
            }
        }
        const std::uint64_t tally = eventQueue();
        const double seconds = secondsSince(start);
        // Keeps every loop observable, so none is optimised away.
        checksum_ += static_cast<double>(slot) + static_cast<double>(mass)
                     + static_cast<double>(tally);
        return seconds;
    }

    double checksum() const { return checksum_; }

  private:
    using Event = std::pair<std::uint64_t, std::uint32_t>;

    /** Pops the earliest event and reschedules it at a pseudo-random
     *  delay; each step takes one of three data-dependent branches. */
    std::uint64_t
    eventQueue()
    {
        events_.clear();
        std::uint64_t state = 0x5eed;
        for (std::uint32_t id = 0; id < kEvents; ++id) {
            events_.push_back({mixSeed(state, id) % 1000, id});
        }
        std::make_heap(events_.begin(), events_.end(), std::greater<>());
        std::uint64_t tally = 0;
        for (std::size_t step = 0; step < kEventSteps; ++step) {
            std::pop_heap(events_.begin(), events_.end(), std::greater<>());
            Event& event = events_.back();
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            const std::uint64_t delay = (state >> 33) % 97;
            if (delay < 40) {
                tally += event.second;
            } else if (delay < 70) {
                tally ^= event.first;
            } else {
                tally += delay;
            }
            event.first += 1 + delay;
            std::push_heap(events_.begin(), events_.end(), std::greater<>());
        }
        return tally;
    }

    static constexpr std::uint32_t kChaseSlots = 1U << 17;
    static constexpr std::size_t kChaseSteps = std::size_t{1} << 17;
    static constexpr std::size_t kKeys = 1024;
    static constexpr std::size_t kQueries = 96;
    static constexpr std::size_t kDim = 64;
    static constexpr std::uint32_t kEvents = 256;
    static constexpr std::size_t kEventSteps = std::size_t{1} << 15;

    std::vector<std::uint32_t> next_;
    std::vector<float> keys_;
    std::vector<float> queries_;
    std::vector<Event> events_;
    double checksum_ = 0.0;
};

/**
 * Timed items (set-ups and calls) interleaved with reference probes.
 * Before an item, once kProbeEveryS has passed since the last probe,
 * probes run for kProbeShare of the time since then (at least one
 * probe), and once more when the timeline closes; probes so sample
 * the machine evenly over the run, never inside a timed item. The
 * run's machine factor is kNominalProbeS over the median probe time:
 * a time multiplied by it is what the item would have taken while the
 * machine ran the probe in its nominal time.
 */
class Timeline
{
  public:
    /** About the probe's median time on the 4-core Xeon this was
     *  tuned on; it only sets the scale of the normalised figures. */
    static constexpr double kNominalProbeS = 0.008;
    static constexpr double kProbeEveryS = 0.25;
    static constexpr double kProbeShare = 0.03;

    Timeline() : last_probe_(Clock::now()) {}

    /** Call right before a timed item. */
    void
    beforeItem()
    {
        if (probes_.empty() || secondsSince(last_probe_) >= kProbeEveryS) {
            probe();
        }
    }

    /** Ends the timeline with probes after the last item. */
    void close() { probe(); }

    /** kNominalProbeS over the median probe time so far. */
    double
    machineFactor() const
    {
        return kNominalProbeS / quantile(probes_, 0.5);
    }

    const std::vector<double>& probes() const { return probes_; }
    double checksum() const { return probe_.checksum(); }

  private:
    void
    probe()
    {
        const double budget = kProbeShare * secondsSince(last_probe_);
        double spent = 0.0;
        do {
            probes_.push_back(probe_.run());
            spent += probes_.back();
        } while (spent < budget);
        last_probe_ = Clock::now();
    }

    ReferenceProbe probe_;
    std::vector<double> probes_;
    Clock::time_point last_probe_;
};

/** Timings of an untraced run that go to the context line. */
struct RunRecord
{
    double raw_units_per_s = std::numeric_limits<double>::quiet_NaN();
    double mean_units_per_s = std::numeric_limits<double>::quiet_NaN();
    double call_p50_ms = std::numeric_limits<double>::quiet_NaN();
    double call_p90_ms = std::numeric_limits<double>::quiet_NaN();
    double norm_us_per_unit_p50 = std::numeric_limits<double>::quiet_NaN();
    double norm_us_per_unit_p90 = std::numeric_limits<double>::quiet_NaN();
    double probe_ms_p50 = std::numeric_limits<double>::quiet_NaN();
    std::size_t probes = 0;
};

/** The workload's end-to-end metrics from untraced calls. */
std::vector<Metric>
measure(Workload& workload, const Options& opt, Checks& checks,
        std::size_t& calls, RunRecord& record)
{
    Tracer off(false);
    Timeline timeline;
    // Set up at least three times and for at least half a second;
    // setup_s is the median. A set-up shorter than 20 ms is repeated
    // inside one sample. The last set-up is the one used.
    std::vector<double> setup_s;
    double setup_total = 0.0;
    while (setup_s.size() < (opt.tiny ? 1U : 3U)
           || (setup_total < 0.5 && setup_s.size() < 100)) {
        timeline.beforeItem();
        std::size_t reps = 0;
        const Clock::time_point start = Clock::now();
        do {
            workload.setup(off);
            ++reps;
        } while (secondsSince(start) < 0.02);
        const double seconds = secondsSince(start);
        setup_s.push_back(seconds / static_cast<double>(reps));
        setup_total += seconds;
    }
    // Calls go round the inputs until each input ran once and
    // --seconds have elapsed; a run may end inside a round.
    const std::size_t inputs = workload.passCalls();
    std::vector<std::vector<double>> samples(inputs);
    std::vector<double> units(inputs, 0.0);
    std::vector<double> call_ms;
    double total_s = 0.0;
    double total_units = 0.0;
    const Clock::time_point start = Clock::now();
    do {
        const std::size_t i = call_ms.size() % inputs;
        timeline.beforeItem();
        const CallSample sample =
            workload.call(i, checks, [&] { timeline.beforeItem(); });
        samples[i].push_back(sample.seconds);
        units[i] = sample.units;
        call_ms.push_back(sample.seconds * 1e3);
        total_s += sample.seconds;
        total_units += sample.units;
    } while (call_ms.size() < inputs || secondsSince(start) < opt.seconds);
    timeline.close();
    calls = call_ms.size();

    // Each input counts once, at the median of its calls, so a run
    // that ends inside a round does not over-weight the inputs it
    // reached.
    const double factor = timeline.machineFactor();
    double pass_s = 0.0;
    double pass_units = 0.0;
    std::vector<double> us_per_unit;
    for (std::size_t i = 0; i < inputs; ++i) {
        const double median_s = quantile(samples[i], 0.5);
        pass_s += median_s;
        pass_units += units[i];
        us_per_unit.push_back(median_s * factor * 1e6 / units[i]);
    }
    std::vector<double> probe_ms;
    for (const double seconds : timeline.probes()) {
        probe_ms.push_back(seconds * 1e3);
    }
    checks.expect(std::isfinite(timeline.checksum()),
                  "reference probe: finite checksum");
    record.raw_units_per_s = pass_units / pass_s;
    record.mean_units_per_s = total_units / total_s;
    record.call_p50_ms = quantile(call_ms, 0.5);
    record.call_p90_ms = quantile(call_ms, 0.9);
    record.norm_us_per_unit_p50 = quantile(us_per_unit, 0.5);
    record.norm_us_per_unit_p90 = quantile(us_per_unit, 0.9);
    record.probe_ms_p50 = quantile(probe_ms, 0.5);
    record.probes = probe_ms.size();
    return {
        {"setup_s", quantile(setup_s, 0.5) * factor, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"norm_units_per_s", pass_units / (pass_s * factor), "1/s"},
    };
}

/** The per-layer metrics of one traced run. */
std::vector<Metric>
measureTraced(Workload& workload, const Options& opt, Checks& checks,
              std::size_t& calls)
{
    Tracer tracer(true);
    Tracer off(false);
    workload.setup(tracer);
    // Each call's split runs untraced, then traced, so the two wall
    // times see the same machine state.
    double untraced_s = 0.0;
    double traced_s = 0.0;
    const Clock::time_point start = Clock::now();
    do {
        for (std::size_t i = 0; i < workload.passCalls(); ++i) {
            const Clock::time_point t_off = Clock::now();
            workload.tracedCall(i, off, checks);
            untraced_s += secondsSince(t_off);
            tracer.setOp(++calls);
            const Clock::time_point t0 = Clock::now();
            {
                Span root(tracer, "bench.call");
                workload.tracedCall(i, tracer, checks);
            }
            traced_s += secondsSince(t0);
        }
    } while (secondsSince(start) < opt.seconds);

    const std::map<std::string, double> setup_self =
        tracer.selfSecondsByName(true);
    const std::map<std::string, double> call_self =
        tracer.selfSecondsByName(false);
    const double per_call = 1.0 / static_cast<double>(calls);
    std::map<std::string, double> values;
    for (const Metric& m : workload.layerMetrics()) {
        values[m.name] = m.value;
    }
    for (const LayerMetricDef& def : kLayerMetrics) {
        if (def.span == nullptr) {
            continue;
        }
        const auto& self = def.per_setup ? setup_self : call_self;
        const auto it = self.find(def.span);
        if (it != self.end()) {
            values[def.name] = def.per_setup ? it->second
                                             : it->second * per_call;
        }
    }
    if (values["sim.cycles"] > 0.0) {
        values["sim.host_ns_per_cycle"] =
            values["sim.array_run_s"] * 1e9 / values["sim.cycles"];
    }
    if (values["serve.offered"] > 0.0) {
        values["serve.ns_per_request"] =
            values["serve.run_s"] * 1e9 / values["serve.offered"];
    }
    // The self times of all call spans add up to the traced wall time
    // of the calls; the root's own share is the benchmark's glue.
    double total_self = 0.0;
    for (const auto& [name, seconds] : call_self) {
        total_self += seconds;
    }
    const double coverage =
        total_self > 0.0 ? 1.0 - call_self.at("bench.call") / total_self
                         : 0.0;
    checks.expect(coverage >= kMinTraceCoverage,
                  "trace: layer spans cover " + std::to_string(coverage)
                      + " of the traced wall time");
    values["trace.coverage"] = coverage;
    values["trace.overhead_s"] = (traced_s - untraced_s) * per_call;

    if (!opt.trace_out.empty() && !tracer.writeJson(opt.trace_out)) {
        checks.expect(false, "trace: spans written to " + opt.trace_out);
    }
    std::vector<Metric> metrics;
    for (const LayerMetricDef& def : kLayerMetrics) {
        metrics.push_back({def.name, values[def.name], def.unit});
    }
    return metrics;
}

int
run(const Options& opt)
{
    std::unique_ptr<Workload> workload = makeWorkload(opt);
    if (!workload) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    // One pool thread: per-layer times then add up to the run's time
    // and do not depend on how the machine schedules workers.
    const std::size_t threads = 1;
    ThreadPool::setGlobalThreads(threads);

    Checks checks;
    std::size_t calls = 0;
    RunRecord record;
    const std::vector<Metric> metrics =
        opt.trace ? measureTraced(*workload, opt, checks, calls)
                  : measure(*workload, opt, checks, calls, record);

    // Context line: run environment and the modelled metrics by name.
    const char* simd_env = std::getenv("ELSA_SIMD");
    std::printf(
        "perfbench-context {\"workload\": \"%s\", \"seed\": %llu, "
        "\"held_out_seed\": %llu, \"threads\": %zu, \"simd\": \"%s\", "
        "\"ELSA_SIMD\": \"%s\", \"nproc\": %ld, \"calls\": %zu, "
        "\"unit\": \"%s\", \"raw_units_per_s\": %s, "
        "\"mean_units_per_s\": %s, "
        "\"call_p50_ms\": %s, \"call_p90_ms\": %s, "
        "\"norm_us_per_unit_p50\": %s, "
        "\"norm_us_per_unit_p90\": %s, \"probes\": %zu, "
        "\"probe_ms_p50\": %s, \"modelled\": %s}\n",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
        static_cast<unsigned long long>(kHeldOutSeed), threads,
        simd::levelName(simd::activeLevel()),
        simd_env != nullptr ? simd_env : "",
        sysconf(_SC_NPROCESSORS_ONLN), calls, workload->unitName(),
        jsonNumber(record.raw_units_per_s).c_str(),
        jsonNumber(record.mean_units_per_s).c_str(),
        jsonNumber(record.call_p50_ms).c_str(),
        jsonNumber(record.call_p90_ms).c_str(),
        jsonNumber(record.norm_us_per_unit_p50).c_str(),
        jsonNumber(record.norm_us_per_unit_p90).c_str(), record.probes,
        jsonNumber(record.probe_ms_p50).c_str(),
        metricsJson(workload->modelled()).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": %s}\n",
                checks.failed == 0 && checks.attempted > 0 ? "true"
                                                           : "false",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed),
                metricsJson(metrics).c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const ArgParser args(argc, argv,
                         {"workload", "seed", "seconds", "trace", "tiny",
                          "corrupt", "trace-out"});
    Options opt;
    opt.workload = args.get("workload");
    opt.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    opt.seconds = args.getDouble("seconds", 10.0);
    opt.trace = args.getInt("trace", 0) != 0;
    opt.tiny = args.has("tiny");
    opt.corrupt = args.has("corrupt");
    opt.trace_out = args.get("trace-out");
    return run(opt);
}
