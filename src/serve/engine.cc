#include "serve/engine.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <queue>
#include <tuple>
#include <utility>

#include "attention/threshold.h"
#include "common/logging.h"
#include "common/rng.h"
#include "fixed/units.h"
#include "lsh/calibration.h"
#include "lsh/srp.h"
#include "sim/array.h"
#include "workload/generator.h"

namespace elsa {

namespace {

// Rng stream ids forked off ServeConfig::seed. Streams 1 and 2 are
// the arrival process (serve/arrival.cc); the fault base leaves room
// for per-class workload streams in between.
constexpr std::uint64_t kHasherStream = 3;
constexpr std::uint64_t kWorkloadStreamBase = 16;
constexpr std::uint64_t kFaultStream = 1024;

// Engine event kinds. At equal cycles completions run first (they
// free servers the same-cycle arrivals may use), then arrivals, then
// retry re-entries; ties beyond that break on push sequence. The
// order is part of the determinism contract.
constexpr int kEventCompletion = 0;
constexpr int kEventArrival = 1;
constexpr int kEventRetryReady = 2;

struct Event
{
    std::uint64_t cycle = 0;
    int type = kEventArrival;
    std::uint64_t seq = 0;
    std::size_t request = 0;
};

struct EventAfter
{
    bool operator()(const Event& a, const Event& b) const
    {
        return std::make_tuple(a.cycle, a.type, a.seq)
               > std::make_tuple(b.cycle, b.type, b.seq);
    }
};

// Mutable per-request bookkeeping of the event loop.
struct RequestState
{
    std::size_t attempts = 0;
    std::uint64_t queue_wait = 0;
    std::uint64_t enqueue_cycle = 0;
    bool attempt_faulty = false;
};

} // namespace

ServeEngine::ServeEngine(ServeConfig config)
    : config_(std::move(config))
{
    config_.validate();

    // One shared hasher + calibration across the mix, built the way
    // the Elsa facade builds its own (elsa/elsa.cc): every class
    // shares sim.d, so one projection serves them all.
    Rng root(config_.seed);
    Rng hasher_rng = root.fork(kHasherStream);
    auto hasher = std::make_shared<KroneckerSrpHasher>(
        KroneckerSrpHasher::makeRandom(config_.sim.d,
                                       config_.sim.num_hash_factors,
                                       hasher_rng,
                                       /*quantize_factors=*/true));
    const double theta_bias =
        thetaBiasFor(config_.sim.d, hasher->bits(), hasher_rng);

    // The catalog measures fault-free service time: faults act at
    // the request level through per-attempt plans in run(), and the
    // timing-only catalog runs need none of the tracing machinery.
    SimConfig catalog_sim = config_.sim;
    catalog_sim.fault = FaultConfig{};
    catalog_sim.collect_query_trace = false;
    catalog_sim.attribute_stalls = false;
    catalog_sim.telemetry = TelemetryConfig{};
    catalog_sim.query_spans = QuerySpanConfig{};
    AcceleratorArray array(catalog_sim, config_.num_accelerators,
                           hasher, theta_bias);

    const std::size_t levels = config_.numLevels();
    catalog_.resize(config_.classes.size() * levels);
    for (std::size_t c = 0; c < config_.classes.size(); ++c) {
        const RequestClassConfig& cls = config_.classes[c];
        QkvGenerator generator(
            cls.model, root.fork(kWorkloadStreamBase + c).next());
        const AttentionInput input =
            generator.generate(0, 0, cls.sequence_length, c);
        for (std::size_t level = 0; level < levels; ++level) {
            ServiceCatalogEntry& entry =
                catalog_[c * levels + level];
            entry.class_index = c;
            entry.level = level;
            entry.p = config_.levelP(level);
            ThresholdLearner learner(entry.p);
            learner.observe(input.query, input.key);
            entry.threshold = learner.threshold();
            const ArrayRunResult timing =
                array.run({&input}, {entry.threshold});
            entry.service_cycles = timing.total_cycles;
            ELSA_ASSERT(entry.service_cycles >= 1,
                        "catalog service time must be positive");
        }
    }
}

const ServiceCatalogEntry&
ServeEngine::catalogEntry(std::size_t class_index,
                          std::size_t level) const
{
    const std::size_t levels = config_.numLevels();
    ELSA_ASSERT(class_index < config_.classes.size()
                    && level < levels,
                "catalog index out of range");
    return catalog_[class_index * levels + level];
}

ServeResult
ServeEngine::run() const
{
    const std::vector<Request> arrivals = generateArrivals(config_);
    const DegradationConfig& degradation = config_.degradation;
    const std::size_t num_levels = config_.numLevels();
    const bool faults = config_.sim.fault.enabled
                        && config_.sim.fault.bit_error_rate > 0.0;
    Rng fault_root = Rng(config_.seed).fork(kFaultStream);

    ServeResult result;
    result.levels.resize(num_levels);
    for (std::size_t level = 0; level < num_levels; ++level) {
        result.levels[level].p = config_.levelP(level);
    }

    std::vector<RequestState> state(arrivals.size());
    std::priority_queue<Event, std::vector<Event>, EventAfter>
        events;
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        events.push(Event{arrivals[i].arrival_cycle, kEventArrival,
                          seq++, i});
    }

    std::deque<std::size_t> queue;
    std::size_t free_servers = config_.num_accelerators;

    // Controller state: fidelity level, the cycle it was entered,
    // and the two overload EWMAs (queue occupancy fraction and
    // deadline-miss indicator), updated at every engine event.
    std::size_t level = 0;
    std::uint64_t level_since = 0;
    result.levels[0].entries = 1;
    double occ_ewma = 0.0;
    double miss_ewma = 0.0;
    const double alpha = degradation.ewma_alpha;

    auto noteQueue = [&] {
        const double occ =
            static_cast<double>(queue.size())
            / static_cast<double>(config_.queue_capacity);
        occ_ewma = alpha * occ + (1.0 - alpha) * occ_ewma;
    };
    auto noteOutcome = [&](bool miss) {
        miss_ewma =
            alpha * (miss ? 1.0 : 0.0) + (1.0 - alpha) * miss_ewma;
    };

    auto moveToLevel = [&](std::size_t next, std::uint64_t now) {
        result.levels[level].dwell_cycles += now - level_since;
        level = next;
        level_since = now;
        result.levels[level].entries += 1;
        result.degradation_transitions += 1;
    };
    auto controllerStep = [&](std::uint64_t now) {
        if (!degradation.enabled) {
            return;
        }
        // Dwell hysteresis: hold every level for min_dwell_cycles so
        // the controller cannot thrash on a single burst.
        if (now < level_since + degradation.min_dwell_cycles) {
            return;
        }
        const bool pressure =
            occ_ewma > degradation.queue_high_watermark
            || miss_ewma > degradation.miss_high_watermark;
        const bool calm =
            occ_ewma < degradation.queue_low_watermark
            && miss_ewma < degradation.miss_low_watermark;
        if (pressure && level + 1 < num_levels) {
            moveToLevel(level + 1, now);
        } else if (calm && level > 0) {
            moveToLevel(level - 1, now);
        }
    };

    // Deterministic exponential backoff of retry r (1-based):
    // base * 2^(r-1), capped.
    auto backoffCycles = [&](std::size_t retry_number) {
        std::uint64_t backoff = config_.retry.backoff_base_cycles;
        const std::uint64_t cap = config_.retry.backoff_cap_cycles;
        for (std::size_t i = 1;
             i < retry_number && backoff < cap; ++i) {
            backoff *= 2;
        }
        return std::min(backoff, cap);
    };

    // Pop queued requests into free servers. Requests whose deadline
    // passed -- or, under deadline-aware dispatch, that could not
    // finish by it even when started right now -- are shed at
    // dequeue; the rest start an attempt whose fault plan is a pure
    // function of (request id, attempt number).
    auto dispatch = [&](std::uint64_t now) {
        while (free_servers > 0 && !queue.empty()) {
            const std::size_t idx = queue.front();
            queue.pop_front();
            const Request& request = arrivals[idx];
            RequestState& st = state[idx];
            std::uint64_t service =
                catalogEntry(request.class_index, level)
                    .service_cycles;
            const std::uint64_t horizon =
                config_.deadline_aware_dispatch ? now + service
                                                : now;
            if (horizon > request.deadline_cycle) {
                result.shed += 1;
                result.shed_deadline += 1;
                noteOutcome(true);
                continue;
            }
            st.queue_wait += now - st.enqueue_cycle;
            st.attempts += 1;
            result.levels[level].dispatched += 1;
            st.attempt_faulty = false;
            if (faults) {
                FaultConfig fault_config = config_.sim.fault;
                fault_config.seed = fault_root.fork(request.id)
                                        .fork(st.attempts)
                                        .next();
                FaultGeometry geometry;
                geometry.n = config_.classes[request.class_index]
                                 .sequence_length;
                geometry.k = config_.sim.k;
                geometry.d = config_.sim.d;
                geometry.lut_words =
                    ExpUnit::kLutSize + ReciprocalUnit::kLutSize;
                const FaultPlan plan =
                    FaultPlan::build(fault_config, geometry);
                // The cycle-level model repairs detected words by
                // re-fetch (stall bubbles, charged here); the
                // serving layer additionally treats any detected
                // event as integrity-suspect and re-executes the
                // whole request (docs/SERVING.md).
                st.attempt_faulty = plan.counts().detected > 0;
                service += plan.retryStallCycles(fault_config);
                if (st.attempt_faulty) {
                    result.faulty_attempts += 1;
                }
            }
            free_servers -= 1;
            events.push(Event{now + service, kEventCompletion,
                              seq++, idx});
        }
        noteQueue();
    };

    std::uint64_t last_cycle = 0;
    while (!events.empty()) {
        const Event event = events.top();
        events.pop();
        const std::uint64_t now = event.cycle;
        last_cycle = std::max(last_cycle, now);
        const std::size_t idx = event.request;

        switch (event.type) {
        case kEventArrival: {
            result.offered += 1;
            if (queue.size() >= config_.queue_capacity) {
                switch (config_.admission) {
                case AdmissionPolicy::kRejectOnFull:
                    result.rejected += 1;
                    noteQueue();
                    controllerStep(now);
                    continue;
                case AdmissionPolicy::kTailDrop: {
                    // Admit the newcomer, shed the oldest queued
                    // request in its favor (config.h).
                    const std::size_t victim = queue.front();
                    queue.pop_front();
                    static_cast<void>(victim);
                    result.shed += 1;
                    result.shed_queue_drop += 1;
                    noteOutcome(true);
                    break;
                }
                }
            }
            result.admitted += 1;
            state[idx].enqueue_cycle = now;
            queue.push_back(idx);
            dispatch(now);
            break;
        }
        case kEventRetryReady: {
            // Re-entry after backoff; exempt from the admission
            // bound (the request was already admitted).
            state[idx].enqueue_cycle = now;
            queue.push_back(idx);
            dispatch(now);
            break;
        }
        case kEventCompletion: {
            free_servers += 1;
            RequestState& st = state[idx];
            const Request& request = arrivals[idx];
            if (st.attempt_faulty) {
                if (st.attempts < config_.retry.max_attempts) {
                    result.retry_attempts += 1;
                    const std::uint64_t backoff =
                        backoffCycles(st.attempts);
                    result.retry_backoff_cycles += backoff;
                    events.push(Event{now + backoff,
                                      kEventRetryReady, seq++, idx});
                } else {
                    result.failed += 1;
                    noteOutcome(true);
                }
            } else {
                result.completed += 1;
                const std::uint64_t latency =
                    now - request.arrival_cycle;
                result.latency.add(static_cast<double>(latency));
                result.queue_wait.add(
                    static_cast<double>(st.queue_wait));
                const bool miss = now > request.deadline_cycle;
                if (miss) {
                    result.slo_violations += 1;
                }
                noteOutcome(miss);
            }
            dispatch(now);
            break;
        }
        default:
            ELSA_PANIC("unknown serve event type " << event.type);
        }
        controllerStep(now);
    }

    // Close out the final level's dwell: over all levels the dwells
    // sum to the run span exactly (checked by scripts/
    // check_metrics.py against the serve artifact).
    result.levels[level].dwell_cycles += last_cycle - level_since;
    result.span_cycles = last_cycle;

    ELSA_ASSERT(result.conservesOffered(),
                "offered == admitted + rejected must hold: "
                    << result.offered << " vs " << result.admitted
                    << " + " << result.rejected);
    ELSA_ASSERT(result.conservesAdmitted(),
                "admitted == completed + shed + failed must hold: "
                    << result.admitted << " vs " << result.completed
                    << " + " << result.shed << " + "
                    << result.failed);

    const double seconds =
        static_cast<double>(result.span_cycles)
        / (config_.sim.frequency_ghz * 1e9);
    const std::uint64_t in_deadline =
        result.completed - result.slo_violations;
    result.goodput_qps =
        seconds > 0.0 ? static_cast<double>(in_deadline) / seconds
                      : 0.0;
    if (result.offered > 0) {
        const auto offered = static_cast<double>(result.offered);
        result.shed_rate =
            static_cast<double>(result.shed) / offered;
        result.deadline_miss_rate =
            static_cast<double>(result.shed + result.failed
                                + result.slo_violations)
            / offered;
    }
    return result;
}

} // namespace elsa
