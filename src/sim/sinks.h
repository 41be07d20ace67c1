#ifndef ELSA_SIM_SINKS_H_
#define ELSA_SIM_SINKS_H_

/**
 * @file
 * The record stream of one simulated run and the views it feeds.
 *
 * Accelerator::run is a timing core: every timing fact it derives is
 * emitted exactly once, as a typed record, into a RecordStream. Each
 * view of the run is a RunSink that folds those records into its own
 * shape, attached per the SimConfig flags:
 *
 *   ActivityCounters  always              per-module active cycles
 *                                         (the energy model's input)
 *   StallBreakdown    attribute_stalls    lane cycles by cause
 *   TimeSeries        telemetry.enabled   the same records, binned
 *   QuerySpanSet      query_spans.enabled per-query decomposition
 *   TraceWriter       an enabled writer   Chrome trace events
 *                     is attached
 *
 * Every view reads the same records, so the views agree by
 * construction, and no sink feeds back into the timing, so attaching
 * one never changes a simulated number. Dispatch is a direct call to
 * the always-on activity sink plus a walk over the attached views;
 * with no view attached that walk is empty and nothing is allocated.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "energy/energy_model.h"
#include "sim/candidate_stage.h"
#include "sim/stall.h"

namespace elsa::obs {
class TraceWriter;
} // namespace elsa::obs

namespace elsa {

struct QueryTraceRecord;
struct RunResult;

/** Lane cycles of `module` spent in `cause` within [begin, end). */
struct StallRecord
{
    AttributedModule module;
    StallCause cause;
    std::uint64_t lane_cycles;
    std::uint64_t begin;
    std::uint64_t end;
};

/** Active cycles of a Table I module within [begin, end). */
struct ActivityRecord
{
    HwModule module;
    double cycles;
    std::uint64_t begin;
    std::uint64_t end;
};

/** One view of a run; see the file comment. */
class RunSink
{
  public:
    virtual ~RunSink() = default;
    virtual void onStall(const StallRecord&) {}
    virtual void onActivity(const ActivityRecord&) {}
    virtual void onQuery(const QueryTraceRecord&,
                         std::span<const BankQueryTrace> /*banks*/)
    {
    }
    /** The run's timing is final; `result` holds its totals. */
    virtual void onRunEnd(const RunResult&) {}
};

/** Dispatches one run's records to its views. */
class RecordStream
{
  public:
    /**
     * Attach the views `config` enables, writing into `result` (which
     * already holds the preprocessing cycles); `trace` is the
     * accelerator's attached writer or null, `pid` its label.
     */
    RecordStream(const SimConfig& config, std::size_t n,
                 RunResult& result, obs::TraceWriter* trace,
                 std::uint32_t pid);

    /** Interval records emitted next cover [begin, end). */
    void window(std::uint64_t begin, std::uint64_t end)
    {
        begin_ = begin;
        end_ = end;
    }

    void stall(AttributedModule module, StallCause cause,
               std::uint64_t lane_cycles)
    {
        const StallRecord r{module, cause, lane_cycles, begin_, end_};
        for (const auto& view : views_) {
            view->onStall(r);
        }
    }

    void activity(HwModule module, double cycles)
    {
        activity_.add(module, cycles);
        const ActivityRecord r{module, cycles, begin_, end_};
        for (const auto& view : views_) {
            view->onActivity(r);
        }
    }

    void query(const QueryTraceRecord& r,
               std::span<const BankQueryTrace> banks)
    {
        for (const auto& view : views_) {
            view->onQuery(r, banks);
        }
    }

    /** End the run, in attach order (spans finalize before the trace
     *  reads their exemplars). */
    void finish(const RunResult& result)
    {
        for (const auto& view : views_) {
            view->onRunEnd(result);
        }
    }

  private:
    /** The always-attached sink, fed directly. */
    ActivityCounters& activity_;
    std::vector<std::unique_ptr<RunSink>> views_;
    std::uint64_t begin_ = 0;
    std::uint64_t end_ = 0;
};

/** Name the trace lanes of accelerator `pid`: module lanes, then one
 *  lane per bank. */
void nameTraceLanes(obs::TraceWriter& trace, std::uint32_t pid,
                    std::size_t pa);

} // namespace elsa

#endif // ELSA_SIM_SINKS_H_
