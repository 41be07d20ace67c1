#ifndef ELSA_SIM_CANDIDATE_STAGE_H_
#define ELSA_SIM_CANDIDATE_STAGE_H_

/**
 * @file
 * Cycle-accurate model of one bank's candidate selection stage
 * (Section IV-C (1)).
 *
 * Per bank, P_c fully-pipelined candidate selection modules each
 * process one key per cycle (module m handles the bank's keys with
 * local index congruent to m modulo P_c). A module that finds a
 * candidate pushes the key id into its finite output queue; when the
 * queue is full the module stalls. An arbiter with the
 * longest-queue-first policy forwards one candidate per cycle to the
 * bank's attention computation module.
 *
 * The stage finishes when every module has scanned all of its keys
 * and every queue has drained; the attention module then needs its
 * pipeline-drain latency on top (accounted by the Accelerator).
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/config.h"

namespace elsa {

/** Result of simulating one (query, bank) candidate scan. */
struct BankQueryTrace
{
    /** Cycles until the scan completed and all queues drained. */
    std::size_t cycles = 0;

    /** Key ids (bank-local) in the order the arbiter granted them. */
    std::vector<std::uint32_t> grant_order;

    /** Total module-cycles lost to queue backpressure. */
    std::size_t stall_cycles = 0;

    /** Cycles the P_c modules spent scanning (for energy). */
    std::size_t scan_cycles = 0;

    /**
     * Cycle at which every module had scanned its last key (queues
     * may still be draining). Bounded by
     * ceil(keys / P_c) <= scan_done_cycle <= cycles; the slack over
     * the lower bound is backpressure delay, which the per-query
     * span decomposition charges as bank_conflict stall.
     */
    std::size_t scan_done_cycle = 0;

    /**
     * Module-cycles spent done-scanning while the bank's queues
     * drained out (the tail where a module has no keys left but the
     * arbiter is still emptying queues). Together with the above:
     * scan_cycles + stall_cycles + drained_module_cycles
     *   == P_c * cycles, exactly -- every module is in exactly one
     * state each bank cycle (the stall-attribution invariant).
     */
    std::size_t drained_module_cycles = 0;

    /**
     * Time integral of the bank's total output-queue occupancy:
     * the sum over bank cycles of entries queued at the end of the
     * cycle (occupancy-cycles). Divided by `cycles` this is the
     * mean queue depth; the telemetry layer bins it over time
     * (`queue.occupancy_cycles` channel).
     */
    std::size_t queue_occupancy_cycles = 0;
};

/**
 * Working state of simulateBankQuery: per-module scan cursors and
 * output queues, each queue a fixed ring of queue_depth slots. Owned
 * by the caller and reused across the banks and queries of a run, so
 * a scan allocates nothing once the buffers have grown.
 */
struct BankScanScratch
{
    /** Per-module scan cursor (keys already scanned). */
    std::vector<std::size_t> cursor;

    /** Queue slots, queue_depth per module, module-major. */
    std::vector<std::uint32_t> ring;

    /** Per-module index of the oldest queued entry in its ring. */
    std::vector<std::size_t> head;

    /** Per-module queue occupancy. */
    std::vector<std::size_t> size;
};

/**
 * Simulate the candidate selection stage of one bank for one query.
 *
 * @param hits    hits[j] is true when the bank's j-th key passes the
 *                threshold filter (selected as a candidate).
 * @param config  Pipeline configuration (uses pc and queue_depth).
 * @param scratch Reusable working state (contents are overwritten).
 * @param trace   Overwritten with the scan's result; its grant_order
 *                storage is reused.
 */
void simulateBankQuery(const std::vector<bool>& hits,
                       const SimConfig& config, BankScanScratch& scratch,
                       BankQueryTrace& trace);

/** One-off form of the above with its own scratch. */
BankQueryTrace simulateBankQuery(const std::vector<bool>& hits,
                                 const SimConfig& config);

} // namespace elsa

#endif // ELSA_SIM_CANDIDATE_STAGE_H_
