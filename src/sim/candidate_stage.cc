#include "sim/candidate_stage.h"

#include <utility>

namespace elsa {

void
simulateBankQuery(const std::vector<bool>& hits, const SimConfig& config,
                  BankScanScratch& scratch, BankQueryTrace& trace)
{
    const std::size_t pc = config.pc;
    const std::size_t depth = config.queue_depth;
    const std::size_t num_keys = hits.size();

    // Reset every field but keep the grant vector's storage.
    std::vector<std::uint32_t> grants = std::move(trace.grant_order);
    grants.clear();
    trace = BankQueryTrace{};
    trace.grant_order = std::move(grants);
    if (num_keys == 0) {
        return;
    }

    // Per-module scan cursor: module m processes bank-local keys
    // m, m + pc, m + 2 pc, ... in order. Module m's queue is the ring
    // ring[m * depth, (m + 1) * depth): entries head[m], head[m] + 1,
    // ... (mod depth), size[m] of them.
    std::vector<std::size_t>& cursor = scratch.cursor;
    std::vector<std::uint32_t>& ring = scratch.ring;
    std::vector<std::size_t>& head = scratch.head;
    std::vector<std::size_t>& size = scratch.size;
    cursor.assign(pc, 0);
    head.assign(pc, 0);
    size.assign(pc, 0);
    ring.resize(pc * depth);
    // Entries across all queues, maintained incrementally so the
    // occupancy integral costs O(1) per cycle.
    std::size_t occupied = 0;

    auto moduleDone = [&](std::size_t m) {
        return m + cursor[m] * pc >= num_keys;
    };

    std::size_t cycle = 0;
    bool scan_done_recorded = false;
    for (;;) {
        bool all_scanned = true;
        for (std::size_t m = 0; m < pc; ++m) {
            if (!moduleDone(m)) {
                all_scanned = false;
                break;
            }
        }
        if (all_scanned && !scan_done_recorded) {
            trace.scan_done_cycle = cycle;
            scan_done_recorded = true;
        }
        if (all_scanned && occupied == 0) {
            break;
        }
        ++cycle;

        // Arbiter: grant from the longest queue (ties -> lowest
        // module index). The grant frees a slot at the start of the
        // cycle, so a module can refill it in the same cycle.
        std::size_t best = pc;
        std::size_t best_size = 0;
        for (std::size_t m = 0; m < pc; ++m) {
            if (size[m] > best_size) {
                best_size = size[m];
                best = m;
            }
        }
        if (best < pc) {
            trace.grant_order.push_back(ring[best * depth + head[best]]);
            head[best] = head[best] + 1 == depth ? 0 : head[best] + 1;
            --size[best];
            --occupied;
        }

        // Candidate selection modules: one key per cycle unless the
        // output queue is full and the key would need a slot. Each
        // module lands in exactly one state per cycle (scan / stall /
        // drained), which is what makes the stall-cause conservation
        // sum exact.
        for (std::size_t m = 0; m < pc; ++m) {
            if (moduleDone(m)) {
                ++trace.drained_module_cycles;
                continue;
            }
            const std::size_t key = m + cursor[m] * pc;
            if (hits[key]) {
                if (size[m] >= depth) {
                    ++trace.stall_cycles;
                    continue; // Backpressure: retry next cycle.
                }
                std::size_t tail = head[m] + size[m];
                if (tail >= depth) {
                    tail -= depth;
                }
                ring[m * depth + tail] = static_cast<std::uint32_t>(key);
                ++size[m];
                ++occupied;
            }
            ++cursor[m];
            ++trace.scan_cycles;
        }
        // End-of-cycle occupancy feeds the telemetry queue-depth
        // channel; a plain sum keeps the loop allocation-free.
        trace.queue_occupancy_cycles += occupied;
    }
    // The bank is occupied until the scan completed *and* the queues
    // drained, whichever is later.
    trace.cycles = cycle;
}

BankQueryTrace
simulateBankQuery(const std::vector<bool>& hits, const SimConfig& config)
{
    BankScanScratch scratch;
    BankQueryTrace trace;
    simulateBankQuery(hits, config, scratch, trace);
    return trace;
}

} // namespace elsa
