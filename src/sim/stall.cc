#include "sim/stall.h"

#include <algorithm>

#include "common/logging.h"

namespace elsa {

const std::array<StallCause, kNumStallCauses>&
allStallCauses()
{
    static const std::array<StallCause, kNumStallCauses> causes = {
        StallCause::kBusy,         StallCause::kStarved,
        StallCause::kBackpressured, StallCause::kBankConflict,
        StallCause::kDrained,       StallCause::kFaultRetry,
    };
    return causes;
}

std::string
stallCauseName(StallCause cause)
{
    // "bank_conflict_cycles" -> "bank conflict": one name table.
    std::string name = stallCauseMetricName(cause);
    name.erase(name.rfind("_cycles"));
    std::replace(name.begin(), name.end(), '_', ' ');
    return name;
}

const char*
stallCauseMetricName(StallCause cause)
{
    switch (cause) {
    case StallCause::kBusy:
        return "busy_cycles";
    case StallCause::kStarved:
        return "starved_cycles";
    case StallCause::kBackpressured:
        return "backpressured_cycles";
    case StallCause::kBankConflict:
        return "bank_conflict_cycles";
    case StallCause::kDrained:
        return "drained_cycles";
    case StallCause::kFaultRetry:
        return "fault_retry_cycles";
    }
    ELSA_PANIC("unknown StallCause "
               << static_cast<int>(cause));
}

const std::array<AttributedModule, kNumAttributedModules>&
allAttributedModules()
{
    static const std::array<AttributedModule, kNumAttributedModules>
        modules = {
            AttributedModule::kHash,
            AttributedModule::kNorm,
            AttributedModule::kCandidateSelection,
            AttributedModule::kArbitration,
            AttributedModule::kAttention,
            AttributedModule::kOutputDivision,
        };
    return modules;
}

const char*
attributedModuleName(AttributedModule module)
{
    switch (module) {
    case AttributedModule::kHash:
        return "hash computation";
    case AttributedModule::kNorm:
        return "norm computation";
    case AttributedModule::kCandidateSelection:
        return "candidate selection";
    case AttributedModule::kArbitration:
        return "arbitration";
    case AttributedModule::kAttention:
        return "attention computation";
    case AttributedModule::kOutputDivision:
        return "output division";
    }
    ELSA_PANIC("unknown AttributedModule "
               << static_cast<int>(module));
}

const char*
attributedModuleMetricName(AttributedModule module)
{
    switch (module) {
    case AttributedModule::kHash:
        return "hash_computation";
    case AttributedModule::kNorm:
        return "norm_computation";
    case AttributedModule::kCandidateSelection:
        return "candidate_selection";
    case AttributedModule::kArbitration:
        return "arbitration";
    case AttributedModule::kAttention:
        return "attention_compute";
    case AttributedModule::kOutputDivision:
        return "output_division";
    }
    ELSA_PANIC("unknown AttributedModule "
               << static_cast<int>(module));
}

std::size_t
attributedModuleLanes(AttributedModule module, const SimConfig& config)
{
    switch (module) {
    case AttributedModule::kHash:
    case AttributedModule::kNorm:
    case AttributedModule::kOutputDivision:
        return 1;
    case AttributedModule::kArbitration:
    case AttributedModule::kAttention:
        return config.pa;
    case AttributedModule::kCandidateSelection:
        return config.pa * config.pc;
    }
    ELSA_PANIC("unknown AttributedModule "
               << static_cast<int>(module));
}

void
StallBreakdown::add(AttributedModule module, StallCause cause,
                    std::uint64_t lane_cycles)
{
    cells_[static_cast<std::size_t>(module)]
          [static_cast<std::size_t>(cause)] += lane_cycles;
}

std::uint64_t
StallBreakdown::get(AttributedModule module, StallCause cause) const
{
    return cells_[static_cast<std::size_t>(module)]
                 [static_cast<std::size_t>(cause)];
}

std::uint64_t
StallBreakdown::laneCycles(AttributedModule module) const
{
    std::uint64_t total = 0;
    for (const std::uint64_t cell :
         cells_[static_cast<std::size_t>(module)]) {
        total += cell;
    }
    return total;
}

double
StallBreakdown::busyFraction(AttributedModule module) const
{
    const std::uint64_t total = laneCycles(module);
    if (total == 0) {
        return 0.0;
    }
    return static_cast<double>(get(module, StallCause::kBusy))
           / static_cast<double>(total);
}

void
StallBreakdown::merge(const StallBreakdown& other)
{
    for (std::size_t m = 0; m < kNumAttributedModules; ++m) {
        for (std::size_t c = 0; c < kNumStallCauses; ++c) {
            cells_[m][c] += other.cells_[m][c];
        }
    }
}

bool
StallBreakdown::empty() const
{
    for (const auto& row : cells_) {
        for (const std::uint64_t cell : row) {
            if (cell != 0) {
                return false;
            }
        }
    }
    return true;
}

bool
StallBreakdown::conserves(std::size_t total_cycles,
                          const SimConfig& config) const
{
    for (const AttributedModule module : allAttributedModules()) {
        const std::uint64_t expected =
            static_cast<std::uint64_t>(
                attributedModuleLanes(module, config))
            * static_cast<std::uint64_t>(total_cycles);
        if (laneCycles(module) != expected) {
            return false;
        }
    }
    return true;
}

} // namespace elsa
