#ifndef ELSA_PERFBENCH_TRACE_H_
#define ELSA_PERFBENCH_TRACE_H_

/**
 * @file
 * In-memory span recorder of the benchmark's traced run.
 *
 * Spans are recorded by the benchmark around each public call it
 * makes into a library layer (nothing inside src/ is instrumented).
 * A span's name is "<layer>.<call>"; its self time is its duration
 * minus the part covered by its child spans. Spans are kept in
 * memory and written out once, when the run ends, so recording costs
 * two clock reads and a vector append.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded span; times are ns since the tracer was created. */
struct SpanRecord
{
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Index of the enclosing span, or -1 for a root span. */
    std::int64_t parent = -1;
    /** Benchmark operation the span belongs to (0 = set-up). */
    std::uint64_t op_id = 0;
};

/** Span recorder; a disabled tracer records nothing. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Operation id stamped on spans opened from now on. */
    void setOp(std::uint64_t op_id) { op_id_ = op_id; }

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    /** Open a span; returns its index, or -1 when disabled. */
    std::int64_t
    open(const char* name)
    {
        if (!enabled_) {
            return -1;
        }
        const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, nowNs(), 0, parent, op_id_});
        const auto index = static_cast<std::int64_t>(spans_.size() - 1);
        stack_.push_back(index);
        return index;
    }

    /** Close the span open() returned (spans close innermost first). */
    void
    close(std::int64_t index)
    {
        if (index < 0) {
            return;
        }
        spans_[static_cast<std::size_t>(index)].end_ns = nowNs();
        stack_.pop_back();
    }

    /**
     * Self time (s) summed per span name, over the set-up spans
     * (op 0) or over the spans of the calls (op > 0).
     */
    std::map<std::string, double>
    selfSecondsByName(bool setup_phase) const
    {
        std::vector<std::int64_t> child_ns(spans_.size(), 0);
        for (const SpanRecord& s : spans_) {
            if (s.parent >= 0) {
                child_ns[static_cast<std::size_t>(s.parent)] +=
                    s.end_ns - s.start_ns;
            }
        }
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord& s = spans_[i];
            if ((s.op_id == 0) == setup_phase) {
                self[s.name] += static_cast<double>(s.end_ns - s.start_ns
                                                    - child_ns[i])
                                * 1e-9;
            }
        }
        return self;
    }

    /** Write every span as a JSON array; false when the file fails. */
    bool
    writeJson(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            return false;
        }
        std::fprintf(f, "[\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord& s = spans_[i];
            std::fprintf(f,
                         "  {\"id\": %zu, \"name\": \"%s\", "
                         "\"start_ns\": %lld, \"end_ns\": %lld, "
                         "\"parent\": %lld, \"op_id\": %llu}%s\n",
                         i, s.name.c_str(),
                         static_cast<long long>(s.start_ns),
                         static_cast<long long>(s.end_ns),
                         static_cast<long long>(s.parent),
                         static_cast<unsigned long long>(s.op_id),
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
        return std::fclose(f) == 0;
    }

  private:
    bool enabled_;
    std::uint64_t op_id_ = 0;
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::vector<SpanRecord> spans_;
    std::vector<std::int64_t> stack_;
};

/** RAII span around one call. */
class Span
{
  public:
    Span(Tracer& tracer, const char* name)
        : tracer_(tracer), index_(tracer.open(name))
    {
    }
    ~Span() { tracer_.close(index_); }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Tracer& tracer_;
    std::int64_t index_;
};

} // namespace perfbench

#endif // ELSA_PERFBENCH_TRACE_H_
