#ifndef ELSA_OBS_MANIFEST_H_
#define ELSA_OBS_MANIFEST_H_

/**
 * @file
 * Run manifest: one JSON document that makes a simulator/bench run
 * reproducible and comparable after the fact -- which binary, which
 * build (git describe, compiler, build type), which configuration,
 * which seed, and the headline metrics. Every elsa_bench entry
 * reports one (bench/elsa_bench.cc), as does micro_kernels;
 * docs/OBSERVABILITY.md documents the schema.
 *
 * The manifest is deliberately flat: named sections of ordered
 * key/value scalars. Anything richer (per-query series, histograms)
 * belongs in the stats dump or the trace, not here.
 */

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace elsa::obs {

/** Build provenance baked in at compile time. */
struct BuildInfo
{
    /** `git describe --always --dirty` at configure time. */
    std::string git_describe;
    /** CMake build type (Release, Debug, ...). */
    std::string build_type;
    /** Compiler version string (__VERSION__). */
    std::string compiler;
};

/** The build info of this binary. */
BuildInfo buildInfo();

/** Ordered named sections of scalar key/value pairs; see file doc. */
class RunManifest
{
  public:
    /**
     * @param artifact What this run produces, e.g. "fig11a_throughput"
     *                 or "quickstart".
     */
    explicit RunManifest(std::string artifact);

    const std::string& artifact() const { return artifact_; }

    /** Set a scalar in a section (created on first use, in order). */
    void set(const std::string& section, const std::string& key,
             const std::string& value);
    void set(const std::string& section, const std::string& key,
             const char* value);
    void set(const std::string& section, const std::string& key,
             double value);
    void set(const std::string& section, const std::string& key,
             std::int64_t value);
    void set(const std::string& section, const std::string& key,
             std::size_t value);
    void set(const std::string& section, const std::string& key,
             bool value);

    /** Record the build provenance under a "build" section. */
    void addBuildInfo();

    /**
     * Serialize as JSON: {"artifact": ..., "schema_version": 1,
     * "<section>": {...}, ...}. With pretty=false the document is a
     * single line (the BENCH_*.json format).
     */
    void writeJson(std::ostream& os, bool pretty = true) const;

    /** writeJson() to a string. */
    std::string toJson(bool pretty = true) const;

    /** Write to a file; raises elsa::Error on I/O failure. */
    void writeFile(const std::string& path, bool pretty = true) const;

  private:
    struct Value
    {
        enum class Kind
        {
            kString,
            kNumber,
            kInteger,
            kBool,
        };
        Kind kind = Kind::kString;
        std::string string_value;
        double number_value = 0.0;
        std::int64_t int_value = 0;
        bool bool_value = false;
    };

    using Section = std::vector<std::pair<std::string, Value>>;

    Section& section(const std::string& name);
    void setValue(const std::string& section_name,
                  const std::string& key, Value value);

    std::string artifact_;
    std::vector<std::pair<std::string, Section>> sections_;
};

} // namespace elsa::obs

#endif // ELSA_OBS_MANIFEST_H_
