// Minimal ordered JSON writer.
//
// Grew up as bench_common's artifact writer (BENCH_kernels.json) and
// moved here so runtime subsystems — notably the src/obs/ metric
// exporters — can emit the same format without linking the bench
// layer. Insertion order is preserved so emitted files diff cleanly
// run-to-run.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mime {

/// Minimal ordered JSON tree: an object whose values are scalars,
/// nested objects, or arrays of objects.
class Json {
public:
    /// Scalar setters (each returns *this for chaining).
    Json& set(const std::string& key, const std::string& value);
    Json& set(const std::string& key, const char* value);
    Json& set(const std::string& key, double value);
    Json& set(const std::string& key, std::int64_t value);
    Json& set(const std::string& key, int value);
    Json& set(const std::string& key, bool value);
    /// Nested object / array-of-objects setters.
    Json& set(const std::string& key, Json value);
    Json& set(const std::string& key, std::vector<Json> values);

    std::string to_string(int indent = 0) const;

    /// Single-line rendering for machine-readable log lines. Safe to
    /// derive from the pretty form because json_escape guarantees no
    /// literal newline survives inside a string value — every newline
    /// in to_string() output is formatting.
    std::string to_line() const;

private:
    std::vector<std::pair<std::string, std::string>> scalars_or_trees_;
};

/// Escapes a string for a JSON literal (quotes, backslashes, control
/// characters).
std::string json_escape(const std::string& s);

}  // namespace mime
