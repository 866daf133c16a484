#pragma once
/// \file json.hpp
/// A minimal strict JSON reader/writer shared by every subsystem that speaks
/// JSON as data: chaos scenario files (chaos/scenario_file), service job
/// specs (service/job), the localhost machine calibration
/// (model/machine), and the BENCH_*.json trajectory writers. Objects,
/// arrays, strings, numbers, true/false/null — nothing more, and everything
/// else is rejected loudly with the origin and line number.
///
/// Schema mappers layered on top follow one error style: a violation throws
/// std::invalid_argument naming the offending key path
/// ("jobs[2].deadline_s: expected a non-negative number"), so a user can fix
/// a file from the message alone. The require_* helpers below implement the
/// common cases.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace advect::core::json {

/// One parsed JSON value. Object member order is preserved (serialization
/// round-trips files without churn).
struct Value {
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<Value> items;                              ///< Array
    std::vector<std::pair<std::string, Value>> members;    ///< Object

    /// Object member lookup; nullptr when absent (or not an object).
    [[nodiscard]] const Value* find(const std::string& key) const {
        for (const auto& [k, v] : members)
            if (k == key) return &v;
        return nullptr;
    }

    // --- construction helpers (for writers) -----------------------------
    [[nodiscard]] static Value null();
    [[nodiscard]] static Value boolean(bool v);
    [[nodiscard]] static Value number(double v);
    [[nodiscard]] static Value string(std::string v);
    [[nodiscard]] static Value array();
    [[nodiscard]] static Value object();

    /// Append/overwrite an object member (keeps first-write order).
    void set(const std::string& key, Value v);
};

/// Parse a complete JSON document. `origin` names the source in error
/// messages (a file path, or e.g. "<inline>"); errors are
/// std::invalid_argument carrying "origin:line: what". Arrays and objects
/// nest at most 64 levels deep.
[[nodiscard]] Value parse(const std::string& text,
                          const std::string& origin = "<json>");

/// Read and parse a file; throws std::runtime_error if the file cannot be
/// read, std::invalid_argument if its text is not valid JSON.
[[nodiscard]] Value load_file(const std::string& path);

/// Serialize a value. Numbers that hold integers print without a decimal
/// point; indent is two spaces per level, matching the committed scenario
/// and BENCH files.
[[nodiscard]] std::string dump(const Value& v, int indent = 0);

/// Write `dump(v)` (plus a trailing newline) to `path`; throws
/// std::runtime_error on I/O failure.
void save_file(const Value& v, const std::string& path);

// --------------------------------------------------------------------------
// Schema-mapping helpers: one consistent named-key error style.

/// Throw std::invalid_argument "origin: key: what".
[[noreturn]] void bad_key(const std::string& origin, const std::string& key,
                          const std::string& what);

[[nodiscard]] double require_number(const Value& v, const std::string& origin,
                                    const std::string& key);
[[nodiscard]] int require_int(const Value& v, const std::string& origin,
                              const std::string& key);
[[nodiscard]] std::uint64_t require_u64(const Value& v,
                                        const std::string& origin,
                                        const std::string& key);
[[nodiscard]] const std::string& require_string(const Value& v,
                                                const std::string& origin,
                                                const std::string& key);
[[nodiscard]] bool require_bool(const Value& v, const std::string& origin,
                                const std::string& key);

}  // namespace advect::core::json
