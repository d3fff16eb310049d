// Minimal flat-JSON-object writer for JSONL lines: the campaign's
// canonical outcome lines and the benches' result records. Lines hold
// only string / number / bool fields, so a dependency-free writer beats
// dragging in a JSON library. Nested objects and arrays are
// deliberately unsupported, and nothing in the library reads JSON.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace lsl::util {

/// Ordered flat JSON object. Writing preserves insertion order so
/// lines diff cleanly.
class JsonObject {
 public:
  void set(const std::string& key, const std::string& v) { fields_.emplace_back(key, v); }
  void set(const std::string& key, const char* v) { fields_.emplace_back(key, std::string(v)); }
  void set(const std::string& key, double v) { fields_.emplace_back(key, v); }
  void set(const std::string& key, std::int64_t v) {
    fields_.emplace_back(key, static_cast<double>(v));
  }
  void set(const std::string& key, std::size_t v) {
    fields_.emplace_back(key, static_cast<double>(v));
  }
  void set(const std::string& key, int v) { fields_.emplace_back(key, static_cast<double>(v)); }
  void set(const std::string& key, bool v) { fields_.emplace_back(key, v); }

  /// Serializes to one {"k":v,...} line (no trailing newline).
  std::string str() const;

 private:
  using Value = std::variant<std::string, double, bool>;
  std::vector<std::pair<std::string, Value>> fields_;
};

/// Escapes a string for embedding in JSON (quotes not included).
std::string json_escape(const std::string& s);

/// Appends `line` + '\n' to `path`, creating the file if needed, and
/// flushes before returning. Returns false on I/O failure.
bool append_line(const std::string& path, const std::string& line);

/// Reads all non-empty lines of `path`. A missing file yields an empty
/// vector, not an error.
std::vector<std::string> read_lines(const std::string& path);

}  // namespace lsl::util
