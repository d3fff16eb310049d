#include "util/jsonl.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace lsl::util {

namespace {

/// Formats a double for a JSONL line: integers without a fractional
/// part (fault indices, counts), everything else round-trip precision.
std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonObject::str() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : fields_) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out += json_escape(k);
    out += "\":";
    if (std::holds_alternative<std::string>(v)) {
      out.push_back('"');
      out += json_escape(std::get<std::string>(v));
      out.push_back('"');
    } else if (std::holds_alternative<bool>(v)) {
      out += std::get<bool>(v) ? "true" : "false";
    } else {
      out += format_number(std::get<double>(v));
    }
  }
  out.push_back('}');
  return out;
}

bool append_line(const std::string& path, const std::string& line) {
  std::ofstream f(path, std::ios::app | std::ios::binary);
  if (!f.is_open()) return false;
  f << line << '\n';
  f.flush();
  return f.good();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> out;
  std::ifstream f(path, std::ios::binary);
  if (!f.is_open()) return out;
  std::string line;
  while (std::getline(f, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

}  // namespace lsl::util
