// Line-by-line comparison with a pinned reference file, shared by the
// tier-1 referees: a mismatch names the first differing line and its
// first differing whitespace-separated field. Also the inverses of the
// name functions the pinned lines are written with, for parsing them.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "dft/campaign.hpp"
#include "fault/structural.hpp"

namespace lsl::dft {

/// Inverse of fault::fault_class_name; false for an unknown name,
/// leaving `out` untouched.
inline bool fault_class_from_name(const std::string& name, fault::FaultClass& out) {
  for (const fault::FaultClass c : fault::kAllFaultClasses) {
    if (fault::fault_class_name(c) == name) {
      out = c;
      return true;
    }
  }
  return false;
}

/// Inverse of fault_verdict_name; false for an unknown name, leaving
/// `out` untouched.
inline bool fault_verdict_from_name(const std::string& name, FaultVerdict& out) {
  for (const FaultVerdict v :
       {FaultVerdict::kDetected, FaultVerdict::kUndetected, FaultVerdict::kQuarantined}) {
    if (fault_verdict_name(v) == name) {
      out = v;
      return true;
    }
  }
  return false;
}

inline std::vector<std::string> fields(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> out;
  for (std::string f; in >> f;) out.push_back(f);
  return out;
}

/// Passes when `got` equals `pinned` line for line; otherwise names the
/// first differing line and its first differing field — by its name in
/// `field_names` when there is one — and, inside a long field such as a
/// signature, the first differing character.
inline ::testing::AssertionResult matches_pinned(const std::vector<std::string>& pinned,
                                                 const std::vector<std::string>& got,
                                                 std::span<const char* const> field_names = {}) {
  for (std::size_t i = 0; i < pinned.size() && i < got.size(); ++i) {
    if (pinned[i] == got[i]) continue;
    const auto p = fields(pinned[i]);
    const auto g = fields(got[i]);
    std::size_t k = 0;
    while (k < p.size() && k < g.size() && p[k] == g[k]) ++k;
    auto failure = ::testing::AssertionFailure() << "first difference at pinned line '"
                                                 << pinned[i] << "': field " << k;
    if (k < field_names.size()) failure << " (" << field_names[k] << ")";
    if (k < p.size() && k < g.size()) {
      std::size_t c = 0;
      while (c < p[k].size() && c < g[k].size() && p[k][c] == g[k][c]) ++c;
      failure << " pinned '" << p[k] << "' got '" << g[k] << "' (character " << c << ")";
    } else {
      failure << " missing; got line '" << got[i] << "'";
    }
    return failure;
  }
  if (pinned.size() != got.size()) {
    return ::testing::AssertionFailure()
           << pinned.size() << " pinned lines, " << got.size() << " produced";
  }
  return ::testing::AssertionSuccess();
}

inline std::string line(const char* format, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

}  // namespace lsl::dft
