// Public facade of the library: one object owning the full testable
// link — the SPICE-level analog frontend with its DFT observers, the
// gate-level digital control with its two scan chains, and the
// behavioral at-speed engine — plus every test the paper defines.
//
// Typical use:
//
//   lsl::core::TestableLink link;
//   auto health = link.self_test();            // DC + scan + BIST, golden
//   auto report = link.run_fault_campaign();   // Table I / Section IV
//   auto trace  = link.lock_transient(0.95, 3);// Fig 2 waveform
//
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "behav/channel.hpp"
#include "behav/synchronizer.hpp"
#include "cells/link_frontend.hpp"
#include "dft/campaign.hpp"
#include "dft/digital_top.hpp"
#include "dft/overhead.hpp"
#include "link/link.hpp"

namespace lsl::core {

/// Golden self-test outcome: every test procedure run on the healthy
/// link, as a production part would see at time zero. A stage passes
/// when every golden sub-stage solves; the BIST must also pass its own
/// verdict.
struct SelfTestResult {
  bool dc_pass = false;
  bool scan_pass = false;
  bool bist_pass = false;
  bool all_pass() const { return dc_pass && scan_pass && bist_pass; }
};

/// Configuration of the whole testable link.
struct TestableLinkConfig {
  cells::LinkFrontendSpec analog;
  lsl::link::LinkParams behavioral;
  std::size_t dll_phases = 10;
};

class TestableLink {
 public:
  explicit TestableLink(const TestableLinkConfig& config = {});

  /// Runs the three test procedures on the healthy link: every golden
  /// sub-stage must solve and the golden BIST verdict must pass.
  SelfTestResult self_test() const;

  /// Full structural-fault campaign (Table I, Section IV).
  dft::CampaignReport run_fault_campaign(const dft::CampaignOptions& opts = {}) const;

  /// Stuck-at campaign over the digital control logic (the paper's
  /// "100% coverage" claim for the scan-tested digital blocks).
  digital::StuckCampaignResult run_digital_campaign(std::size_t patterns = 128,
                                                    std::uint64_t seed = 1) const;

  /// Table II overhead rows, counted from the DFT-inserted construction.
  std::vector<dft::OverheadRow> overhead() const;

  /// Fig 2: synchronizer acquisition from (vc0, phase0), with the trace.
  behav::SyncResult lock_transient(double vc0, std::size_t phase0,
                                   std::size_t max_ui = 8000, std::uint64_t seed = 1) const;

  /// Eye analysis of the behavioral channel (FFE on by default).
  behav::EyeResult eye(double ffe_kick = -1.0, std::size_t n_bits = 2000) const;

  /// Normal traffic through the link.
  lsl::link::TrafficResult run_traffic(std::size_t n_bits, std::uint64_t seed = 1) const;

  /// At-speed BIST on the healthy link.
  lsl::link::BistVerdict run_bist(std::uint64_t seed = 1) const;

  const cells::LinkFrontend& frontend() const { return frontend_; }
  const TestableLinkConfig& config() const { return config_; }

 private:
  TestableLinkConfig config_;
  cells::LinkFrontend frontend_;
};

}  // namespace lsl::core
