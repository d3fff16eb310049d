#include "core/testable_link.hpp"

#include "dft/bist_test.hpp"
#include "dft/dc_test.hpp"
#include "dft/scan_test.hpp"

namespace lsl::core {

TestableLink::TestableLink(const TestableLinkConfig& config)
    : config_(config), frontend_(config.analog) {}

SelfTestResult TestableLink::self_test() const {
  SelfTestResult r;

  // The golden machine's own stage outcomes, every sub-stage run (full
  // evaluation). The DC test runs with the coarse loop closed (mission
  // operating point).
  cells::LinkFrontendSpec closed = config_.analog;
  closed.close_coarse_loop = true;
  r.dc_pass = !dft::run_dc_test(cells::LinkFrontend(closed), {}, {}, nullptr, true).anomalous();
  r.scan_pass = !dft::run_scan_test(frontend_, {}, {}, nullptr, true).anomalous();
  r.bist_pass = dft::bist_test_reference(frontend_, config_.behavioral).valid;
  return r;
}

dft::CampaignReport TestableLink::run_fault_campaign(const dft::CampaignOptions& opts) const {
  return dft::run_campaign(frontend_, opts);
}

digital::StuckCampaignResult TestableLink::run_digital_campaign(std::size_t patterns,
                                                                std::uint64_t seed) const {
  return dft::run_digital_campaign(patterns, seed);
}

std::vector<dft::OverheadRow> TestableLink::overhead() const { return dft::table2_rows(); }

behav::SyncResult TestableLink::lock_transient(double vc0, std::size_t phase0, std::size_t max_ui,
                                               std::uint64_t seed) const {
  lsl::link::Link link(config_.behavioral);
  behav::Synchronizer sync(config_.behavioral.sync, link.eye_center(), vc0, phase0);
  util::Pcg32 rng(seed);
  return sync.run(max_ui, rng, /*record_trace=*/true);
}

behav::EyeResult TestableLink::eye(double ffe_kick, std::size_t n_bits) const {
  behav::ChannelParams p = config_.behavioral.channel;
  if (ffe_kick >= 0.0) p.ffe_kick = ffe_kick;
  return behav::analyze_eye(p, n_bits);
}

lsl::link::TrafficResult TestableLink::run_traffic(std::size_t n_bits, std::uint64_t seed) const {
  lsl::link::Link link(config_.behavioral);
  return link.run_traffic(n_bits, util::PrbsOrder::kPrbs15, seed);
}

lsl::link::BistVerdict TestableLink::run_bist(std::uint64_t seed) const {
  lsl::link::LinkParams p = config_.behavioral;
  p.phase0 = 5;  // the BIST scan-preloads a far-off coarse phase
  lsl::link::Link link(p);
  return link.run_bist(seed);
}

}  // namespace lsl::core
