#include "dft/dictionary.hpp"

#include <gtest/gtest.h>

namespace lsl::dft {
namespace {

class DictionaryFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { golden_ = new cells::LinkFrontend(); }
  static void TearDownTestSuite() {
    delete golden_;
    golden_ = nullptr;
  }

  /// No toggle test: keeps the fixture fast; the signature is still 60
  /// characters of DC/scan/BIST observables.
  static DictionaryOptions small_opts(std::vector<std::string> prefixes) {
    DictionaryOptions opts;
    opts.prefixes = std::move(prefixes);
    opts.with_scan_toggle = false;
    return opts;
  }

  /// The signature a "failed part" carrying `f` shows the tester: a
  /// dictionary over just that device, injected as the dictionary
  /// injects it.
  static std::string observe(const fault::StructuralFault& f) {
    const FaultDictionary part = build_dictionary(*golden_, small_opts({f.device}));
    for (const auto& e : part.entries()) {
      if (e.fault.device == f.device && e.fault.cls == f.cls) return e.signature;
    }
    ADD_FAILURE() << "no entry for " << f.describe();
    return {};
  }

  static cells::LinkFrontend* golden_;
};

cells::LinkFrontend* DictionaryFixture::golden_ = nullptr;

TEST_F(DictionaryFixture, GoldenSignatureIsCleanAndStable) {
  const FaultDictionary a = build_dictionary(*golden_, small_opts({"tx.p.c_main"}));
  const FaultDictionary b = build_dictionary(*golden_, small_opts({"tx.n.c_main"}));
  EXPECT_EQ(a.golden_signature(), b.golden_signature());
  EXPECT_EQ(a.golden_signature().find_first_of("!-"), std::string::npos);
  EXPECT_EQ(a.golden_signature().size(), 60u);
}

TEST_F(DictionaryFixture, DistinctFaultsDistinctSignatures) {
  const FaultDictionary dict = build_dictionary(*golden_, small_opts({"tx.p.c_main"}));
  const std::string sa = observe({"tx.p.c_main", fault::FaultClass::kCapacitorShort});
  const std::string sb = observe({"cp.m_swup", fault::FaultClass::kDrainOpen});
  EXPECT_NE(sa, dict.golden_signature());
  EXPECT_NE(sb, dict.golden_signature());
  EXPECT_NE(sa, sb);
  // Full evaluation: every sub-stage ran, so no signature has '-' marks.
  EXPECT_EQ(sa.find('-'), std::string::npos) << sa;
  EXPECT_EQ(sb.find('-'), std::string::npos) << sb;
}

TEST_F(DictionaryFixture, DiagnoseFindsTheInjectedFault) {
  DictionaryOptions opts = small_opts({"tx."});  // small universe for speed
  opts.num_threads = 2;
  FaultDictionary dict = build_dictionary(*golden_, opts);
  ASSERT_GT(dict.entries().size(), 10u);

  // "Silicon" comes back with a defect: observe it and ask the
  // dictionary.
  const fault::StructuralFault injected{"tx.n.m_drvp", fault::FaultClass::kDrainSourceShort};
  const auto candidates = dict.diagnose(observe(injected));
  ASSERT_FALSE(candidates.empty());
  bool found = false;
  for (const auto* c : candidates) {
    found |= c->fault.device == injected.device && c->fault.cls == injected.cls;
  }
  EXPECT_TRUE(found);
}

TEST_F(DictionaryFixture, GateOpensAreObservedWithTheirBulkLeak) {
  // The TX driver pair: a PMOS gate open leaks toward VDD, an NMOS one
  // toward ground. A pessimistic run observes both variants, the bulk
  // leak's first, joined as "bulk|opposite"; the dictionary must hold
  // the bulk-leak half, whichever rail that is.
  const DictionaryOptions opts = small_opts({"tx.p.m_drv"});
  DictionaryOptions both = opts;
  both.pessimistic_gate_opens = true;
  const FaultDictionary dict = build_dictionary(*golden_, opts);
  const FaultDictionary variants = build_dictionary(*golden_, both);
  ASSERT_EQ(dict.entries().size(), variants.entries().size());
  std::size_t leak_dependent = 0;
  std::size_t to_vdd = 0;
  for (std::size_t i = 0; i < dict.entries().size(); ++i) {
    const DictionaryEntry& e = dict.entries()[i];
    const std::string& v = variants.entries()[i].signature;
    if (e.fault.cls != fault::FaultClass::kGateOpen) {
      EXPECT_EQ(e.signature, v) << e.fault.describe();
      continue;
    }
    const std::size_t bar = v.find('|');
    ASSERT_NE(bar, std::string::npos) << v;
    const std::string bulk = v.substr(0, bar);
    const std::string opposite = v.substr(bar + 1);
    EXPECT_EQ(e.signature, bulk) << e.fault.describe();
    leak_dependent += bulk != opposite;
    to_vdd += fault::bulk_leak(golden_->netlist(), e.fault) == fault::OpenLeak::kToVdd;
  }
  EXPECT_GT(leak_dependent, 0u) << "no gate open here tells the two leak variants apart";
  EXPECT_GT(to_vdd, 0u) << "no gate open here leaks toward VDD first";
}

TEST_F(DictionaryFixture, ResolutionStatsAreConsistent) {
  FaultDictionary dict = build_dictionary(*golden_, small_opts({"tx.", "term.term"}));
  const auto r = dict.resolution();
  EXPECT_EQ(r.faults, dict.entries().size());
  EXPECT_LE(r.detected, r.faults);
  EXPECT_LE(r.classes, r.detected);
  EXPECT_LE(r.uniquely_diagnosed, r.classes);
  EXPECT_GE(r.largest_class, 1u);
  EXPECT_GE(r.avg_class_size, 1.0);
}

TEST(FaultDictionary, EmptyDiagnosis) {
  FaultDictionary dict;
  dict.set_golden_signature("000");
  EXPECT_TRUE(dict.diagnose("111").empty());
  const auto r = dict.resolution();
  EXPECT_EQ(r.faults, 0u);
  EXPECT_EQ(r.classes, 0u);
}

}  // namespace
}  // namespace lsl::dft
