// Structural fault model for the analog circuits, after Kim & Soma's
// fault-based test methodology (the paper's reference [10]) and the
// paper's Table I taxonomy:
//
//   per MOSFET:  gate open, drain open, source open,
//                gate-drain short, gate-source short, drain-source short
//   per capacitor: short
//
// Opens disconnect the terminal entirely (the solver's gmin defines the
// floating level); shorts bridge two terminals with a small resistance.
//
// Gate opens get special treatment: a floating gate's potential is
// process- and history-dependent, so a gate-open fault is simulated once
// with the floating gate leaking toward GND and once toward VDD, and it
// counts as DETECTED only if the test flags BOTH variants. This
// pessimism is why gate opens come out as the hardest class in Table I.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "spice/netlist.hpp"

namespace lsl::fault {

enum class FaultClass {
  kGateOpen,
  kDrainOpen,
  kSourceOpen,
  kGateDrainShort,
  kGateSourceShort,
  kDrainSourceShort,
  kCapacitorShort,
};

constexpr std::array<FaultClass, 7> kAllFaultClasses = {
    FaultClass::kGateOpen,        FaultClass::kDrainOpen,       FaultClass::kSourceOpen,
    FaultClass::kGateDrainShort,  FaultClass::kGateSourceShort, FaultClass::kDrainSourceShort,
    FaultClass::kCapacitorShort,
};

std::string fault_class_name(FaultClass c);

/// Inverse of fault_class_name, for reading pinned record files.
/// Returns false for unknown names, leaving `out` untouched.
bool fault_class_from_name(const std::string& name, FaultClass& out);

/// Floating-node leakage direction for gate opens.
enum class OpenLeak { kToGround, kToVdd };

struct StructuralFault {
  std::string device;  // device name in the netlist
  FaultClass cls = FaultClass::kDrainSourceShort;

  std::string describe() const { return device + " " + fault_class_name(cls); }
  /// Gate opens need both leak variants simulated.
  bool needs_leak_variants() const { return cls == FaultClass::kGateOpen; }
};

struct InjectionSpec {
  double r_short = 1.0;    // bridge resistance for shorts
  double r_leak = 100e9;   // floating-gate leak to the chosen rail
};

/// Physics-based leak direction for a floating gate: junction leakage
/// pulls it toward the device's bulk — substrate (GND) for NMOS, n-well
/// (VDD) for PMOS — i.e. toward the state that turns the device off.
OpenLeak bulk_leak(const spice::Netlist& nl, const StructuralFault& fault);

/// Enumerates the structural fault universe of a netlist. Only device
/// names starting with one of `prefixes` are considered (empty = all),
/// minus any matching `exclude_prefixes`. MOSFETs yield the six
/// transistor classes; capacitors yield shorts.
std::vector<StructuralFault> enumerate_structural_faults(
    const spice::Netlist& nl, const std::vector<std::string>& prefixes = {},
    const std::vector<std::string>& exclude_prefixes = {});

/// The device-name prefixes of the *test* circuitry inside the link
/// frontend (DC-test/bias/CP-BIST comparators and their bias generator).
/// The paper's Table-I universe is the functional analog circuit; the
/// observers count as overhead (Table II), not as circuit under test.
const std::vector<std::string>& test_circuitry_prefixes();

/// Applies `fault` to `nl` in place (the caller passes a copy of the
/// golden netlist). For gate opens, `leak` picks the floating-gate
/// variant; it is ignored for the other classes. `vdd_node` is required
/// for the kToVdd leak. Returns false if the device is missing or of the
/// wrong kind.
bool inject(spice::Netlist& nl, const StructuralFault& fault, OpenLeak leak,
            spice::NodeId vdd_node, const InjectionSpec& spec = {});

/// Counts faults per class (for reporting).
std::size_t count_class(const std::vector<StructuralFault>& faults, FaultClass c);

/// One structural-equivalence class of the fault universe: every member
/// fault produces a netlist identical to the representative's up to
/// device *names* (which stamp nothing), so one simulation decides the
/// whole class. `proof` states the membership argument for the log.
struct FaultGroup {
  std::size_t representative = 0;      // lowest member index
  std::vector<std::size_t> members;    // ascending fault indices, incl. representative
  std::string proof;                   // why the members are equivalent (multi-member only)
};

/// Partitions `faults` (indices into the vector) into structural
/// equivalence classes against golden netlist `nl`: two shorts collapse
/// when they bridge the same unordered node pair with the same
/// `spec.r_short` — e.g. the gate-source short of M1 and the
/// drain-source short of a diode-tied M2 sharing both nodes. Opens
/// never collapse (each creates its own fresh node). Returns the full
/// partition — singletons included — ordered by representative index.
std::vector<FaultGroup> collapse_equivalences(const spice::Netlist& nl,
                                              const std::vector<StructuralFault>& faults,
                                              const InjectionSpec& spec = {});

}  // namespace lsl::fault
