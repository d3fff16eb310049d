#include "fault/structural.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <utility>

namespace lsl::fault {

using spice::Capacitor;
using spice::kGround;
using spice::Mosfet;
using spice::Netlist;
using spice::NodeId;
using spice::Resistor;

std::string fault_class_name(FaultClass c) {
  switch (c) {
    case FaultClass::kGateOpen: return "gate-open";
    case FaultClass::kDrainOpen: return "drain-open";
    case FaultClass::kSourceOpen: return "source-open";
    case FaultClass::kGateDrainShort: return "gate-drain-short";
    case FaultClass::kGateSourceShort: return "gate-source-short";
    case FaultClass::kDrainSourceShort: return "drain-source-short";
    case FaultClass::kCapacitorShort: return "capacitor-short";
  }
  return "?";
}

namespace {

bool has_prefix(const std::string& name, const std::vector<std::string>& prefixes) {
  for (const auto& p : prefixes) {
    if (name.rfind(p, 0) == 0) return true;
  }
  return false;
}

}  // namespace

const std::vector<std::string>& test_circuitry_prefixes() {
  // The VH/VL window comparator (cp.cmp_*) stays IN the universe: the
  // mission-mode coarse loop needs it, so it is functional circuitry.
  static const std::vector<std::string> kPrefixes = {
      "term.wdata", "term.wbias", "cp.bist", "bias.",
  };
  return kPrefixes;
}

std::vector<StructuralFault> enumerate_structural_faults(
    const Netlist& nl, const std::vector<std::string>& prefixes,
    const std::vector<std::string>& exclude_prefixes) {
  std::vector<StructuralFault> out;
  for (const auto& dev : nl.devices()) {
    if (!dev.enabled) continue;
    if (!prefixes.empty() && !has_prefix(dev.name, prefixes)) continue;
    if (has_prefix(dev.name, exclude_prefixes)) continue;
    if (std::holds_alternative<Mosfet>(dev.impl)) {
      for (const FaultClass c :
           {FaultClass::kGateOpen, FaultClass::kDrainOpen, FaultClass::kSourceOpen,
            FaultClass::kGateDrainShort, FaultClass::kGateSourceShort,
            FaultClass::kDrainSourceShort}) {
        out.push_back({dev.name, c});
      }
    } else if (std::holds_alternative<Capacitor>(dev.impl)) {
      out.push_back({dev.name, FaultClass::kCapacitorShort});
    }
  }
  return out;
}

bool inject(Netlist& nl, const StructuralFault& fault, OpenLeak leak, NodeId vdd_node,
            const InjectionSpec& spec) {
  const auto di = nl.find_device(fault.device);
  if (!di.has_value()) return false;
  auto& dev = nl.device(*di);

  if (fault.cls == FaultClass::kCapacitorShort) {
    const auto* cap = std::get_if<Capacitor>(&dev.impl);
    if (cap == nullptr) return false;
    const NodeId a = cap->a;
    const NodeId b = cap->b;
    nl.add("flt." + fault.device + ".short", Resistor{a, b, spec.r_short});
    return true;
  }

  auto* mos = std::get_if<Mosfet>(&dev.impl);
  if (mos == nullptr) return false;

  // An open is a true disconnection: the dangling terminal keeps no path
  // to its former node. The solver's gmin holds the floating node (it
  // settles toward ground), which is the deterministic-pessimistic
  // reading of an undriven node.
  auto open_terminal = [&](NodeId& term, const char* tag) {
    const NodeId dangling = nl.fresh_node("flt." + fault.device + "." + tag);
    term = dangling;
    return dangling;
  };

  const NodeId g = mos->g;
  const NodeId d = mos->d;
  const NodeId s = mos->s;

  switch (fault.cls) {
    case FaultClass::kGateOpen: {
      // A floating gate's level is set by junction leakage toward a rail
      // — unknown in practice, hence the two leak variants.
      const NodeId dangling = open_terminal(mos->g, "g");
      const NodeId rail = (leak == OpenLeak::kToVdd) ? vdd_node : kGround;
      nl.add("flt." + fault.device + ".g.leak", Resistor{dangling, rail, spec.r_leak});
      return true;
    }
    case FaultClass::kDrainOpen: {
      open_terminal(mos->d, "d");
      return true;
    }
    case FaultClass::kSourceOpen: {
      open_terminal(mos->s, "s");
      return true;
    }
    case FaultClass::kGateDrainShort:
      nl.add("flt." + fault.device + ".gd", Resistor{g, d, spec.r_short});
      return true;
    case FaultClass::kGateSourceShort:
      nl.add("flt." + fault.device + ".gs", Resistor{g, s, spec.r_short});
      return true;
    case FaultClass::kDrainSourceShort:
      nl.add("flt." + fault.device + ".ds", Resistor{d, s, spec.r_short});
      return true;
    case FaultClass::kCapacitorShort:
      break;  // handled above
  }
  return false;
}

OpenLeak bulk_leak(const Netlist& nl, const StructuralFault& fault) {
  const auto di = nl.find_device(fault.device);
  if (di.has_value()) {
    if (const auto* mos = std::get_if<Mosfet>(&nl.device(*di).impl)) {
      return mos->type == spice::MosType::kNmos ? OpenLeak::kToGround : OpenLeak::kToVdd;
    }
  }
  return OpenLeak::kToGround;
}

std::size_t count_class(const std::vector<StructuralFault>& faults, FaultClass c) {
  std::size_t n = 0;
  for (const auto& f : faults) {
    if (f.cls == c) ++n;
  }
  return n;
}

namespace {

// The unordered node pair a short-class fault would bridge in golden
// netlist `nl`, or nullopt for opens / missing / wrong-kind devices.
std::optional<std::pair<NodeId, NodeId>> short_bridge(const Netlist& nl,
                                                      const StructuralFault& fault) {
  const auto di = nl.find_device(fault.device);
  if (!di.has_value()) return std::nullopt;
  const auto& dev = nl.devices()[*di];
  NodeId a = kGround;
  NodeId b = kGround;
  if (fault.cls == FaultClass::kCapacitorShort) {
    const auto* cap = std::get_if<Capacitor>(&dev.impl);
    if (cap == nullptr) return std::nullopt;
    a = cap->a;
    b = cap->b;
  } else {
    const auto* mos = std::get_if<Mosfet>(&dev.impl);
    if (mos == nullptr) return std::nullopt;
    switch (fault.cls) {
      case FaultClass::kGateDrainShort: a = mos->g; b = mos->d; break;
      case FaultClass::kGateSourceShort: a = mos->g; b = mos->s; break;
      case FaultClass::kDrainSourceShort: a = mos->d; b = mos->s; break;
      default: return std::nullopt;
    }
  }
  if (a > b) std::swap(a, b);
  return std::make_pair(a, b);
}

}  // namespace

std::vector<FaultGroup> collapse_equivalences(const Netlist& nl,
                                              const std::vector<StructuralFault>& faults,
                                              const InjectionSpec& spec) {
  // Key = the unordered bridged node pair. spec.r_short is shared by
  // every short in one campaign, so within a single call the pair alone
  // decides equivalence; it is named in the proof for the log.
  std::map<std::pair<NodeId, NodeId>, std::vector<std::size_t>> by_bridge;
  std::vector<FaultGroup> out;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const auto bridge = short_bridge(nl, faults[i]);
    if (!bridge.has_value()) {
      // Opens (fresh dangling node each) and unresolvable faults never
      // collapse: singleton class, no proof needed.
      FaultGroup g;
      g.representative = i;
      g.members = {i};
      out.push_back(std::move(g));
      continue;
    }
    by_bridge[*bridge].push_back(i);
  }
  for (auto& [bridge, members] : by_bridge) {
    FaultGroup g;
    g.representative = members.front();  // insertion order is ascending
    g.members = std::move(members);
    if (g.members.size() > 1) {
      std::string proof = "bridge " + nl.node_name(bridge.first) + "-" +
                          nl.node_name(bridge.second) + " @ r_short=" +
                          std::to_string(spec.r_short) + ": ";
      for (std::size_t j = 0; j < g.members.size(); ++j) {
        if (j != 0) proof += ", ";
        proof += faults[g.members[j]].describe();
      }
      proof += " stamp identical conductance between the same node pair";
      g.proof = std::move(proof);
    }
    out.push_back(std::move(g));
  }
  std::sort(out.begin(), out.end(), [](const FaultGroup& a, const FaultGroup& b) {
    return a.representative < b.representative;
  });
  return out;
}

}  // namespace lsl::fault
