#include "spice/seed.hpp"

#include <utility>
#include <variant>

#include "spice/workspace.hpp"

namespace lsl::spice {

SolutionSeed SolutionSeed::capture(const Netlist& nl, const std::vector<double>& x) {
  SolutionSeed seed;
  nl.reindex();
  if (x.size() != nl.unknown_count()) return seed;
  for (NodeId node = 1; node < nl.node_count(); ++node) {
    seed.node_names_.push_back(nl.node_name(node));
    seed.node_v_.push_back(x[nl.voltage_index(node)]);
    seed.node_index_.push(NameIndex::at(seed.node_names_));
  }
  const auto& devices = nl.devices();
  for (std::size_t di = 0; di < devices.size(); ++di) {
    const Device& dev = devices[di];
    if (!dev.enabled) continue;
    if (std::holds_alternative<VSource>(dev.impl) || std::holds_alternative<Vcvs>(dev.impl)) {
      seed.branch_names_.push_back(dev.name);
      seed.branch_i_.push_back(x[nl.branch_index(di)]);
      seed.branch_index_.push(NameIndex::at(seed.branch_names_));
    }
  }
  return seed;
}

std::vector<double> SolutionSeed::initial_guess_for(const Netlist& target) const {
  std::vector<double> x(target.unknown_count(), 0.0);  // reindexes if an edit invalidated it
  for (NodeId node = 1; node < target.node_count(); ++node) {
    const std::string& name = target.node_name(node);
    const std::size_t k = node - 1;
    if (k < node_names_.size() && node_names_[k] == name) {
      x[target.voltage_index(node)] = node_v_[k];
    } else if (const auto at = node_index_.find(name, NameIndex::at(node_names_))) {
      x[target.voltage_index(node)] = node_v_[*at];
    }
  }
  const auto& devices = target.devices();
  std::size_t k = 0;  // the target's branch ordinal
  for (std::size_t di = 0; di < devices.size(); ++di) {
    const Device& dev = devices[di];
    if (!dev.enabled) continue;
    if (std::holds_alternative<VSource>(dev.impl) || std::holds_alternative<Vcvs>(dev.impl)) {
      if (k < branch_names_.size() && branch_names_[k] == dev.name) {
        x[target.branch_index(di)] = branch_i_[k];
      } else if (const auto at = branch_index_.find(dev.name, NameIndex::at(branch_names_))) {
        x[target.branch_index(di)] = branch_i_[*at];
      }
      ++k;
    }
  }
  return x;
}

void SeedBank::put(const std::string& key, SolutionSeed seed) {
  seeds_[key] = std::move(seed);
}

const SolutionSeed* SeedBank::find(const std::string& key) const {
  const auto it = seeds_.find(key);
  return it == seeds_.end() ? nullptr : &it->second;
}

void arm_warm_start(const SolveHints* hints, const std::string& key, const Netlist& target) {
  if (hints == nullptr || hints->seeds == nullptr) return;
  const SolutionSeed* seed = hints->seeds->find(key);
  if (seed == nullptr || seed->empty()) return;
  SolverWorkspace::tls().seed_from(seed->initial_guess_for(target));
}

void capture_seed(const SolveHints* hints, const std::string& key, const Netlist& nl,
                  const std::vector<double>& x) {
  if (hints == nullptr || hints->capture == nullptr) return;
  SolutionSeed seed = SolutionSeed::capture(nl, x);
  if (seed.empty()) return;
  hints->capture->put(key, std::move(seed));
}

}  // namespace lsl::spice
