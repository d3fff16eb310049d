#include "spice/seed.hpp"

#include <utility>
#include <variant>

#include "spice/workspace.hpp"

namespace lsl::spice {

SolutionSeed SolutionSeed::capture(const Netlist& nl, const std::vector<double>& x,
                                   std::size_t frames) {
  SolutionSeed seed;
  nl.reindex();
  if (x.size() != nl.unknown_count()) return seed;
  for (NodeId node = 1; node < nl.node_count(); ++node) {
    seed.node_names_.push_back(nl.node_name(node));
    seed.node_index_.push(NameIndex::at(seed.node_names_));
  }
  for (const Device& dev : nl.devices()) {
    if (!dev.enabled) continue;
    if (std::holds_alternative<VSource>(dev.impl) || std::holds_alternative<Vcvs>(dev.impl)) {
      seed.branch_names_.push_back(dev.name);
      seed.branch_index_.push(NameIndex::at(seed.branch_names_));
    }
  }
  // The MNA order is exactly this: node voltages, then the enabled
  // V/E branches in device order (Netlist::reindex).
  seed.width_ = x.size();
  seed.values_.reserve(frames * x.size());
  seed.values_.assign(x.begin(), x.end());
  return seed;
}

void SolutionSeed::append(const std::vector<double>& x) {
  if (width_ == 0 || x.size() != width_) return;
  values_.insert(values_.end(), x.begin(), x.end());
}

template <class Fn>
void SolutionSeed::match(const Netlist& target, Fn&& fn) const {
  for (NodeId node = 1; node < target.node_count(); ++node) {
    const std::string& name = target.node_name(node);
    const std::size_t k = node - 1;
    if (k < node_names_.size() && node_names_[k] == name) {
      fn(target.voltage_index(node), k);
    } else if (const auto at = node_index_.find(name, NameIndex::at(node_names_))) {
      fn(target.voltage_index(node), *at);
    }
  }
  const auto& devices = target.devices();
  std::size_t k = 0;  // the target's branch ordinal
  for (std::size_t di = 0; di < devices.size(); ++di) {
    const Device& dev = devices[di];
    if (!dev.enabled) continue;
    if (std::holds_alternative<VSource>(dev.impl) || std::holds_alternative<Vcvs>(dev.impl)) {
      if (k < branch_names_.size() && branch_names_[k] == dev.name) {
        fn(target.branch_index(di), node_names_.size() + k);
      } else if (const auto at = branch_index_.find(dev.name, NameIndex::at(branch_names_))) {
        fn(target.branch_index(di), node_names_.size() + *at);
      }
      ++k;
    }
  }
}

std::vector<double> SolutionSeed::initial_guess_for(const Netlist& target) const {
  std::vector<double> x(target.unknown_count(), 0.0);  // reindexes if an edit invalidated it
  match(target, [&](std::size_t i, std::size_t k) { x[i] = values_[k]; });
  return x;
}

std::vector<std::size_t> SolutionSeed::index_map(const Netlist& target) const {
  std::vector<std::size_t> map(target.unknown_count(), kUnmapped);  // reindexes if needed
  match(target, [&](std::size_t i, std::size_t k) { map[i] = k; });
  return map;
}

void SeedBank::put(const std::string& key, SolutionSeed seed) {
  seeds_[key] = std::move(seed);
}

const SolutionSeed* SeedBank::find(const std::string& key) const {
  const auto it = seeds_.find(key);
  return it == seeds_.end() ? nullptr : &it->second;
}

void SeedChain::arm(const std::string& key, const Netlist& target) {
  key_ = key;
  if (hints_ == nullptr || hints_->seeds == nullptr) return;
  const SolutionSeed* seed = hints_->seeds->find(key);
  if (seed == nullptr || seed->empty()) return;
  std::vector<double> x = seed->initial_guess_for(target);
  const SolutionSeed* prev =
      x_prev_.size() == x.size() ? hints_->seeds->find(prev_key_) : nullptr;
  if (prev == nullptr || prev->empty()) {
    SolverWorkspace::tls().seed_from(std::move(x));
    return;
  }
  const std::vector<double> g_prev = prev->initial_guess_for(target);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = x_prev_[i] + (x[i] - g_prev[i]);
  SolverWorkspace::tls().seed_from(std::move(x), /*chained=*/true);
}

void SeedChain::record(const Netlist& nl, bool converged, const std::vector<double>& x) {
  if (!converged) return;
  if (hints_ != nullptr && hints_->capture != nullptr) {
    SolutionSeed seed = SolutionSeed::capture(nl, x);
    if (!seed.empty()) hints_->capture->put(key_, std::move(seed));
  }
  prev_key_ = key_;
  x_prev_.assign(x.begin(), x.end());
}

}  // namespace lsl::spice
