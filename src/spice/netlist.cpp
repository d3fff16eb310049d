#include "spice/netlist.hpp"

#include <atomic>
#include <stdexcept>

namespace lsl::spice {

namespace {

/// Process-wide monotonic source of generation stamps. Relaxed is
/// enough: uniqueness is all the caches need, not ordering.
std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// The `name_at` of the device list.
auto device_names(const std::vector<Device>& devices) {
  return [&devices](std::size_t i) -> std::string_view { return devices[i].name; };
}

}  // namespace

void Netlist::touch() {
  generation_ = next_generation();
  index_valid_ = false;
}

Netlist::Netlist() : generation_(next_generation()) {
  node_names_.push_back("0");
  node_index_.push(NameIndex::at(node_names_));
}

Netlist::Netlist(const Netlist& other)
    : node_names_(other.node_names_),
      node_index_(other.node_index_),
      devices_(other.devices_),
      device_index_(other.device_index_),
      model_(other.model_),
      fresh_counter_(other.fresh_counter_),
      generation_(next_generation()),
      branch_of_device_(other.branch_of_device_),
      n_unknowns_(other.n_unknowns_),
      index_valid_(other.index_valid_) {}

Netlist& Netlist::operator=(const Netlist& other) {
  if (this == &other) return *this;
  node_names_ = other.node_names_;
  node_index_ = other.node_index_;
  devices_ = other.devices_;
  device_index_ = other.device_index_;
  model_ = other.model_;
  fresh_counter_ = other.fresh_counter_;
  generation_ = next_generation();
  branch_of_device_ = other.branch_of_device_;
  n_unknowns_ = other.n_unknowns_;
  index_valid_ = other.index_valid_;
  return *this;
}

Netlist::Netlist(Netlist&& other) noexcept
    : node_names_(std::move(other.node_names_)),
      node_index_(std::move(other.node_index_)),
      devices_(std::move(other.devices_)),
      device_index_(std::move(other.device_index_)),
      model_(other.model_),
      fresh_counter_(other.fresh_counter_),
      // The destination is content-identical to the pre-move source, so
      // it may keep the stamp (warm caches stay warm across a move);
      // the gutted source gets a fresh one so it can never alias.
      generation_(other.generation_),
      branch_of_device_(std::move(other.branch_of_device_)),
      n_unknowns_(other.n_unknowns_),
      index_valid_(other.index_valid_) {
  other.generation_ = next_generation();
  other.index_valid_ = false;
}

Netlist& Netlist::operator=(Netlist&& other) noexcept {
  if (this == &other) return *this;
  node_names_ = std::move(other.node_names_);
  node_index_ = std::move(other.node_index_);
  devices_ = std::move(other.devices_);
  device_index_ = std::move(other.device_index_);
  model_ = other.model_;
  fresh_counter_ = other.fresh_counter_;
  generation_ = other.generation_;
  branch_of_device_ = std::move(other.branch_of_device_);
  n_unknowns_ = other.n_unknowns_;
  index_valid_ = other.index_valid_;
  other.generation_ = next_generation();
  other.index_valid_ = false;
  return *this;
}

NodeId Netlist::node(const std::string& name) {
  if (const auto id = find_node(name)) return *id;
  touch();
  const NodeId id = node_names_.size();
  node_names_.push_back(name);
  node_index_.push(NameIndex::at(node_names_));
  return id;
}

std::optional<NodeId> Netlist::find_node(const std::string& name) const {
  return node_index_.find(name, NameIndex::at(node_names_));
}

NodeId Netlist::fresh_node(const std::string& hint) {
  for (;;) {
    const std::string name = hint + "#" + std::to_string(fresh_counter_++);
    if (!find_node(name)) return node(name);
  }
}

const std::string& Netlist::node_name(NodeId id) const { return node_names_.at(id); }

std::size_t Netlist::add(std::string name, DeviceImpl impl) {
  if (find_device(name)) throw std::invalid_argument("duplicate device name: " + name);
  touch();
  const std::size_t idx = devices_.size();
  devices_.push_back(Device{std::move(name), std::move(impl), true});
  device_index_.push(device_names(devices_));
  return idx;
}

void Netlist::set_vsource_volts(std::size_t i, double volts) {
  auto* vs = std::get_if<VSource>(&devices_.at(i).impl);
  if (vs == nullptr) {
    throw std::invalid_argument("not a VSource: " + devices_.at(i).name);
  }
  vs->volts = volts;
}

std::optional<std::size_t> Netlist::find_device(const std::string& name) const {
  return device_index_.find(name, device_names(devices_));
}

void Netlist::reindex() const {
  branch_of_device_.assign(devices_.size(), static_cast<std::size_t>(-1));
  std::size_t next = node_names_.size() - 1;  // voltages occupy [0, N-2]
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const Device& d = devices_[i];
    if (!d.enabled) continue;
    if (std::holds_alternative<VSource>(d.impl) || std::holds_alternative<Vcvs>(d.impl)) {
      branch_of_device_[i] = next++;
    }
  }
  n_unknowns_ = next;
  index_valid_ = true;
}

std::size_t Netlist::unknown_count() const {
  if (!index_valid_) reindex();
  return n_unknowns_;
}

void Netlist::throw_ground_has_no_voltage() {
  throw std::invalid_argument("ground has no voltage unknown");
}

std::size_t Netlist::branch_index(std::size_t device_idx) const {
  if (!index_valid_) reindex();
  const std::size_t b = branch_of_device_.at(device_idx);
  if (b == static_cast<std::size_t>(-1)) {
    throw std::invalid_argument("device has no branch current: " + devices_.at(device_idx).name);
  }
  return b;
}

}  // namespace lsl::spice
