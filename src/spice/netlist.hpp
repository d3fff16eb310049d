// Circuit netlist representation for the MNA engine.
//
// Devices are plain value types held in a std::variant, so a Netlist has
// full value semantics: the fault injector copies the golden netlist and
// edits the copy (insert series opens, bridge shorts) without any
// clone-hierarchy machinery. Node 0 is always ground.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace lsl::spice {

using NodeId = std::size_t;
inline constexpr NodeId kGround = 0;

/// Two-terminal linear resistor.
struct Resistor {
  NodeId a = kGround;
  NodeId b = kGround;
  double ohms = 1.0;
};

/// Two-terminal linear capacitor. Open circuit at DC.
struct Capacitor {
  NodeId a = kGround;
  NodeId b = kGround;
  double farads = 1e-15;
};

/// Independent voltage source; adds one MNA branch-current unknown.
/// In transient analysis the value can be overridden per time point via
/// a waveform callback registered on the simulator.
struct VSource {
  NodeId p = kGround;
  NodeId n = kGround;
  double volts = 0.0;
};

/// Independent current source; positive current flows from `p` through
/// the source to `n` (SPICE convention).
struct ISource {
  NodeId p = kGround;
  NodeId n = kGround;
  double amps = 0.0;
};

/// Voltage-controlled voltage source (E element): v(p,n) = gain * v(cp,cn).
/// Used for the charge-pump balancing amplifier.
struct Vcvs {
  NodeId p = kGround;
  NodeId n = kGround;
  NodeId cp = kGround;
  NodeId cn = kGround;
  double gain = 1.0;
};

enum class MosType { kNmos, kPmos };

/// Square-law (SPICE level-1) MOSFET, bulk tied to the rail implicitly.
/// `vt_delta` lets a cell model deliberate threshold skew on top of the
/// model card (used nowhere in the golden design — the paper's offsets
/// come from W/L mismatch — but exposed for experiments).
struct Mosfet {
  NodeId d = kGround;
  NodeId g = kGround;
  NodeId s = kGround;
  MosType type = MosType::kNmos;
  double w = 0.5e-6;
  double l = 0.5e-6;
  double vt_delta = 0.0;
};

using DeviceImpl = std::variant<Resistor, Capacitor, VSource, ISource, Vcvs, Mosfet>;

/// Named device instance. `enabled == false` removes the device from all
/// stamps — used by tests and by open-fault edits that delete elements.
struct Device {
  std::string name;
  DeviceImpl impl;
  bool enabled = true;
};

/// Process model card for the square-law MOSFETs. Defaults approximate a
/// 130 nm-class process at 1.2 V (the paper's UMC 130 nm operating point):
/// |VT| ~ 0.34/0.36 V and transconductance factors scaled so that a
/// 0.5u/0.5u device carries tens of microamps in saturation.
struct ModelCard {
  double kp_n = 320e-6;     // NMOS mu*Cox (A/V^2)
  double kp_p = 110e-6;     // PMOS mu*Cox (A/V^2)
  double vt_n = 0.34;       // NMOS threshold (V)
  double vt_p = -0.36;      // PMOS threshold (V)
  double lambda_n = 0.15;   // NMOS channel-length modulation (1/V)
  double lambda_p = 0.18;   // PMOS channel-length modulation (1/V)
};

/// Name-to-position index over a list of unique names kept elsewhere (a
/// netlist's node names or devices, a seed's captured names). The table
/// holds positions only — open addressing, linear probing, load at most
/// one half — so copying it is one flat vector copy and it owns no
/// string. `name_at(i)` returns name i of the indexed list.
class NameIndex {
 public:
  /// Position of `name`, or nullopt when it is not indexed.
  template <class NameAt>
  std::optional<std::size_t> find(std::string_view name, NameAt name_at) const {
    if (slots_.empty()) return std::nullopt;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t h = hash(name) & mask;; h = (h + 1) & mask) {
      const std::uint32_t p = slots_[h];
      if (p == 0) return std::nullopt;
      if (name_at(p - 1) == name) return p - 1;
    }
  }

  /// Indexes the next position of the list (positions are indexed in
  /// order, 0 first), doubling the table when it would pass half full.
  template <class NameAt>
  void push(NameAt name_at) {
    if (2 * (count_ + 1) > slots_.size()) {
      slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), 0);
      for (std::size_t i = 0; i < count_; ++i) place(name_at(i), i);
    }
    place(name_at(count_), count_);
    ++count_;
  }

  /// The `name_at` of a list of strings.
  static auto at(const std::vector<std::string>& names) {
    return [&names](std::size_t i) -> std::string_view { return names[i]; };
  }

 private:
  static std::size_t hash(std::string_view name) { return std::hash<std::string_view>{}(name); }
  void place(std::string_view name, std::size_t pos) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t h = hash(name) & mask;
    while (slots_[h] != 0) h = (h + 1) & mask;
    slots_[h] = static_cast<std::uint32_t>(pos + 1);
  }

  std::vector<std::uint32_t> slots_;  // position + 1; 0 = empty
  std::size_t count_ = 0;
};

/// Flat netlist with string-named nodes (node 0 = "0" = ground).
///
/// Every netlist carries a process-unique *generation* stamp that the
/// solver workspaces key their per-topology caches (sparsity pattern,
/// symbolic LU, linear stamp base) on. Any mutable access — add(),
/// node creation, the non-const device()/devices()/model() accessors —
/// assigns a fresh stamp, conservatively invalidating those caches, and
/// marks the branch-current indexing for recomputation on next use.
/// Copies always get a fresh stamp, so no two distinct netlists ever
/// share one. The single deliberate carve-out: mutating a device
/// parameter through a *retained* reference (without re-calling an
/// accessor) is only supported for values the solver re-reads on every
/// solve — VSource::volts (dc_sweep does exactly this). Retained-pointer
/// mutation of matrix-shaping values (Resistor::ohms, Capacitor::farads,
/// Vcvs::gain, Device::enabled) must go through device()/devices().
class Netlist {
 public:
  Netlist();
  Netlist(const Netlist& other);
  Netlist& operator=(const Netlist& other);
  Netlist(Netlist&& other) noexcept;
  Netlist& operator=(Netlist&& other) noexcept;

  /// Returns the node with this name, creating it if absent.
  NodeId node(const std::string& name);
  /// Looks up an existing node; nullopt if never created.
  std::optional<NodeId> find_node(const std::string& name) const;
  /// Creates a fresh node with a unique generated name (fault edits).
  NodeId fresh_node(const std::string& hint);
  const std::string& node_name(NodeId id) const;
  std::size_t node_count() const { return node_names_.size(); }

  /// Adds a device; returns its index. Names must be unique.
  std::size_t add(std::string name, DeviceImpl impl);

  /// Device access for analyses and fault edits. The non-const
  /// overloads assume the caller will mutate and refresh generation().
  std::vector<Device>& devices() {
    touch();
    return devices_;
  }
  const std::vector<Device>& devices() const { return devices_; }
  Device& device(std::size_t i) {
    touch();
    return devices_.at(i);
  }
  const Device& device(std::size_t i) const { return devices_.at(i); }
  /// Index of the device with this name; nullopt if absent.
  std::optional<std::size_t> find_device(const std::string& name) const;

  ModelCard& model() {
    touch();
    return model_;
  }
  const ModelCard& model() const { return model_; }

  /// Cache key for solver-side per-topology state. Unique across all
  /// netlists in the process; refreshed by every mutable access.
  std::uint64_t generation() const { return generation_; }

  /// Sets the value of VSource device `i` WITHOUT refreshing the
  /// generation stamp. Source values only ever enter the MNA right-hand
  /// side, which the solver rebuilds from the netlist on every Newton
  /// iteration, so this mutation cannot stale any cached matrix state.
  /// This is the fast path for drive toggling between solves (the DFT
  /// stages flip a dozen sources per fault). Throws if `i` is not a
  /// VSource.
  void set_vsource_volts(std::size_t i, double volts);

  /// Number of MNA unknowns: node voltages (excluding ground) plus one
  /// branch current per enabled VSource/Vcvs.
  std::size_t unknown_count() const;
  /// MNA index of a node voltage (node must not be ground).
  std::size_t voltage_index(NodeId n) const {
    if (n == kGround) throw_ground_has_no_voltage();
    return n - 1;
  }
  /// MNA index of the branch current of device `i` (must be V/E source).
  std::size_t branch_index(std::size_t device_idx) const;

  /// Recomputes branch-current index assignments. Called automatically by
  /// the analyses; cheap, so also safe to call after edits.
  void reindex() const;

 private:
  void touch();
  [[noreturn]] static void throw_ground_has_no_voltage();

  // Name lookups go through position-only indexes over the two lists,
  // so a copy is flat vector copies (the strings aside).
  std::vector<std::string> node_names_;
  NameIndex node_index_;
  std::vector<Device> devices_;
  NameIndex device_index_;
  ModelCard model_;
  std::size_t fresh_counter_ = 0;
  std::uint64_t generation_ = 0;

  mutable std::vector<std::size_t> branch_of_device_;  // device idx -> MNA idx
  mutable std::size_t n_unknowns_ = 0;
  mutable bool index_valid_ = false;
};

}  // namespace lsl::spice
