// A System is a flat composite BIP component: instances + connectors +
// priorities. (Hierarchy is handled by construction functions that flatten
// into this representation — the monograph's "flattening" requirement for
// glue, Section 5.3.2.)
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/atomic.hpp"
#include "core/compiled.hpp"
#include "core/connector.hpp"
#include "core/priority.hpp"

namespace cbip {

class System {
 public:
  struct Instance {
    std::string name;
    AtomicTypePtr type;
  };

  System() = default;
  // Copies carry the model, not the derived caches (reverse index,
  // compiled programs); both rebuild lazily. Moves carry everything (the
  // atomic publication pointer forces the member-wise spelling).
  System(const System& other)
      : instances_(other.instances_),
        connectors_(other.connectors_),
        priorities_(other.priorities_),
        maximalProgress_(other.maximalProgress_) {}
  System& operator=(const System& other) {
    if (this != &other) *this = System(other);
    return *this;
  }
  System(System&& other) noexcept
      : instances_(std::move(other.instances_)),
        connectors_(std::move(other.connectors_)),
        priorities_(std::move(other.priorities_)),
        maximalProgress_(other.maximalProgress_),
        connectorsByInstance_(std::move(other.connectorsByInstance_)),
        compiled_(std::move(other.compiled_)) {
    compiledPub_.store(compiled_.get(), std::memory_order_relaxed);
    other.compiledPub_.store(nullptr, std::memory_order_relaxed);
  }
  System& operator=(System&& other) noexcept {
    if (this != &other) {
      instances_ = std::move(other.instances_);
      connectors_ = std::move(other.connectors_);
      priorities_ = std::move(other.priorities_);
      maximalProgress_ = other.maximalProgress_;
      connectorsByInstance_ = std::move(other.connectorsByInstance_);
      compiled_ = std::move(other.compiled_);
      compiledPub_.store(compiled_.get(), std::memory_order_relaxed);
      other.compiledPub_.store(nullptr, std::memory_order_relaxed);
    }
    return *this;
  }

  // ---- construction ----
  /// Adds an instance; returns its index.
  int addInstance(const std::string& name, AtomicTypePtr type);
  /// Adds a connector; returns its index.
  int addConnector(Connector connector);
  /// Removes the connector at index `i`; later connectors shift down one
  /// index. Invalidates the same derived caches as addConnector. Model
  /// edits under incremental verification use this (removing glue never
  /// touches instances, so component invariants survive the edit).
  void removeConnector(std::size_t i);
  void addPriority(PriorityRule rule);
  /// Enables maximal-progress filtering among interactions of the same
  /// connector (prefer strictly larger port sets).
  void setMaximalProgress(bool on) { maximalProgress_ = on; }

  /// Validates the whole system (types, connector ends, expressions);
  /// throws ModelError on any inconsistency.
  void validate() const;

  // ---- queries ----
  std::size_t instanceCount() const { return instances_.size(); }
  const Instance& instance(std::size_t i) const { return instances_[i]; }
  const std::vector<Instance>& instances() const { return instances_; }
  std::size_t connectorCount() const { return connectors_.size(); }
  const Connector& connector(std::size_t i) const { return connectors_[i]; }
  const std::vector<Connector>& connectors() const { return connectors_; }
  const std::vector<PriorityRule>& priorities() const { return priorities_; }
  bool maximalProgress() const { return maximalProgress_; }

  /// Connector indices with at least one end on instance `i` (ascending).
  /// Reverse index over the connector ends; rebuilt lazily after
  /// construction calls, so it is cheap to query every engine step.
  const std::vector<int>& connectorsOf(std::size_t i) const;

  /// Forces every lazily-built structure the engines read concurrently:
  /// the component->connector reverse index, each type's transitionsFrom
  /// index and — when compilation is enabled — the compiled transition and
  /// connector programs. Idempotent; the engines call it before going
  /// multi-threaded (the lazy builds have no internal synchronization
  /// beyond the compiled-program publication), so workers only ever read.
  void warmIndices() const;

  /// True when the structures warmIndices() forces are built; the
  /// concurrent engines assert this before starting workers (under TSan a
  /// violated assumption would otherwise surface only as a data race).
  bool indicesWarm() const;

  /// Bytecode form of every connector, built lazily once per System
  /// revision (invalidated by addInstance/addConnector). The engines force
  /// the build at construction time; afterwards this is a pure read.
  const CompiledSystem& compiled() const;

  /// Index of the instance with the given name; throws if unknown.
  int instanceIndex(const std::string& name) const;
  /// PortRef for "instance.port" names; throws if unknown.
  PortRef portRef(const std::string& instance, const std::string& port) const;

  /// Label "instanceName.portName" for a connector end.
  std::string endLabel(const ConnectorEnd& end) const;

 private:
  void rebuildReverseIndexIfNeeded() const;

  std::vector<Instance> instances_;
  std::vector<Connector> connectors_;
  std::vector<PriorityRule> priorities_;
  bool maximalProgress_ = false;

  // instance -> connector indices; cleared by addInstance/addConnector.
  mutable std::vector<std::vector<int>> connectorsByInstance_;

  // Compiled connector programs; cleared by addInstance/addConnector.
  // Built under a mutex and published through the atomic pointer, so
  // concurrent first-use (e.g. sibling engines constructed over one
  // shared System from two threads) is safe.
  mutable std::unique_ptr<CompiledSystem> compiled_;
  mutable std::atomic<const CompiledSystem*> compiledPub_{nullptr};
};

/// Global state: one AtomicState per instance, by index.
struct GlobalState {
  std::vector<AtomicState> components;
  friend bool operator==(const GlobalState&, const GlobalState&) = default;
};

GlobalState initialState(const System& system);

/// Stable 64-bit hash (FNV-1a over the encoded state).
std::uint64_t hashState(const GlobalState& state);

/// Compact printable form "loc0(v=..),loc1(..)" for debugging/traces.
std::string formatState(const System& system, const GlobalState& state);

/// Evaluation context over a global state: scope = instance index.
class GlobalContext final : public expr::EvalContext {
 public:
  explicit GlobalContext(GlobalState& state) : state_(&state) {}
  Value read(expr::VarRef ref) const override;
  void write(expr::VarRef ref, Value value) override;

 private:
  GlobalState* state_;
};

}  // namespace cbip
