// Atomic BIP components: automata extended with integer data.
//
// An atomic component (monograph Section 5.3, [30]) is a transition system
// with:
//   * named control locations;
//   * a table of integer variables with initial values;
//   * ports, each optionally exporting a subset of the variables (the data
//     visible to connectors during an interaction);
//   * transitions `loc --[port, guard / actions]--> loc'`. A transition
//     labelled by the internal port (kInternalPort) is a tau step executed
//     autonomously by the component, with priority below every interaction.
//
// AtomicType is the immutable "type" (shared between instances and between
// the engines and the verifier); AtomicState is the mutable runtime state.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "expr/compile.hpp"
#include "expr/expr.hpp"

namespace cbip {

using expr::Expr;
using expr::Value;

/// Port index used to label internal (tau) transitions.
inline constexpr int kInternalPort = -1;

struct VarDecl {
  std::string name;
  Value init = 0;
};

struct PortDecl {
  std::string name;
  /// Indices (into the component's variable table) of variables exported
  /// through this port; connectors address them by position in this list.
  std::vector<int> exports;
};

struct Transition {
  int from = 0;
  int port = kInternalPort;
  Expr guard = Expr::top();  // over local variables (scope 0)
  std::vector<expr::Assign> actions;
  int to = 0;
};

/// Bytecode form of one transition, evaluated directly against the
/// component's variable vector (frame slot = variable index). The symbolic
/// Transition stays authoritative for the verifier; this is the execution
/// form (see expr/compile.hpp).
///
/// Three program shapes serve three dispatch sites:
///   * `guard` — read-only guard program for enabled-set scans;
///   * `fused` — the whole guarded command in one program (guard prefix,
///     conditional skip, action suffix, CSE across the boundary); tryFire
///     runs it as a single dispatch;
///   * `actionBlock` — the action suffix alone (intra-block CSE), for
///     unconditional fires where the guard was established earlier, on a
///     possibly different frame (post-transfer interaction execution).
/// `from`/`to` mirror the symbolic transition so the hot dispatches never
/// touch the Expr-tree side at all.
struct CompiledTransition {
  expr::ExprProgram guard;        // empty when the guard is trivially true
  expr::ExprProgram fused;        // empty iff guard trivially true and no actions
  expr::ExprProgram actionBlock;  // empty when the transition has no actions
  int from = 0;
  int to = 0;
};

/// Immutable description of an atomic component type. Build with the
/// add* methods, then call `validate()` (done automatically by System).
class AtomicType {
 public:
  explicit AtomicType(std::string name) : name_(std::move(name)) {}

  // ---- construction ----
  int addLocation(const std::string& name);
  int addVariable(const std::string& name, Value init = 0);
  int addPort(const std::string& name, std::vector<int> exports = {});
  /// Adds a transition; `port` may be kInternalPort for a tau step.
  void addTransition(int from, int port, Expr guard, std::vector<expr::Assign> actions, int to);
  /// Convenience: transition without data.
  void addTransition(int from, int port, int to) {
    addTransition(from, port, Expr::top(), {}, to);
  }
  void setInitialLocation(int loc);

  /// Checks structural consistency (indices in range, names unique);
  /// throws ModelError on violation.
  void validate() const;

  // ---- queries ----
  const std::string& name() const { return name_; }
  std::size_t locationCount() const { return locations_.size(); }
  std::size_t variableCount() const { return variables_.size(); }
  std::size_t portCount() const { return ports_.size(); }
  std::size_t transitionCount() const { return transitions_.size(); }
  const std::string& locationName(int i) const;
  const VarDecl& variable(int i) const;
  const PortDecl& port(int i) const;
  const Transition& transition(int i) const;
  int initialLocation() const { return initial_; }

  /// Index lookups; throw ModelError when the name is unknown.
  int locationIndex(const std::string& name) const;
  int variableIndex(const std::string& name) const;
  int portIndex(const std::string& name) const;
  /// Like the above but returning nullopt instead of throwing.
  std::optional<int> findLocation(const std::string& name) const;
  std::optional<int> findVariable(const std::string& name) const;
  std::optional<int> findPort(const std::string& name) const;

  /// Transitions leaving `location` labelled by `port`.
  const std::vector<int>& transitionsFrom(int location, int port) const;

  /// Bytecode form of transition `i`. All transitions are lowered on first
  /// use; `validate()` forces the build so that construction-time callers
  /// (System::validate, the engine constructors) finish it while still
  /// single-threaded and worker threads only ever read.
  const CompiledTransition& compiledTransition(int i) const;

  /// True when the lazily-built structures the engines read concurrently
  /// — the transitionsFrom index and, when compilation is enabled, the
  /// compiled transition programs — are built (see System::indicesWarm).
  bool indicesWarm() const;

 private:
  void rebuildIndexIfNeeded() const;
  void compileIfNeeded() const;

  std::string name_;
  std::vector<std::string> locations_;
  std::vector<VarDecl> variables_;
  std::vector<PortDecl> ports_;
  std::vector<Transition> transitions_;
  int initial_ = 0;

  // location -> (port+1) -> transition indices; slot 0 holds internal
  // transitions. Rebuilt lazily; cleared whenever a transition is added.
  mutable std::vector<std::vector<std::vector<int>>> bySource_;

  // Bytecode per transition; invalidated whenever a transition is added.
  // Types are shared across Systems (AtomicTypePtr), so the lazy build is
  // mutex-guarded and published through the atomic flag — concurrent
  // first-use from two threads is safe. (The atomic member makes the type
  // non-copyable; types are always held by shared_ptr.)
  mutable std::vector<CompiledTransition> compiled_;
  mutable std::atomic<bool> compiledBuilt_{false};
};

using AtomicTypePtr = std::shared_ptr<const AtomicType>;

/// Runtime state of one atomic component instance.
struct AtomicState {
  int location = 0;
  std::vector<Value> vars;

  friend bool operator==(const AtomicState&, const AtomicState&) = default;
};

/// Initial state of a component type (initial location, initial values).
AtomicState initialState(const AtomicType& type);

/// True iff transition `ti`'s guard holds in `state` (does not check the
/// location). Evaluates the compiled guard program unless compilation is
/// disabled (expr::compilationEnabled()).
bool guardHolds(const AtomicType& type, const AtomicState& state, int ti);

/// Interpreted variant for callers holding a Transition that may not
/// belong to `type`'s transition table (cold paths only).
bool guardHolds(const AtomicType& type, const AtomicState& state, const Transition& t);

/// Indices of enabled transitions from `state` labelled by `port`.
std::vector<int> enabledTransitions(const AtomicType& type, const AtomicState& state, int port);

/// Scratch-reuse overload: clears `out`, then appends the enabled
/// transition indices (engine-hot; a reused buffer keeps the per-scan
/// allocation out of the steady state).
void enabledTransitions(const AtomicType& type, const AtomicState& state, int port,
                        std::vector<int>& out);

/// True iff some transition labelled `port` is enabled in `state`.
bool portEnabled(const AtomicType& type, const AtomicState& state, int port);

/// Fires transition `ti` (assumed enabled): runs actions (one action-block
/// dispatch, or the interpreter when compilation is disabled), moves
/// location.
void fire(const AtomicType& type, AtomicState& state, int ti);

/// Interpreted variant (see the guardHolds overloads).
void fire(const AtomicType& type, AtomicState& state, const Transition& t);

/// Guard-then-fire as one operation: evaluates transition `ti`'s guard in
/// `state` and, when it holds, fires the transition; returns whether it
/// fired. On the compiled path this is a *single* dispatch of the fused
/// guard+action program (shared subexpressions computed once); the
/// interpreter runs guard and actions separately, bit-identically.
/// `state.location` must be the transition's source location.
bool tryFire(const AtomicType& type, AtomicState& state, int ti);

/// Runs enabled internal (tau) transitions to quiescence, choosing the
/// lowest-index enabled one each step (guards after the first enabled
/// transition of a step are not evaluated — each candidate is one tryFire
/// dispatch, identical across all evaluation paths). Throws EvalError if
/// more than `maxSteps` internal steps occur (divergence guard).
void runInternal(const AtomicType& type, AtomicState& state, int maxSteps = 10'000);

}  // namespace cbip
