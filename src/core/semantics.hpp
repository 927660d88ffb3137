// Operational semantics of composite components (the engine kernel and the
// verifier both call these functions — single semantic host, Section 5.4).
//
// An *enabled interaction* is a connector, a feasible mask of its ends such
// that every selected end's port is enabled in the current state, no
// non-selected end of an all-synchron connector is required (masks are
// feasible by construction), and the connector guard holds. For each
// participating end the component may have several enabled transitions;
// `choices` records all of them so that schedulers / the verifier can
// resolve the nondeterminism explicitly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/system.hpp"

namespace cbip {

struct EnabledInteraction {
  int connector = 0;
  InteractionMask mask = 0;
  /// Position i holds the enabled transition indices of the component
  /// attached to the i-th *participating* end (ends listed in mask order).
  std::vector<std::vector<int>> choices;
  /// Participating end positions, ascending (parallel to `choices`).
  std::vector<int> ends;

  friend bool operator==(const EnabledInteraction&, const EnabledInteraction&) = default;
};

/// All enabled interactions of `system` in `state` (before priorities):
/// the enabled set of a freshly reset EnabledInteractionCache, so guards
/// are evaluated in the cache's documented order.
std::vector<EnabledInteraction> enabledInteractions(const System& system,
                                                    const GlobalState& state);

/// Incrementally maintained enabled-interaction set, built from component
/// offers the way the BIP engine combines them.
///
/// *Offers.* For every port that some connector uses, the cache keeps the
/// port's guard-true transitions from the component's current location;
/// the component *offers* the port iff that list is non-empty. A port on
/// no connector is never evaluated. The offers of an instance are
/// refreshed once per update in which it is dirty, however many
/// connectors it sits on.
///
/// *Skip.* A connector's enabledness depends only on the components at
/// its ends (guards and up/down expressions are validated to reference end
/// scopes exclusively), so an update re-derives only the connectors of
/// dirty instances (`System::connectorsOf`). Each one first ANDs its ends'
/// offers into an offered-ends mask; when no feasible mask lies inside it,
/// the connector's span is emptied with no guard run. Otherwise its
/// interactions are built from the offer lists, and the connector guard is
/// evaluated once, lazily, at the first feasible mask whose ends are all
/// offered. The `cache.recomputes` counter counts only such built
/// connectors.
///
/// *Splice.* `enabled()` is one flat vector with per-connector (offset,
/// count) spans. An update sorts its connectors and rebuilds the vector in
/// one move pass into a reused buffer, with the offsets fixed once from
/// the first re-derived connector on, so a step costs O(enabled) moves no
/// matter how many spans change length.
///
/// *Guard evaluation order* (and so which `EvalError` a doomed update
/// raises, identical under the compiled programs and the interpreter):
/// first the transition guards, port-major — for each port index p
/// ascending, each dirty instance (in the order given, first occurrence
/// only) whose port p is on a connector, that port's transitions from the
/// current location in transition order; then the connector guards of
/// the re-derived connectors in ascending index, each where the skip rule
/// above first needs it. `reset` is an update with every instance dirty,
/// in ascending order. Port-major order puts the same guard of sibling
/// instances side by side, so the compiled batch can run them as one
/// block.
///
/// After `reset` or `update` raises, the cache holds no usable set until
/// the next `reset`.
///
/// `enabled()` is ordering-identical to a connector-by-connector scan —
/// the engines' scheduling decisions (and hence traces) do not depend on
/// the cache.
class EnabledInteractionCache {
 public:
  /// The system must outlive the cache; its connectors must not change
  /// while the cache is live.
  explicit EnabledInteractionCache(const System& system);

  /// Refreshes every instance's offers and re-derives every connector.
  void reset(const GlobalState& state);

  /// Refreshes the offers of `dirtyInstances` (duplicates allowed, any
  /// superset of the changed instances) and re-derives their connectors.
  /// `state` must be the current global state.
  void update(const GlobalState& state, std::span<const int> dirtyInstances);

  /// Updates after `execute(system, state, executed, choice)` for any
  /// choice. Only participating ends can change (downs write participating
  /// ends only), and a participant is skipped when its step provably
  /// leaves its state alone: every transition in its `choices` entry is an
  /// action-free self-loop, no down assignment targets its end, and its
  /// location has no tau transition. These facts are static, so the skip
  /// holds whichever choice was fired.
  void updateAfterExecute(const GlobalState& state, const EnabledInteraction& executed);

  /// Current enabled set, connector-ascending — element-wise equal to
  /// `enabledInteractions(system, state)` for the last reset/update state.
  const std::vector<EnabledInteraction>& enabled() const { return flat_; }

  bool empty() const { return flat_.empty(); }

 private:
  friend std::vector<EnabledInteraction> enabledInteractions(const System&,
                                                             const GlobalState&);

  /// Re-evaluates the connected ports' transition guards of the
  /// `refresh_` instances in one batch.
  void refreshOffers(const GlobalState& state);
  /// Ends of connector `ci` whose port the component currently offers.
  InteractionMask offeredEnds(std::size_t ci) const;
  /// True iff some feasible mask of connector `ci` has every end offered.
  bool portFeasible(std::size_t ci) const;
  /// Appends connector `ci`'s interactions to `out`, reusing the storage
  /// of the `reuse` elements (its previous span) where it can.
  void buildConnector(std::size_t ci, const GlobalState& state,
                      std::span<EnabledInteraction> reuse, std::vector<EnabledInteraction>& out);
  /// Rebuilds `flat_` with the spans of the (ascending) `queued_`
  /// connectors re-derived.
  void splice(const GlobalState& state);
  bool stationary(const Connector& c, int end, const std::vector<int>& choices) const;

  const System* system_;
  std::vector<int> portBase_;             // per instance: first offer slot
  std::vector<char> connected_;           // per slot: the port is on a connector
  std::vector<char> offered_;             // per slot: some transition is guard-true
  std::vector<std::vector<int>> offers_;  // per slot: guard-true transitions
  std::vector<int> endBegin_;             // per connector: first entry in endSlot_
  std::vector<int> endSlot_;              // per connector end: its offer slot
  std::vector<int> maskBegin_;            // per connector: first entry in masks_
  std::vector<InteractionMask> masks_;    // feasible masks, per connector ascending
  std::vector<int> flatOffset_;           // per connector: start of its span in flat_
  std::vector<int> flatCount_;            // per connector: span length
  std::vector<char> connectorQueued_;     // scratch: dedup within one update
  std::vector<char> instanceSeen_;        // scratch: dedup within one update
  // Offer-refresh scratch: the instances to refresh, each one's block in
  // the gathered guard frame, and one entry per candidate transition.
  struct Pending {
    int slot = 0;
    int transition = 0;
    int op = -1;  // index into ops_/results_; -1 for a trivially true guard
  };
  std::vector<int> refresh_;
  std::vector<int> refreshBase_;
  std::vector<Pending> pending_;
  std::vector<expr::BatchOp> ops_;
  std::vector<Value> results_;
  std::vector<Value> frame_;
  std::vector<int> queued_;        // scratch: connectors to re-derive
  std::vector<int> dirtyScratch_;  // updateAfterExecute buffer
  std::vector<EnabledInteraction> flat_;
  std::vector<EnabledInteraction> spare_;  // splice target, swapped with flat_
};

/// Applies priority rules and (if enabled) maximal progress; keeps the
/// maximal elements. Never empties a non-empty set.
std::vector<EnabledInteraction> applyPriorities(const System& system, const GlobalState& state,
                                                std::vector<EnabledInteraction> enabled);

/// Executes `interaction` on `state`. `transitionChoice[i]` selects which
/// enabled transition the i-th participating component fires (index into
/// `interaction.choices[i]`). Runs the connector guard+up+down data
/// transfer, fires the transitions (one fused action-block dispatch per
/// participant — the guard was already established at scan time, on the
/// pre-transfer frame), then runs
/// internal (tau) steps of the involved components to quiescence (one
/// fused tryFire dispatch per candidate; see runInternal).
void execute(const System& system, GlobalState& state, const EnabledInteraction& interaction,
             std::span<const int> transitionChoice);

/// Runs only the connector up/down data transfer of `interaction` on
/// `state` (compiled programs unless expr::compilationEnabled() is off).
/// The multithreaded engine performs this step centrally on its snapshot
/// before dispatching transitions to component workers.
void connectorTransfer(const System& system, GlobalState& state,
                       const EnabledInteraction& interaction);

/// Executes with the first enabled transition for every participant.
void executeDefault(const System& system, GlobalState& state,
                    const EnabledInteraction& interaction);

/// Number of distinct transition-choice vectors of an enabled interaction.
std::size_t choiceCount(const EnabledInteraction& interaction);

/// Enumerates all successor states (all interactions x all transition
/// choices), with or without priority filtering.
std::vector<GlobalState> successors(const System& system, const GlobalState& state,
                                    bool withPriorities = true);

/// Display label of an enabled interaction, e.g. "eat{p0.eat, f0.use}".
std::string interactionLabel(const System& system, const EnabledInteraction& interaction);

/// True iff no interaction is enabled (global deadlock; internal steps are
/// run to quiescence by `execute`, so tau-availability does not count).
bool isDeadlocked(const System& system, const GlobalState& state);

}  // namespace cbip
