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

/// All enabled interactions of `system` in `state` (before priorities).
std::vector<EnabledInteraction> enabledInteractions(const System& system,
                                                    const GlobalState& state);

/// Incrementally maintained enabled-interaction set.
///
/// A connector's enabledness depends only on the components attached to
/// its ends (guards and up/down expressions are validated to reference end
/// scopes exclusively), so after an interaction executes, only connectors
/// sharing an instance with the executed connector can change status. The
/// cache keeps a per-connector interaction list and, via the System's
/// component->connector reverse index (`System::connectorsOf`), re-derives
/// only the connectors touching instances dirtied by the last step. On a
/// system with n connectors of bounded degree this turns the per-step
/// enablement recomputation from O(n) connector scans into O(degree);
/// flattening the result in `enabled()` remains O(currently enabled
/// interactions), which is what bounds the end-to-end speedup.
///
/// `enabled()` is ordering-identical to `enabledInteractions()` — the
/// engines' scheduling decisions (and hence traces) are unchanged.
class EnabledInteractionCache {
 public:
  /// The system must outlive the cache; its connectors must not change
  /// while the cache is live.
  explicit EnabledInteractionCache(const System& system);

  /// Full recompute of every connector from `state`.
  void reset(const GlobalState& state);

  /// Re-derives only the connectors attached to `dirtyInstances`
  /// (duplicates allowed). `state` must be the current global state.
  void update(const GlobalState& state, std::span<const int> dirtyInstances);

  /// Marks every instance on the executed interaction's connector dirty
  /// and updates: `execute` only mutates participating components, which
  /// are a subset of that connector's ends.
  void updateAfterExecute(const GlobalState& state, const EnabledInteraction& executed);

  /// Current enabled set, connector-ascending — element-wise equal to
  /// `enabledInteractions(system, state)` for the last reset/update state.
  ///
  /// Maintained incrementally as one flat vector with per-connector
  /// (offset, count) spans: a dirty connector's recompute splices its new
  /// interactions into place by move, so a step touching d connectors
  /// costs O(d) list constructions plus element moves — the previous
  /// design re-deep-copied the *entire* enabled set into a flat list
  /// every step, which dominated the engine step at 128+ components.
  const std::vector<EnabledInteraction>& enabled() const { return flat_; }

  bool empty() const { return flat_.empty(); }

 private:
  void recomputeConnector(std::size_t ci, const GlobalState& state);

  const System* system_;
  std::vector<int> flatOffset_;        // per connector: start of its span in flat_
  std::vector<int> flatCount_;         // per connector: span length
  std::vector<char> connectorQueued_;  // scratch: dedup within one update
  std::vector<EnabledInteraction> flat_;
  std::vector<EnabledInteraction> scratch_;  // recompute buffer (capacity reused)
  std::vector<int> dirtyScratch_;            // updateAfterExecute buffer
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
