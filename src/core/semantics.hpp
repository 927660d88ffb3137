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

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>
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

/// Enabled interactions kept as per-position spans of one flat vector, in
/// ascending position order. It stores EnabledInteractionCache's set
/// (position = connector index) and a sharded engine worker's local set
/// (position = index in its shard's local-connector list).
///
/// `queue` marks a position for re-derivation; `splice` then re-derives
/// every queued position's span and rebuilds the vector in one move pass
/// into a reused buffer. Untouched spans move over as blocks, and the
/// offsets after the first queued position shift by the running length
/// change, so a splice costs O(size) moves however many spans change
/// length.
class EnabledSpans {
 public:
  /// `positions` empty spans.
  explicit EnabledSpans(std::size_t positions = 0)
      : offset_(positions, 0), count_(positions, 0), queued_(positions, 0) {}

  const std::vector<EnabledInteraction>& items() const { return flat_; }
  std::size_t offset(std::size_t pos) const { return static_cast<std::size_t>(offset_[pos]); }
  std::size_t count(std::size_t pos) const { return static_cast<std::size_t>(count_[pos]); }
  bool queued(std::size_t pos) const { return queued_[pos] != 0; }
  std::size_t queuedCount() const { return queue_.size(); }

  /// Queues `pos` for the next splice; queuing it again is a no-op.
  void queue(std::size_t pos) {
    if (queued_[pos] != 0) return;
    queued_[pos] = 1;
    queue_.push_back(static_cast<int>(pos));
  }

  /// Derives all `positions` spans from scratch: splices an empty set with
  /// every position queued. `build` is as for `splice`, with `reuse` empty.
  template <typename Build>
  void rebuild(std::size_t positions, Build&& build) {
    flat_.clear();
    offset_.assign(positions, 0);
    count_.assign(positions, 0);
    queued_.assign(positions, 1);
    queue_.resize(positions);
    std::iota(queue_.begin(), queue_.end(), 0);
    splice(build);
  }

  /// Re-derives the queued positions' spans and empties the queue.
  /// `build(pos, reuse, out)` appends position `pos`'s interactions to
  /// `out`, and may move the storage of `reuse`, the span's previous
  /// elements, into them. If `build` throws, the spans are unusable until
  /// the next rebuild.
  template <typename Build>
  void splice(Build&& build) {
    if (queue_.empty()) return;
    std::sort(queue_.begin(), queue_.end());
    spare_.clear();
    const auto moveOld = [&](int from, int to) {
      spare_.insert(spare_.end(), std::make_move_iterator(flat_.begin() + from),
                    std::make_move_iterator(flat_.begin() + to));
    };
    int copied = 0;  // flat_ elements before this index are in spare_
    int delta = 0;   // offset shift of the untouched positions passed so far
    auto next = static_cast<std::size_t>(queue_.front());
    for (const int q : queue_) {
      const auto pos = static_cast<std::size_t>(q);
      queued_[pos] = 0;
      if (delta != 0) {
        for (; next < pos; ++next) offset_[next] += delta;
      }
      const int oldOffset = offset_[pos];
      const int oldEnd = oldOffset + count_[pos];
      moveOld(copied, oldOffset);
      offset_[pos] = static_cast<int>(spare_.size());
      build(pos,
            std::span(flat_).subspan(static_cast<std::size_t>(oldOffset),
                                     static_cast<std::size_t>(count_[pos])),
            spare_);
      count_[pos] = static_cast<int>(spare_.size()) - offset_[pos];
      delta = static_cast<int>(spare_.size()) - oldEnd;
      copied = oldEnd;
      next = pos + 1;
    }
    if (delta != 0) {
      for (; next < offset_.size(); ++next) offset_[next] += delta;
    }
    moveOld(copied, static_cast<int>(flat_.size()));
    flat_.swap(spare_);
    queue_.clear();
  }

  /// Moves the vector out; the spans are unusable until the next rebuild.
  std::vector<EnabledInteraction> release() { return std::move(flat_); }

 private:
  std::vector<EnabledInteraction> flat_;
  std::vector<EnabledInteraction> spare_;  // splice target, swapped with flat_
  std::vector<int> offset_;                // per position: start of its span
  std::vector<int> count_;                 // per position: span length
  std::vector<char> queued_;               // per position: in queue_
  std::vector<int> queue_;                 // positions to re-derive
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
/// *Splice.* `enabled()` is one EnabledSpans vector with a span per
/// connector, and an update re-derives its connectors in one splice, so a
/// step costs O(enabled) moves no matter how many spans change length.
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
  /// holds whichever choice was fired. `executed` may be an element of
  /// `enabled()`: it is read only before the set changes.
  void updateAfterExecute(const GlobalState& state, const EnabledInteraction& executed);

  /// Current enabled set, connector-ascending — element-wise equal to
  /// `enabledInteractions(system, state)` for the last reset/update state.
  const std::vector<EnabledInteraction>& enabled() const { return spans_.items(); }

  bool empty() const { return spans_.items().empty(); }

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
  std::vector<int> dirtyScratch_;  // updateAfterExecute buffer
  EnabledSpans spans_;             // the enabled set, one span per connector
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

/// Display label of connector `connector` firing under `mask`: the
/// connector name, then "inst.port" for each selected end in end order,
/// e.g. "eat{p0.eat, f0.use}".
std::string interactionLabel(const System& system, int connector, InteractionMask mask);
std::string interactionLabel(const System& system, const EnabledInteraction& interaction);

/// True iff no interaction is enabled (global deadlock; internal steps are
/// run to quiescence by `execute`, so tau-availability does not count).
bool isDeadlocked(const System& system, const GlobalState& state);

}  // namespace cbip
