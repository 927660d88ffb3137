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

#include <bit>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <utility>
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

  /// Member-wise: the vectors trade buffers, nothing is allocated.
  friend void swap(EnabledInteraction& a, EnabledInteraction& b) noexcept {
    std::swap(a.connector, b.connector);
    std::swap(a.mask, b.mask);
    a.choices.swap(b.choices);
    a.ends.swap(b.ends);
  }
};

/// Overwrites every field of `ei` with connector `connector` firing under
/// `mask`: the mask's ends ascending, each with `offer(e)`, the enabled
/// transitions of end `e`. `ei` may be a recycled element; its vectors
/// keep their capacity, so a refill of the same arity allocates only when
/// an offer outgrows it.
template <typename Offer>
void fillInteraction(EnabledInteraction& ei, int connector, InteractionMask mask, Offer&& offer) {
  ei.connector = connector;
  ei.mask = mask;
  ei.ends.clear();
  ei.choices.resize(static_cast<std::size_t>(std::popcount(mask)));
  std::size_t k = 0;
  for (InteractionMask rest = mask; rest != 0; rest &= rest - 1) {
    const int e = std::countr_zero(rest);
    ei.ends.push_back(e);
    const std::vector<int>& transitions = offer(static_cast<std::size_t>(e));
    ei.choices[k++].assign(transitions.begin(), transitions.end());
  }
}

/// Enabled interactions kept as per-position spans of one flat vector, in
/// ascending position order. It stores EnabledInteractionCache's set, one
/// position per covered connector.
///
/// `queue` marks a position for re-derivation; `splice` then re-derives
/// every queued position's span in place, in three passes:
/// - *Stage.* The builder fills each queued span, back to back, into
///   recycled elements (shells) handed out by `Shells::next`.
/// - *Relocate.* Elements before the first queued position are never
///   touched. Each untouched run after it moves by the running length
///   change of the spans queued before it, by swaps inside the vector,
///   and only when that change is non-zero: runs shifting left in
///   ascending order, then runs shifting right in descending order.
/// - *Fill.* The staged spans are swapped into their holes, and the
///   elements swapped out become free shells. When the set shrinks, the
///   leftover tail joins them; growth draws from them first.
///
/// A splice therefore costs the queued spans' builds plus one swap per
/// element of the runs that shift, at most O(size). Shells keep their
/// vectors' capacity, so once the set and its interactions have reached
/// their largest sizes a splice allocates nothing.
class EnabledSpans {
 public:
  /// The builder's element source: `next()` appends one element to the
  /// span being built and returns it. The element is a recycled shell
  /// with stale fields (see fillInteraction), so the builder must
  /// overwrite every field. The reference is valid until the next call.
  class Shells {
   public:
    EnabledInteraction& next() {
      std::vector<EnabledInteraction>& stage = spans_->stage_;
      if (spans_->staged_ == stage.size()) stage.emplace_back();
      return stage[spans_->staged_++];
    }

   private:
    friend class EnabledSpans;
    explicit Shells(EnabledSpans& spans) : spans_(&spans) {}
    EnabledSpans* spans_;
  };

  /// `positions` empty spans.
  explicit EnabledSpans(std::size_t positions = 0)
      : offset_(positions, 0), count_(positions, 0), queued_(words(positions), 0) {}

  const std::vector<EnabledInteraction>& items() const { return flat_; }
  std::span<const EnabledInteraction> span(std::size_t pos) const {
    return std::span(flat_).subspan(offset(pos), count(pos));
  }
  std::size_t offset(std::size_t pos) const { return static_cast<std::size_t>(offset_[pos]); }
  std::size_t count(std::size_t pos) const { return static_cast<std::size_t>(count_[pos]); }
  bool queued(std::size_t pos) const { return ((queued_[pos / 64] >> (pos % 64)) & 1) != 0; }
  std::size_t queuedCount() const { return queuedCount_; }
  /// Shells held for later growth, outside items().
  std::size_t freeShells() const { return stage_.size(); }

  /// Queues `pos` for the next splice; queuing it again is a no-op.
  void queue(std::size_t pos) {
    std::uint64_t& word = queued_[pos / 64];
    const std::uint64_t bit = std::uint64_t{1} << (pos % 64);
    if ((word & bit) != 0) return;
    word |= bit;
    ++queuedCount_;
  }

  /// Derives all `positions` spans from scratch, in position order, into
  /// shells recycled from the current elements. `build` is as for
  /// `splice`.
  template <typename Build>
  void rebuild(std::size_t positions, Build&& build) {
    stage_.insert(stage_.end(), std::make_move_iterator(flat_.begin()),
                  std::make_move_iterator(flat_.end()));
    flat_.clear();
    offset_.assign(positions, 0);
    count_.assign(positions, 0);
    queued_.assign(words(positions), 0);
    queuedCount_ = 0;
    staged_ = 0;
    Shells shells(*this);
    for (std::size_t pos = 0; pos < positions; ++pos) {
      offset_[pos] = static_cast<int>(staged_);
      build(pos, shells);
      count_[pos] = static_cast<int>(staged_) - offset_[pos];
    }
    // The staged spans are the set; the shells left over stay free.
    flat_.swap(stage_);
    const auto end = static_cast<std::ptrdiff_t>(staged_);
    stage_.insert(stage_.end(), std::make_move_iterator(flat_.begin() + end),
                  std::make_move_iterator(flat_.end()));
    flat_.erase(flat_.begin() + end, flat_.end());
  }

  /// Re-derives the queued positions' spans and empties the queue.
  /// `build(pos, shells)` fills position `pos`'s interactions, in order,
  /// into the elements `shells.next()` returns. If `build` throws, the
  /// spans are unusable until the next rebuild.
  template <typename Build>
  void splice(Build&& build) {
    if (queuedCount_ == 0) return;
    // The queued positions, ascending, read off the marks word by word.
    queue_.clear();
    for (std::size_t w = 0; queue_.size() < queuedCount_; ++w) {
      for (std::uint64_t bits = std::exchange(queued_[w], 0); bits != 0; bits &= bits - 1) {
        queue_.push_back(static_cast<int>(w * 64) + std::countr_zero(bits));
      }
    }
    queuedCount_ = 0;
    // Stage each queued span, then fix its offset and count and note the
    // untouched run after it: [its old end, the next queued position's
    // old offset), shifted by the length change so far.
    staged_ = 0;
    runs_.resize(queue_.size());
    Shells shells(*this);
    int delta = 0;
    for (std::size_t k = 0; k < queue_.size(); ++k) {
      const auto pos = static_cast<std::size_t>(queue_[k]);
      const std::size_t before = staged_;
      build(pos, shells);
      const int built = static_cast<int>(staged_ - before);
      const bool last = k + 1 == queue_.size();
      const std::size_t stop = last ? offset_.size() : static_cast<std::size_t>(queue_[k + 1]);
      Run& run = runs_[k];
      run.begin = offset_[pos] + count_[pos];
      run.end = last ? static_cast<int>(flat_.size()) : offset_[stop];
      offset_[pos] += delta;
      delta += built - count_[pos];
      count_[pos] = built;
      run.shift = delta;
      if (delta != 0) {
        for (std::size_t p = pos + 1; p < stop; ++p) offset_[p] += delta;
      }
    }
    // Growth takes free shells first.
    const auto size = static_cast<std::size_t>(static_cast<int>(flat_.size()) + delta);
    while (flat_.size() < size) {
      if (stage_.size() > staged_) {
        flat_.push_back(std::move(stage_.back()));
        stage_.pop_back();
      } else {
        flat_.emplace_back();
      }
    }
    // Left shifts ascending, then right shifts descending: no run is
    // swapped onto one that has not moved yet.
    for (const Run& run : runs_) {
      if (run.shift >= 0) continue;
      for (int i = run.begin; i < run.end; ++i) swap(flat_[at(i + run.shift)], flat_[at(i)]);
    }
    for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
      if (it->shift <= 0) continue;
      for (int i = it->end - 1; i >= it->begin; --i) swap(flat_[at(i + it->shift)], flat_[at(i)]);
    }
    // The elements the staged spans displace from their holes are free.
    std::size_t from = 0;
    for (const int q : queue_) {
      const auto pos = static_cast<std::size_t>(q);
      for (std::size_t i = offset(pos); i < offset(pos) + count(pos); ++i) {
        swap(flat_[i], stage_[from++]);
      }
    }
    while (flat_.size() > size) {
      stage_.push_back(std::move(flat_.back()));
      flat_.pop_back();
    }
  }

  /// Moves the vector out; the spans are unusable until the next rebuild.
  std::vector<EnabledInteraction> release() { return std::move(flat_); }

 private:
  /// An untouched run of elements [begin, end) and its shift.
  struct Run {
    int begin = 0;
    int end = 0;
    int shift = 0;
  };
  static std::size_t at(int i) { return static_cast<std::size_t>(i); }
  static std::size_t words(std::size_t positions) { return (positions + 63) / 64; }

  std::vector<EnabledInteraction> flat_;
  std::vector<EnabledInteraction> stage_;  // staged spans, then free shells
  std::size_t staged_ = 0;                 // stage_ elements handed out
  std::vector<int> offset_;                // per position: start of its span
  std::vector<int> count_;                 // per position: span length
  std::vector<std::uint64_t> queued_;      // bit per position: queued
  std::size_t queuedCount_ = 0;            // set bits in queued_
  std::vector<int> queue_;                 // splice scratch: queued positions, ascending
  std::vector<Run> runs_;                  // splice scratch, parallel to queue_
};

/// All enabled interactions of `system` in `state` (before priorities):
/// the enabled set of a freshly reset EnabledInteractionCache, so guards
/// are evaluated in the cache's documented order.
std::vector<EnabledInteraction> enabledInteractions(const System& system,
                                                    const GlobalState& state);

/// Incrementally maintained enabled-interaction set, built from component
/// offers the way the BIP engine combines them.
///
/// *Coverage.* A cache covers either every connector of the system or an
/// ascending subset of them; span i of `enabled()` holds the i-th covered
/// connector's interactions. Only the instances at some end of a covered
/// connector have offers; a dirty instance on no covered connector is
/// dropped before any guard runs, so a subset cache never reads or
/// evaluates anything of an instance outside its connectors. The sharded
/// engine's workers rely on this: each keeps one cache over its shard's
/// local connectors and one over the cross connectors it owns.
///
/// *Offers.* For every port that some covered connector uses, the cache
/// keeps the port's guard-true transitions from the component's current
/// location; the component *offers* the port iff that list is non-empty. A
/// port on no covered connector is never evaluated. The offers of an
/// instance are refreshed once per update in which it is dirty, however
/// many connectors it sits on.
///
/// *Skip.* A connector's enabledness depends only on the components at
/// its ends (guards and up/down expressions are validated to reference end
/// scopes exclusively), so an update re-derives only the connectors of
/// dirty instances (`System::connectorsOf`, restricted to the covered
/// ones). Each one first ANDs its ends' offers into an offered-ends mask;
/// when no feasible mask lies inside it, the connector's span is emptied
/// with no guard run. Otherwise its interactions are built from the offer
/// lists, and the connector guard is evaluated once, lazily, at the first
/// feasible mask whose ends are all offered. The `cache.recomputes` counter counts only such built
/// connectors.
///
/// *Splice.* `enabled()` is one EnabledSpans vector with a span per
/// covered connector, and an update re-derives its connectors in one
/// in-place splice into recycled elements. The enabled interactions before
/// the first re-derived connector stay where they are, the ones after it
/// are swapped along only when the spans before them changed length, and a
/// steady-state update allocates nothing.
///
/// *Guard evaluation order* (and so which `EvalError` a doomed update
/// raises, identical under the compiled programs and the interpreter):
/// first the transition guards, port-major — for each port index p
/// ascending, each covered dirty instance (in the order given, first
/// occurrence only) whose port p is on a covered connector, that port's
/// transitions from the current location in transition order; then the
/// connector guards of the re-derived connectors in ascending index, each
/// where the skip rule above first needs it. `reset` is an update with
/// every covered instance dirty, in ascending order. The order is part of
/// the observable semantics, since it decides which `EvalError` a doomed
/// update raises first. Each guard runs in place on its instance's
/// variables through `guardHolds` (the compiled program, or the
/// interpreter), so both paths walk the same sequence and raise the same
/// first error.
///
/// After `reset` or `update` raises, the cache holds no usable set until
/// the next `reset`.
///
/// `enabled()` is ordering-identical to a connector-by-connector scan —
/// the engines' scheduling decisions (and hence traces) do not depend on
/// the cache.
class EnabledInteractionCache {
 public:
  /// Covers every connector: span i is connector i. The system must
  /// outlive the cache; its connectors must not change while the cache is
  /// live.
  explicit EnabledInteractionCache(const System& system);

  /// Covers only `connectors`, which must be ascending connector indices:
  /// span i is connector `connectors[i]`.
  EnabledInteractionCache(const System& system, std::vector<int> connectors);

  /// Refreshes every covered instance's offers and re-derives every
  /// covered connector.
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
  /// `enabledInteractions(system, state)`, filtered to the covered
  /// connectors, for the last reset/update state.
  const std::vector<EnabledInteraction>& enabled() const { return spans_.items(); }

  /// The enabled interactions of the i-th covered connector.
  std::span<const EnabledInteraction> span(std::size_t i) const { return spans_.span(i); }

  /// The connector subset given at construction; empty for a cache that
  /// covers every connector.
  const std::vector<int>& connectors() const { return connectors_; }

  bool empty() const { return spans_.items().empty(); }

 private:
  friend std::vector<EnabledInteraction> enabledInteractions(const System&,
                                                             const GlobalState&);

  EnabledInteractionCache(const System& system, std::vector<int> connectors, bool subset);

  /// Connector index of position `pos`.
  int connectorAt(std::size_t pos) const {
    return subset_ ? connectors_[pos] : static_cast<int>(pos);
  }
  /// Position of connector `ci`, or -1 when it is not covered.
  int positionOf(int ci) const {
    return subset_ ? position_[static_cast<std::size_t>(ci)] : ci;
  }
  /// Re-evaluates the connected ports' transition guards of the
  /// `refresh_` instances, in the guard evaluation order.
  void refreshOffers(const GlobalState& state);
  /// Ends of position `pos`'s connector whose port the component offers.
  InteractionMask offeredEnds(std::size_t pos) const;
  /// True iff some feasible mask of position `pos` has every end offered.
  bool portFeasible(std::size_t pos) const;
  /// Fills position `pos`'s interactions into shells from `shells`.
  void buildConnector(std::size_t pos, const GlobalState& state, EnabledSpans::Shells& shells);
  bool stationary(const Connector& c, int end, const std::vector<int>& choices) const;

  const System* system_;
  bool subset_;
  std::vector<int> connectors_;           // subset: per position, its connector
  std::vector<int> position_;             // subset: per connector, its position or -1
  std::vector<int> covered_;              // subset: covered instances, ascending
  std::vector<int> portBase_;             // per instance: first offer slot; -1 = not covered
  std::vector<char> connected_;           // per slot: the port is on a covered connector
  std::vector<char> offered_;             // per slot: some transition is guard-true
  std::vector<std::vector<int>> offers_;  // per slot: guard-true transitions
  std::vector<int> endBegin_;             // per position: first entry in endSlot_
  std::vector<int> endSlot_;              // per connector end: its offer slot
  std::vector<int> maskBegin_;            // per position: first entry in masks_
  std::vector<InteractionMask> masks_;    // feasible masks, per position ascending
  std::vector<char> instanceSeen_;        // scratch: dedup within one update
  std::vector<int> refresh_;       // scratch: the instances whose offers to refresh
  std::vector<int> dirtyScratch_;  // updateAfterExecute buffer
  EnabledSpans spans_;             // the enabled set, one span per position
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
