// Compositional invariant generation, following the D-Finder method
// (monograph Section 5.6, [4]).
//
// Two invariant families are computed:
//
//  * Component invariants (CI) — per atomic component, an
//    over-approximation of its reachable states computed *in isolation*
//    (every port transition may fire at any time). Data is handled by
//    cone-of-influence reduction: only variables that (transitively) feed
//    transition guards are tracked; if the reduced exploration still
//    exceeds its budget the component falls back to a location-only
//    invariant — always sound, possibly less precise.
//
//  * Interaction invariants (II) — global constraints induced by the glue,
//    computed as the initially-marked traps of the "interaction Petri
//    net" whose places are (instance, location) pairs and whose
//    transitions are the interactions. A trap S yields the invariant
//    "some place of S stays occupied". Traps are enumerated with the CDCL
//    SAT solver (one clause per pre-place per net transition), minimized
//    greedily, and blocked one by one.
#pragma once

#include <cstdint>
#include <vector>

#include "core/system.hpp"
#include "sat/solver.hpp"

namespace cbip::verify {

/// Reachable-state over-approximation of one component.
struct ComponentInvariant {
  /// Locations that can be reached (in isolation).
  std::vector<bool> reachableLocations;
  /// For every transition of the type: can its guard be true in some
  /// reachable state with matching location? (conservatively true when
  /// the data exploration fell back).
  std::vector<bool> guardFeasible;
  /// Per location: the inclusion-minimal sets of ports (sorted port
  /// indices) the component offers while resting there. A component rests
  /// in a state where no tau passes its guard (the engine settles taus),
  /// and offers a port when some transition on it passes its guard. Every
  /// resting state offers a superset of one of these sets, so a deadlock
  /// check may assume no more. An empty list: the component never rests
  /// there. The location-only fallback keeps one set, the ports of the
  /// location's always-true transitions, or none when an always-true tau
  /// leaves it.
  std::vector<std::vector<std::vector<int>>> restingOffers;
  /// True when data exploration completed within budget (invariant is
  /// location+data based); false = location-only fallback.
  bool dataExact = false;
  /// Number of abstract states explored.
  std::uint64_t statesExplored = 0;
};

struct ComponentInvariantOptions {
  std::uint64_t maxStates = 20'000;
};

/// Computes the component invariant of instance `instance` of `system`.
ComponentInvariant componentInvariant(const AtomicType& type,
                                      const ComponentInvariantOptions& options = {});

/// A place of the interaction Petri net: (instance, location).
struct Place {
  int instance = 0;
  int location = 0;
  friend bool operator==(const Place&, const Place&) = default;
  friend auto operator<=>(const Place&, const Place&) = default;
};

/// One net transition: an interaction (or internal step) moving tokens.
struct NetTransition {
  std::vector<Place> pre;
  std::vector<Place> post;
};

/// The interaction Petri net of a system (used for trap computation).
struct InteractionNet {
  std::vector<NetTransition> transitions;
  /// Initially marked places (the components' initial locations).
  std::vector<Place> initial;
};

/// Builds the interaction net. `guardFeasible` (per instance) prunes
/// transitions whose guards the component invariants prove unreachable.
InteractionNet buildInteractionNet(const System& system,
                                   const std::vector<ComponentInvariant>& componentInvariants);

/// The net transitions contributed by connector `ci` alone (its feasible
/// masks × the cartesian product of feasible transitions per
/// participating end), in exactly the order buildInteractionNet emits
/// them. Incremental recertification caches these per-connector chunks
/// so a model edit rebuilds only the edited connector's slice of the net.
std::vector<NetTransition> connectorNetTransitions(
    const System& system, std::size_t ci,
    const std::vector<ComponentInvariant>& componentInvariants);

/// The internal (tau) net transitions of every instance, in
/// buildInteractionNet order. The tau chunk depends only on the component
/// invariants, never on connectors, so edits to the glue reuse it as-is.
std::vector<NetTransition> internalNetTransitions(
    const System& system, const std::vector<ComponentInvariant>& componentInvariants);

struct TrapOptions {
  /// Maximum number of traps to enumerate.
  std::size_t maxTraps = 64;
};

/// Enumerates initially-marked traps (each minimized greedily). Every
/// returned trap yields the invariant "at least one of these places is
/// occupied in every reachable state".
std::vector<std::vector<Place>> enumerateTraps(const System& system, const InteractionNet& net,
                                               const TrapOptions& options = {});

/// Direct check that `trap` is a trap of `net` (used by incremental
/// verification to test invariant preservation, and by tests).
bool isTrap(const InteractionNet& net, const std::vector<Place>& trap);

/// True iff some place of `trap` is initially marked.
bool initiallyMarked(const InteractionNet& net, const std::vector<Place>& trap);

}  // namespace cbip::verify
