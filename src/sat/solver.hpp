// A small CDCL SAT solver.
//
// D-Finder's deadlock check reduces to the unsatisfiability of
// CI ∧ II ∧ DIS (component invariants, interaction invariants, deadlock
// states — monograph Section 5.6). The original tool delegates to
// Yices/BDD packages; this repository builds the substrate from scratch:
// a conflict-driven clause-learning solver with watched literals,
// first-UIP conflict analysis, VSIDS-style activity, geometric restarts
// (a budget of 256 conflicts, grown by half after each restart) and
// incremental solving: clauses persist across solve() calls, which is how
// the D-Finder refinement loop keeps one solver alive across rounds.
// solve() also takes assumptions (literals forced for one call); nothing
// in the library uses them at present, but the API is kept and tested.
//
// Literals use the DIMACS convention: nonzero ints, -v is the negation of
// variable v; variables are allocated with newVar() starting at 1.
#pragma once

#include <cstdint>
#include <vector>

namespace cbip::sat {

using Lit = int;

enum class Result { kSat, kUnsat };

class Solver {
 public:
  Solver();

  /// Allocates a fresh variable; returns its index (>= 1).
  int newVar();
  int variableCount() const { return static_cast<int>(assign_.size()) - 1; }
  /// Clauses currently attached (post-normalization; unit clauses are
  /// enqueued on the trail instead of stored). Per-worker telemetry for
  /// the parallel verification portfolio.
  std::size_t numClauses() const { return clauses_.size(); }
  /// Alias of variableCount() under the conventional SAT-API name.
  int numVars() const { return variableCount(); }

  /// Adds a clause (disjunction of literals). An empty clause makes the
  /// instance trivially unsatisfiable. Returns false if the solver is
  /// already in an unsatisfiable root state.
  bool addClause(std::vector<Lit> lits);

  /// Adds the unit clause {l}: exactly addClause({l}) without the
  /// normalization vector. Returns false if the solver is (or becomes)
  /// unsatisfiable at the root.
  bool addUnit(Lit l);

  /// Solves under the given assumptions (literals forced true for this
  /// call only). Clauses persist across calls (incremental use).
  Result solve(const std::vector<Lit>& assumptions = {});

  /// Model access after kSat: value of a variable in the found model.
  bool modelValue(int var) const;

  /// Statistics.
  std::uint64_t conflicts() const { return conflicts_; }
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t propagations() const { return propagations_; }
  std::uint64_t restarts() const { return restarts_; }

 private:
  static constexpr int kUndef = -1;

  struct Clause {
    std::vector<Lit> lits;
    bool learned = false;
  };

  static std::size_t watchIndex(Lit l) {
    const int v = l > 0 ? l : -l;
    return static_cast<std::size_t>(2 * v + (l < 0 ? 1 : 0));
  }

  // Current assignment of a literal: 1 true, 0 false, -1 unassigned.
  int litValue(Lit l) const;
  void enqueue(Lit l, int reasonClause);
  /// Unit propagation; returns conflicting clause index or kUndef.
  int propagate();
  void analyze(int conflictClause, std::vector<Lit>& learnt, int& backtrackLevel);
  void backtrack(int level);
  Lit pickBranchLit();
  void bumpVar(int var);
  void decayActivities();
  bool attachClause(int ci);

  // Decision order: the unassigned variable with the highest activity,
  // ties to the lower index. `order_` holds every variable sorted by that
  // key as of the last merge; every variable before `cursor_` is assigned
  // or bumped since the merge, so the first free unbumped variable at or
  // after the cursor is the best unbumped candidate. Bumped variables sit
  // in a small binary heap instead (assigned ones dropped lazily when
  // they surface; backtracking re-inserts what it unassigns), and a pick
  // takes the better of the two candidates. solve() merges the bumped
  // set back into `order_` once per call, so a solve without conflicts
  // costs one forward scan instead of a heap pop per variable.
  bool before(int a, int b) const;
  void mergeBumped();
  void bumpedInsert(int var);
  int bumpedPop();
  void bumpedSiftUp(std::size_t i);
  void bumpedSiftDown(std::size_t i);

  int decisionLevel() const { return static_cast<int>(trailLim_.size()); }

  std::vector<Clause> clauses_;
  std::vector<std::vector<int>> watches_;  // literal index -> clause indices
  std::vector<int8_t> assign_;             // var -> -1/0/1 (index 0 unused)
  std::vector<int> level_;                 // var -> decision level
  std::vector<int> reason_;                // var -> clause index or kUndef
  std::vector<double> activity_;           // var -> VSIDS activity
  std::vector<int> order_;                 // vars by activity at the last merge
  std::vector<std::size_t> orderPos_;      // var -> slot in order_
  std::size_t cursor_ = 0;                 // order_ prefix: assigned or bumped
  std::vector<int8_t> bumped_;             // var -> bumped since the last merge
  std::vector<int> bumpedVars_;            // the bumped set, in bump order
  std::vector<int> heap_;                  // heap of free bumped vars
  std::vector<int> heapPos_;               // var -> slot in heap_, or -1
  std::vector<int> mergeBuf_;              // scratch for mergeBumped()
  std::vector<Lit> learnt_;                // scratch for analyze()
  std::vector<int8_t> seen_;               // scratch for analyze()
  std::vector<Lit> trail_;
  std::vector<std::size_t> trailLim_;
  std::size_t qhead_ = 0;
  double varInc_ = 1.0;
  bool rootUnsat_ = false;
  std::vector<int8_t> model_;

  std::uint64_t conflicts_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t propagations_ = 0;
  std::uint64_t restarts_ = 0;
};

}  // namespace cbip::sat
