#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace cbip::sat {

namespace {
constexpr double kVarDecay = 0.95;
constexpr double kActivityLimit = 1e100;

// Telemetry (src/obs): per-solve deltas, flushed on every exit path.
const obs::Counter g_solves("sat.solves");
const obs::Counter g_conflicts("sat.conflicts");
const obs::Counter g_decisions("sat.decisions");
const obs::Counter g_propagations("sat.propagations");
const obs::Counter g_restarts("sat.restarts");

/// RAII flush of the counter deltas one solve() call accumulates; covers
/// every exit path, including throws.
class SolveScope {
 public:
  explicit SolveScope(const Solver& s)
      : s_(&s), c_(s.conflicts()), d_(s.decisions()), p_(s.propagations()),
        r_(s.restarts()) {}
  SolveScope(const SolveScope&) = delete;
  SolveScope& operator=(const SolveScope&) = delete;
  ~SolveScope() {
    g_solves.add();
    g_conflicts.add(s_->conflicts() - c_);
    g_decisions.add(s_->decisions() - d_);
    g_propagations.add(s_->propagations() - p_);
    g_restarts.add(s_->restarts() - r_);
  }

 private:
  const Solver* s_;
  std::uint64_t c_, d_, p_, r_;
};
}  // namespace

Solver::Solver() {
  assign_.push_back(-1);  // index 0 unused
  level_.push_back(0);
  reason_.push_back(kUndef);
  activity_.push_back(0.0);
  orderPos_.push_back(0);
  bumped_.push_back(0);
  heapPos_.push_back(-1);
  seen_.push_back(0);
  watches_.resize(2);
}

int Solver::newVar() {
  assign_.push_back(-1);
  level_.push_back(0);
  reason_.push_back(kUndef);
  activity_.push_back(0.0);
  bumped_.push_back(0);
  heapPos_.push_back(-1);
  seen_.push_back(0);
  watches_.resize(watches_.size() + 2);
  // Activity 0 and the highest index: last in the order.
  orderPos_.push_back(order_.size());
  order_.push_back(variableCount());
  return variableCount();
}

int Solver::litValue(Lit l) const {
  const int v = l > 0 ? l : -l;
  const int8_t a = assign_[static_cast<std::size_t>(v)];
  if (a == -1) return -1;
  return (l > 0) == (a == 1) ? 1 : 0;
}

bool Solver::addClause(std::vector<Lit> lits) {
  require(decisionLevel() == 0, "Solver::addClause: only at root level");
  if (rootUnsat_) return false;
  // Normalize: remove duplicates and false literals, detect tautologies.
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return std::abs(a) != std::abs(b) ? std::abs(a) < std::abs(b) : a < b; });
  std::vector<Lit> out;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const Lit l = lits[i];
    const int v = std::abs(l);
    require(v >= 1 && v <= variableCount(), "Solver::addClause: unknown variable");
    if (i + 1 < lits.size() && lits[i + 1] == -l) return true;  // tautology
    if (!out.empty() && out.back() == l) continue;              // duplicate
    if (litValue(l) == 1) return true;                          // already satisfied
    if (litValue(l) == 0) continue;                             // already false
    out.push_back(l);
  }
  if (out.empty()) {
    rootUnsat_ = true;
    return false;
  }
  if (out.size() == 1) return addUnit(out[0]);
  clauses_.push_back(Clause{std::move(out), false});
  attachClause(static_cast<int>(clauses_.size()) - 1);
  return true;
}

bool Solver::addUnit(Lit l) {
  require(decisionLevel() == 0, "Solver::addUnit: only at root level");
  if (rootUnsat_) return false;
  const int v = std::abs(l);
  require(v >= 1 && v <= variableCount(), "Solver::addUnit: unknown variable");
  const int value = litValue(l);
  if (value == 1) return true;
  if (value == 0) {
    rootUnsat_ = true;
    return false;
  }
  // Root-level propagation triggered by an incremental unit clause runs
  // *between* solve() calls, outside any SolveScope — flush its delta
  // here or the work (including the one discovering root-level UNSAT,
  // the early-UNSAT return below) never reaches the telemetry registry.
  const std::uint64_t before = propagations_;
  enqueue(l, kUndef);
  const bool conflict = propagate() != kUndef;
  g_propagations.add(propagations_ - before);
  if (conflict) {
    rootUnsat_ = true;
    return false;
  }
  return true;
}

bool Solver::attachClause(int ci) {
  Clause& c = clauses_[static_cast<std::size_t>(ci)];
  watches_[watchIndex(c.lits[0])].push_back(ci);
  watches_[watchIndex(c.lits[1])].push_back(ci);
  return true;
}

void Solver::enqueue(Lit l, int reasonClause) {
  const int v = std::abs(l);
  assign_[static_cast<std::size_t>(v)] = l > 0 ? 1 : 0;
  level_[static_cast<std::size_t>(v)] = decisionLevel();
  reason_[static_cast<std::size_t>(v)] = reasonClause;
  trail_.push_back(l);
}

int Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++propagations_;
    // Clauses watching ~p must be inspected.
    std::vector<int>& watchers = watches_[watchIndex(-p)];
    std::size_t keep = 0;
    for (std::size_t wi = 0; wi < watchers.size(); ++wi) {
      const int ci = watchers[wi];
      Clause& c = clauses_[static_cast<std::size_t>(ci)];
      // Ensure the false literal is at position 1.
      if (c.lits[0] == -p) std::swap(c.lits[0], c.lits[1]);
      if (litValue(c.lits[0]) == 1) {
        watchers[keep++] = ci;  // clause satisfied, keep watch
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (std::size_t k = 2; k < c.lits.size(); ++k) {
        if (litValue(c.lits[k]) != 0) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[watchIndex(c.lits[1])].push_back(ci);
          moved = true;
          break;
        }
      }
      if (moved) continue;  // watch moved; drop from this list
      // Clause is unit or conflicting.
      watchers[keep++] = ci;
      if (litValue(c.lits[0]) == 0) {
        // Conflict: restore remaining watchers and report.
        for (std::size_t k = wi + 1; k < watchers.size(); ++k) watchers[keep++] = watchers[k];
        watchers.resize(keep);
        qhead_ = trail_.size();
        return ci;
      }
      enqueue(c.lits[0], ci);
    }
    watchers.resize(keep);
  }
  return kUndef;
}

void Solver::bumpVar(int var) {
  const auto v = static_cast<std::size_t>(var);
  if (bumped_[v] == 0) {
    bumped_[v] = 1;
    bumpedVars_.push_back(var);
  }
  activity_[v] += varInc_;
  if (activity_[v] > kActivityLimit) {
    // Uniform rescale: activities keep their order (rounding can at worst
    // tie two, which changes a pick, never correctness), so order_ and
    // the heap stay usable.
    for (double& a : activity_) a *= 1e-100;
    varInc_ *= 1e-100;
  }
  // analyze() bumps only assigned variables: backtrack() inserts a freed
  // bumped variable into the heap, so only those still there need moving.
  if (heapPos_[v] >= 0) bumpedSiftUp(static_cast<std::size_t>(heapPos_[v]));
}

bool Solver::before(int a, int b) const {
  // Decides first: greater activity, ties to the lower index.
  const double aa = activity_[static_cast<std::size_t>(a)];
  const double ab = activity_[static_cast<std::size_t>(b)];
  return aa != ab ? aa > ab : a < b;
}

void Solver::mergeBumped() {
  if (bumpedVars_.empty()) return;
  std::sort(bumpedVars_.begin(), bumpedVars_.end(),
            [this](int a, int b) { return before(a, b); });
  // The unbumped variables keep their activities, so their order_
  // subsequence is still sorted: one linear merge restores the order.
  mergeBuf_.clear();
  auto next = bumpedVars_.begin();
  for (const int v : order_) {
    if (bumped_[static_cast<std::size_t>(v)] != 0) continue;
    while (next != bumpedVars_.end() && before(*next, v)) mergeBuf_.push_back(*next++);
    mergeBuf_.push_back(v);
  }
  mergeBuf_.insert(mergeBuf_.end(), next, bumpedVars_.end());
  order_.swap(mergeBuf_);
  for (std::size_t i = 0; i < order_.size(); ++i) {
    orderPos_[static_cast<std::size_t>(order_[i])] = i;
  }
  for (const int v : bumpedVars_) bumped_[static_cast<std::size_t>(v)] = 0;
  bumpedVars_.clear();
  for (const int v : heap_) heapPos_[static_cast<std::size_t>(v)] = -1;
  heap_.clear();
  cursor_ = 0;
}

void Solver::bumpedInsert(int var) {
  if (heapPos_[static_cast<std::size_t>(var)] >= 0) return;
  heapPos_[static_cast<std::size_t>(var)] = static_cast<int>(heap_.size());
  heap_.push_back(var);
  bumpedSiftUp(heap_.size() - 1);
}

int Solver::bumpedPop() {
  const int v = heap_[0];
  heapPos_[static_cast<std::size_t>(v)] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heapPos_[static_cast<std::size_t>(heap_[0])] = 0;
    bumpedSiftDown(0);
  }
  return v;
}

void Solver::bumpedSiftUp(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    heapPos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
    heapPos_[static_cast<std::size_t>(heap_[parent])] = static_cast<int>(parent);
    i = parent;
  }
}

void Solver::bumpedSiftDown(std::size_t i) {
  while (true) {
    const std::size_t left = 2 * i + 1;
    if (left >= heap_.size()) break;
    const std::size_t right = left + 1;
    std::size_t best = left;
    if (right < heap_.size() && before(heap_[right], heap_[left])) best = right;
    if (!before(heap_[best], heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    heapPos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
    heapPos_[static_cast<std::size_t>(heap_[best])] = static_cast<int>(best);
    i = best;
  }
}

void Solver::decayActivities() { varInc_ /= kVarDecay; }

void Solver::analyze(int conflictClause, std::vector<Lit>& learnt, int& backtrackLevel) {
  learnt.clear();
  learnt.push_back(0);  // placeholder for the asserting literal
  int counter = 0;
  Lit p = 0;
  int ci = conflictClause;
  std::size_t trailIndex = trail_.size();

  while (true) {
    const Clause& c = clauses_[static_cast<std::size_t>(ci)];
    const std::size_t start = (p == 0) ? 0 : 1;
    for (std::size_t k = start; k < c.lits.size(); ++k) {
      const Lit q = c.lits[k];
      const int v = std::abs(q);
      if (seen_[static_cast<std::size_t>(v)] != 0 || level_[static_cast<std::size_t>(v)] == 0) {
        continue;
      }
      seen_[static_cast<std::size_t>(v)] = 1;
      bumpVar(v);
      if (level_[static_cast<std::size_t>(v)] == decisionLevel()) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Walk the trail backwards to the next marked literal.
    while (true) {
      --trailIndex;
      p = trail_[trailIndex];
      if (seen_[static_cast<std::size_t>(std::abs(p))] != 0) break;
    }
    seen_[static_cast<std::size_t>(std::abs(p))] = 0;
    --counter;
    if (counter == 0) break;
    ci = reason_[static_cast<std::size_t>(std::abs(p))];
  }
  learnt[0] = -p;

  backtrackLevel = 0;
  if (learnt.size() > 1) {
    // Put a literal of the highest remaining level at position 1.
    std::size_t maxIdx = 1;
    for (std::size_t k = 2; k < learnt.size(); ++k) {
      if (level_[static_cast<std::size_t>(std::abs(learnt[k]))] >
          level_[static_cast<std::size_t>(std::abs(learnt[maxIdx]))]) {
        maxIdx = k;
      }
    }
    std::swap(learnt[1], learnt[maxIdx]);
    backtrackLevel = level_[static_cast<std::size_t>(std::abs(learnt[1]))];
  }
  for (const Lit l : learnt) seen_[static_cast<std::size_t>(std::abs(l))] = 0;
}

void Solver::backtrack(int targetLevel) {
  if (decisionLevel() <= targetLevel) return;
  const std::size_t bound = trailLim_[static_cast<std::size_t>(targetLevel)];
  for (std::size_t i = trail_.size(); i > bound; --i) {
    const int v = std::abs(trail_[i - 1]);
    assign_[static_cast<std::size_t>(v)] = -1;
    reason_[static_cast<std::size_t>(v)] = kUndef;
    if (bumped_[static_cast<std::size_t>(v)] != 0) {
      bumpedInsert(v);
    } else {
      cursor_ = std::min(cursor_, orderPos_[static_cast<std::size_t>(v)]);
    }
  }
  trail_.resize(bound);
  trailLim_.resize(static_cast<std::size_t>(targetLevel));
  qhead_ = trail_.size();
}

Lit Solver::pickBranchLit() {
  while (cursor_ < order_.size()) {
    const auto v = static_cast<std::size_t>(order_[cursor_]);
    if (assign_[v] == -1 && bumped_[v] == 0) break;
    ++cursor_;
  }
  // Bumped variables assigned since insertion: discard lazily.
  while (!heap_.empty() && assign_[static_cast<std::size_t>(heap_[0])] != -1) bumpedPop();
  int v = cursor_ < order_.size() ? order_[cursor_] : 0;
  if (!heap_.empty() && (v == 0 || before(heap_[0], v))) v = bumpedPop();
  return -v;  // negative polarity first (works well on our encodings)
}

Result Solver::solve(const std::vector<Lit>& assumptions) {
  const SolveScope scope(*this);
  if (rootUnsat_) return Result::kUnsat;
  backtrack(0);
  if (propagate() != kUndef) {
    rootUnsat_ = true;
    return Result::kUnsat;
  }
  mergeBumped();

  std::uint64_t conflictBudget = 256;
  std::uint64_t conflictsThisRestart = 0;

  while (true) {
    const int confl = propagate();
    if (confl != kUndef) {
      ++conflicts_;
      ++conflictsThisRestart;
      if (decisionLevel() <= static_cast<int>(assumptions.size())) {
        // Conflict under (or below) assumptions. Every level is opened
        // only after the one below has propagated without conflict, so a
        // conflict at the root refutes the clauses alone and the instance
        // stays UNSAT; above the root it rests on the assumptions.
        // (propagate() has already consumed the conflicting trail, so
        // re-propagating at the root cannot rediscover it.)
        if (decisionLevel() == 0) rootUnsat_ = true;
        backtrack(0);
        return Result::kUnsat;
      }
      int backLevel = 0;
      analyze(confl, learnt_, backLevel);
      backtrack(std::max(backLevel, static_cast<int>(assumptions.size())));
      if (learnt_.size() == 1) {
        if (litValue(learnt_[0]) == 0) {
          // Asserting literal contradicts the assumption prefix.
          backtrack(0);
          return Result::kUnsat;
        }
        if (litValue(learnt_[0]) == -1) enqueue(learnt_[0], kUndef);
      } else {
        clauses_.push_back(Clause{learnt_, true});
        const int ci = static_cast<int>(clauses_.size()) - 1;
        attachClause(ci);
        if (litValue(learnt_[0]) == -1) enqueue(learnt_[0], ci);
      }
      decayActivities();
      continue;
    }

    if (conflictsThisRestart >= conflictBudget &&
        decisionLevel() > static_cast<int>(assumptions.size())) {
      conflictsThisRestart = 0;
      conflictBudget += conflictBudget / 2;
      ++restarts_;
      backtrack(static_cast<int>(assumptions.size()));
      continue;
    }

    // Apply pending assumptions as decisions.
    if (decisionLevel() < static_cast<int>(assumptions.size())) {
      const Lit a = assumptions[static_cast<std::size_t>(decisionLevel())];
      require(std::abs(a) <= variableCount(), "solve: assumption on unknown variable");
      if (litValue(a) == 0) {
        // Conflicts with forced values. Backtrack like every other exit:
        // callers may addClause() right after an assumption-UNSAT.
        backtrack(0);
        return Result::kUnsat;
      }
      trailLim_.push_back(trail_.size());
      if (litValue(a) == -1) enqueue(a, kUndef);
      continue;
    }

    const Lit next = pickBranchLit();
    if (next == 0) {
      // Full assignment: record the model.
      model_ = assign_;
      backtrack(0);
      return Result::kSat;
    }
    ++decisions_;
    trailLim_.push_back(trail_.size());
    enqueue(next, kUndef);
  }
}

bool Solver::modelValue(int var) const {
  require(var >= 1 && static_cast<std::size_t>(var) < model_.size(),
          "modelValue: no model or unknown variable");
  return model_[static_cast<std::size_t>(var)] == 1;
}

}  // namespace cbip::sat
