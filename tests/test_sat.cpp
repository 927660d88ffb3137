// Tests for the CDCL SAT solver, including a brute-force cross-check on
// random instances.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/obs.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace cbip::sat {
namespace {

TEST(Sat, TrivialSat) {
  Solver s;
  const int a = s.newVar();
  s.addClause({a});
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.modelValue(a));
}

TEST(Sat, TrivialUnsat) {
  Solver s;
  const int a = s.newVar();
  s.addClause({a});
  s.addClause({-a});
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Sat, EmptyClauseIsUnsat) {
  Solver s;
  s.newVar();
  EXPECT_FALSE(s.addClause({}));
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Sat, UnitPropagationChains) {
  Solver s;
  const int a = s.newVar(), b = s.newVar(), c = s.newVar(), d = s.newVar();
  s.addClause({a});
  s.addClause({-a, b});
  s.addClause({-b, c});
  s.addClause({-c, d});
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.modelValue(a));
  EXPECT_TRUE(s.modelValue(b));
  EXPECT_TRUE(s.modelValue(c));
  EXPECT_TRUE(s.modelValue(d));
}

TEST(Sat, TautologyAndDuplicatesHandled) {
  Solver s;
  const int a = s.newVar(), b = s.newVar();
  s.addClause({a, -a});        // tautology: ignored
  s.addClause({b, b, b});      // collapses to unit
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.modelValue(b));
}

TEST(Sat, ExactlyOneEncoding) {
  Solver s;
  std::vector<int> vars;
  for (int i = 0; i < 5; ++i) vars.push_back(s.newVar());
  std::vector<Lit> atLeast(vars.begin(), vars.end());
  s.addClause(atLeast);
  for (std::size_t i = 0; i < vars.size(); ++i) {
    for (std::size_t j = i + 1; j < vars.size(); ++j) s.addClause({-vars[i], -vars[j]});
  }
  ASSERT_EQ(s.solve(), Result::kSat);
  int trueCount = 0;
  for (int v : vars) trueCount += s.modelValue(v) ? 1 : 0;
  EXPECT_EQ(trueCount, 1);
}

TEST(Sat, PigeonholeUnsat) {
  // 4 pigeons into 3 holes: classic UNSAT requiring real conflict analysis.
  constexpr int kPigeons = 4, kHoles = 3;
  Solver s;
  int var[kPigeons][kHoles];
  for (auto& row : var) {
    for (int& v : row) v = s.newVar();
  }
  for (const auto& row : var) {
    std::vector<Lit> some(row, row + kHoles);
    s.addClause(some);
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int p1 = 0; p1 < kPigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < kPigeons; ++p2) s.addClause({-var[p1][h], -var[p2][h]});
    }
  }
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Sat, AssumptionsDoNotPersist) {
  Solver s;
  const int a = s.newVar(), b = s.newVar();
  s.addClause({a, b});
  EXPECT_EQ(s.solve({-a, -b}), Result::kUnsat);
  EXPECT_EQ(s.solve({-a}), Result::kSat);
  EXPECT_TRUE(s.modelValue(b));
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(Sat, IncrementalAddAfterSolve) {
  Solver s;
  const int a = s.newVar(), b = s.newVar();
  s.addClause({a, b});
  EXPECT_EQ(s.solve(), Result::kSat);
  s.addClause({-a});
  s.addClause({-b});
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Sat, SizeAccessorsTrackTheInstance) {
  Solver s;
  EXPECT_EQ(s.numVars(), 0);
  EXPECT_EQ(s.numClauses(), 0u);
  const int a = s.newVar(), b = s.newVar(), c = s.newVar();
  EXPECT_EQ(s.numVars(), 3);
  s.addClause({a, b});
  s.addClause({-a, c});
  EXPECT_EQ(s.numClauses(), 2u);
  s.addClause({a, -a});  // tautology: dropped, not stored
  EXPECT_EQ(s.numClauses(), 2u);
  s.addClause({b});  // unit: enqueued at root, not stored as a clause
  EXPECT_EQ(s.numClauses(), 2u);
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.numVars(), 3);
}

TEST(Sat, AddUnitMatchesUnitClause) {
  Solver s;
  const int a = s.newVar(), b = s.newVar(), c = s.newVar();
  s.addClause({-a, b});
  EXPECT_TRUE(s.addUnit(a));   // free: enqueued and propagated (b follows)
  EXPECT_TRUE(s.addUnit(b));   // already true: accepted, nothing to do
  EXPECT_TRUE(s.addUnit(-c));  // free, no consequences
  EXPECT_EQ(s.numClauses(), 1u);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.modelValue(a));
  EXPECT_TRUE(s.modelValue(b));
  EXPECT_FALSE(s.modelValue(c));
  EXPECT_FALSE(s.addUnit(-b));  // already false: the root is UNSAT
  EXPECT_FALSE(s.addUnit(c));   // and stays so
  EXPECT_EQ(s.solve(), Result::kUnsat);

  // A unit whose propagation conflicts makes the root UNSAT too.
  Solver u;
  const int x = u.newVar(), y = u.newVar();
  u.addClause({-x, y});
  u.addClause({-x, -y});
  EXPECT_FALSE(u.addUnit(x));
  EXPECT_EQ(u.solve(), Result::kUnsat);
}

/// Reads one counter from a snapshot (0 when absent, e.g. CBIP_NO_OBS).
std::uint64_t counterValue(const char* name) {
  for (const auto& [n, v] : obs::snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

TEST(Sat, RootLevelPropagationIsCounted) {
  // addClause() of a unit propagates immediately (outside any solve), and
  // that work must land in sat.propagations — including when the
  // propagation exposes root-level UNSAT and addClause returns early.
  const std::uint64_t before = counterValue("sat.propagations");
  Solver s;
  const int a = s.newVar(), b = s.newVar();
  s.addClause({-a, b});
  s.addClause({a});  // propagates a, then b
  const std::uint64_t mid = counterValue("sat.propagations");
  if (obs::enabled()) {
    EXPECT_GE(mid - before, 2u);
  }

  Solver u;
  const int x = u.newVar(), y = u.newVar();
  u.addClause({-x, y});
  u.addClause({-x, -y});
  // Propagating x derives y and ¬y: root-level UNSAT found *inside*
  // addClause — the early return must still have flushed the counter.
  EXPECT_FALSE(u.addClause({x}));
  EXPECT_EQ(u.solve(), Result::kUnsat);
  if (obs::enabled()) {
    EXPECT_GT(counterValue("sat.propagations"), mid);
  }
}

// Brute-force reference check.
bool bruteForceSat(int nVars, const std::vector<std::vector<Lit>>& clauses) {
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << nVars); ++m) {
    bool ok = true;
    for (const auto& cl : clauses) {
      bool sat = false;
      for (const Lit l : cl) {
        const int v = l > 0 ? l : -l;
        const bool val = (m >> (v - 1)) & 1;
        if ((l > 0) == val) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

class RandomSatTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomSatTest, AgreesWithBruteForce) {
  cbip::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  for (int round = 0; round < 40; ++round) {
    const int nVars = 4 + static_cast<int>(rng.below(8));   // 4..11
    const int nClauses = 5 + static_cast<int>(rng.below(40));
    std::vector<std::vector<Lit>> clauses;
    Solver s;
    for (int v = 0; v < nVars; ++v) s.newVar();
    bool addedOk = true;
    for (int c = 0; c < nClauses; ++c) {
      const int len = 1 + static_cast<int>(rng.below(3));
      std::vector<Lit> cl;
      for (int k = 0; k < len; ++k) {
        const int v = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(nVars)));
        cl.push_back(rng.chance(1, 2) ? v : -v);
      }
      clauses.push_back(cl);
      if (!s.addClause(cl)) addedOk = false;
    }
    const bool expected = bruteForceSat(nVars, clauses);
    if (!addedOk) {
      EXPECT_FALSE(expected);
      continue;
    }
    const bool actual = s.solve() == Result::kSat;
    ASSERT_EQ(actual, expected) << "seed " << GetParam() << " round " << round;
    if (actual) {
      // The model must actually satisfy every clause.
      for (const auto& cl : clauses) {
        bool sat = false;
        for (const Lit l : cl) {
          if (s.modelValue(l > 0 ? l : -l) == (l > 0)) {
            sat = true;
            break;
          }
        }
        EXPECT_TRUE(sat);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSatTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Incremental use: solve(assumptions), add clauses, solve again, on one
// solver. Each call starts from the activities, learnt clauses and
// decision-order state the previous calls left behind, which is how
// D-Finder's refinement loop drives the solver.
class IncrementalRandomSatTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalRandomSatTest, SolveAddSolveAgreesWithBruteForce) {
  cbip::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  std::uint64_t conflicts = 0;
  std::uint64_t sats = 0;
  for (int instance = 0; instance < 12; ++instance) {
    const int nVars = 12 + static_cast<int>(rng.below(5));  // 12..16
    const auto randomLit = [&] {
      const int v = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(nVars)));
      return rng.chance(1, 2) ? v : -v;
    };
    Solver s;
    for (int v = 0; v < nVars; ++v) s.newVar();
    std::vector<std::vector<Lit>> clauses;
    bool rootUnsat = false;
    const auto add = [&](const std::vector<Lit>& cl) {
      clauses.push_back(cl);
      const bool ok = cl.size() == 1 ? s.addUnit(cl[0]) : s.addClause(cl);
      if (!ok) rootUnsat = true;
    };
    // Below the 3-SAT threshold (ratio ~4.3) at first, crossing it as the
    // sequence adds clauses: the early solves are SAT and conflict.
    for (int c = 0; c < 3 * nVars; ++c) add({randomLit(), randomLit(), randomLit()});
    for (int step = 0; step < 10; ++step) {
      std::vector<Lit> assumptions;
      const int nAssumptions = static_cast<int>(rng.below(4));
      for (int k = 0; k < nAssumptions; ++k) assumptions.push_back(randomLit());
      std::vector<std::vector<Lit>> constrained = clauses;
      for (const Lit a : assumptions) constrained.push_back({a});
      const bool expected = bruteForceSat(nVars, constrained);
      const bool actual = s.solve(assumptions) == Result::kSat;
      ASSERT_EQ(actual, expected)
          << "seed " << GetParam() << " instance " << instance << " step " << step;
      if (rootUnsat) {
        EXPECT_FALSE(actual);
      }
      if (actual) {
        ++sats;
        for (const auto& cl : constrained) {
          bool sat = false;
          for (const Lit l : cl) {
            if (s.modelValue(l > 0 ? l : -l) == (l > 0)) {
              sat = true;
              break;
            }
          }
          EXPECT_TRUE(sat) << "seed " << GetParam() << " instance " << instance
                           << " step " << step;
        }
      }
      const int growth = 1 + static_cast<int>(rng.below(3));
      for (int c = 0; c < growth; ++c) add({randomLit(), randomLit(), randomLit()});
      if (rng.chance(1, 8)) add({randomLit()});
    }
    conflicts += s.conflicts();
  }
  // The sequences must reach the conflict-and-bump paths, and not only
  // trivially UNSAT roots.
  EXPECT_GT(conflicts, 0u);
  EXPECT_GT(sats, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalRandomSatTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace cbip::sat
