#include "expr/compile.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "util/env.hpp"
#include "util/require.hpp"

namespace cbip::expr {

namespace {

std::atomic<bool>& compileFlag() {
  static std::atomic<bool> flag = !envFlagOn(std::getenv("CBIP_NO_COMPILE"));
  return flag;
}

/// Stack slots evaluation needs for `e` (an upper bound once folding
/// shrinks the program; postfix needs max(lhs, 1 + rhs) for binaries).
int stackNeed(const Expr& e) {
  switch (e.op()) {
    case Op::kLit:
    case Op::kVar:
      return 1;
    case Op::kNeg:
    case Op::kAbs:
    case Op::kNot:
      return stackNeed(e.child(0));
    case Op::kAnd:
    case Op::kOr: {
      // Branches run at the same depth as the left operand (the jumps pop
      // it); the constant-left fold may append "Push 0; kNe" one slot
      // above the right operand, hence the floor of 2.
      int need = 2;
      for (std::size_t i = 0; i < e.arity(); ++i) {
        const int k = stackNeed(e.child(i));
        if (k > need) need = k;
      }
      return need;
    }
    case Op::kIte: {
      // Branches run at the same depth as the condition (jumps pop it).
      int need = 1;
      for (std::size_t i = 0; i < e.arity(); ++i) {
        const int k = stackNeed(e.child(i));
        if (k > need) need = k;
      }
      return need;
    }
    default: {
      const int a = stackNeed(e.child(0));
      const int b = 1 + stackNeed(e.child(1));
      return a > b ? a : b;
    }
  }
}

// Lowering folds constant subprograms even though the Expr builders
// already fold at construction (Expr::make): the compiler must stay
// correct for any tree handed to it, independent of which builder
// invariants happen to hold upstream.
//
// In CSE mode (compileFused) the compiler additionally value-numbers
// non-leaf subexpressions across the guard/action sequence: a subtree
// occurring more than once is parked in a temp register (kTee) at its
// first *unconditionally evaluated* occurrence and reloaded (kLoadTmp)
// at later ones. Three rules keep this exact:
//   * definitions only outside short-circuit right operands and ite
//     branches (condDepth_ == 0), so a recorded temp was always actually
//     computed — a conditional occurrence may reuse but never define;
//   * an assignment to slot s invalidates every recorded temp whose
//     subtree reads s (the next occurrence recomputes and re-parks);
//   * reuse never changes error behaviour: operator outcomes (value or
//     EvalError) are deterministic functions of the operand values, so a
//     reused result's recomputation could neither differ nor raise.
class Compiler {
 public:
  explicit Compiler(const SlotMap& slots, bool cse = false) : slots_(&slots), cse_(cse) {}

  std::vector<Instr> lower(const Expr& e) {
    emit(e);
    return std::move(code_);
  }

  /// Lowers the fused guarded command (see compileFused). Out-params
  /// report the temp-register count and whether any kStore was emitted.
  std::vector<Instr> lowerFused(const Expr& guard, std::span<const Assign> actions,
                                int& tempCount, bool& hasStores) {
    for (const Assign& a : actions) countCandidates(a.value);
    const bool hasGuard = !guard.isTrue();
    std::vector<std::size_t> failJumps;  // jumps to patch to the FAIL label
    bool dead = false;                   // guard folded to constant false
    if (hasGuard) {
      countCandidates(guard);
      // Jumping-code lowering: the guard's short-circuit branches target
      // the action suffix (true) and the FAIL label (false) directly —
      // no boolean is materialized and re-tested at the boundary.
      std::vector<std::size_t> trueJumps;
      const Cond r = emitCond(guard, trueJumps, failJumps);
      // A guard folded to a literal resolves the conditional skip at
      // compile time (a discarded action suffix removes no error or
      // variable read — it would never have executed).
      dead = r == Cond::kFalse;
      for (std::size_t j : trueJumps) patch(j);  // true exits fall into the suffix
    }
    if (!dead) {
      for (const Assign& a : actions) {
        std::vector<std::size_t> skips;  // jumps past the store
        if (!emitSkipStore(a, skips)) emit(a.value);
        const int slot = (*slots_)(a.target);
        require(slot >= 0, "compileFused: SlotMap returned a negative slot");
        code_.push_back(Instr{OpCode::kStore, slot, 0});
        for (std::size_t j : skips) patch(j);
        hasStores = true;
        invalidateReaders(slot);
      }
    }
    pushLit(dead ? 0 : 1);
    if (!failJumps.empty()) {
      const std::size_t endJump = emitJump(OpCode::kJump);
      for (std::size_t j : failJumps) patch(j);
      pushLit(0);
      patch(endJump);
    }
    tempCount = tempCount_;
    return std::move(code_);
  }

 private:
  /// One parked common subexpression: its structural key, the temp
  /// register holding its value, and the frame slots it reads (for
  /// clobber invalidation). Linear scans are fine at guard/action sizes.
  struct AvailEntry {
    std::string key;
    int temp = 0;
    std::vector<int> reads;
  };

  /// Structural identity key of a subtree (same key <=> same value in the
  /// same frame, since all units share one SlotMap).
  static void appendKey(const Expr& e, std::string& out) {
    switch (e.op()) {
      case Op::kLit:
        out += 'L';
        out += std::to_string(e.literal());
        return;
      case Op::kVar:
        out += 'V';
        out += std::to_string(e.ref().scope);
        out += ',';
        out += std::to_string(e.ref().index);
        return;
      default:
        out += '(';
        out += std::to_string(static_cast<int>(e.op()));
        for (std::size_t i = 0; i < e.arity(); ++i) {
          out += ' ';
          appendKey(e.child(i), out);
        }
        out += ')';
        return;
    }
  }

  static std::string keyOf(const Expr& e) {
    std::string out;
    appendKey(e, out);
    return out;
  }

  /// A variable compared with a literal. The threaded form runs such a
  /// test inside one superinstruction (see finalize), so recomputing it
  /// is cheaper than parking it in a temp, which would split the group.
  static bool isSlotTest(const Expr& e) {
    switch (e.op()) {
      case Op::kEq:
      case Op::kNe:
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe:
        return e.child(0).op() == Op::kVar && e.child(1).op() == Op::kLit;
      default:
        return false;
    }
  }

  /// Counts every non-leaf subtree occurrence except slot tests; keys
  /// seen >= 2 times are CSE candidates. Occurrences inside branches that
  /// later fold away are over-counted, which costs at most one unused
  /// kTee.
  void countCandidates(const Expr& e) {
    if (e.op() == Op::kLit || e.op() == Op::kVar || isSlotTest(e)) return;
    ++occurrences_[keyOf(e)];
    for (std::size_t i = 0; i < e.arity(); ++i) countCandidates(e.child(i));
  }

  void invalidateReaders(int slot) {
    for (std::size_t i = avail_.size(); i-- > 0;) {
      bool reads = false;
      for (int r : avail_[i].reads) reads = reads || r == slot;
      if (reads) avail_.erase(avail_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  const AvailEntry* findAvail(const std::string& key) const {
    for (const AvailEntry& a : avail_) {
      if (a.key == key) return &a;
    }
    return nullptr;
  }

  /// Outcome of a jumping-code lowering: kNormal emitted code whose
  /// fall-through means TRUE (with registered true/false jump sites);
  /// kTrue/kFalse mean the condition folded to a compile-time constant
  /// and NOTHING was emitted or registered.
  enum class Cond { kNormal, kTrue, kFalse };

  /// Truelist/falselist backpatching (the classic jumping-code scheme):
  /// lowers `e` in *condition* position. Control falls through the
  /// emitted code iff `e` is true; jumps appended to `tj` mean true and
  /// jumps appended to `fj` mean false — both carry placeholder targets
  /// the caller patches to the ultimate destinations (action suffix,
  /// FAIL label, materialization sites). Nested && / || therefore jump
  /// straight to where the value is consumed, with no intermediate 0/1
  /// materialization and re-test per nesting level.
  ///
  /// Constant folding matches the value path exactly: only a left
  /// operand folded to a literal may discard its right operand (the
  /// discard removes no error or variable read — the operand would never
  /// have executed).
  Cond emitCond(const Expr& e, std::vector<std::size_t>& tj, std::vector<std::size_t>& fj) {
    switch (e.op()) {
      case Op::kAnd: {
        std::vector<std::size_t> aTrue;
        const Cond ra = emitCond(e.child(0), aTrue, fj);
        if (ra == Cond::kFalse) return Cond::kFalse;  // rhs discarded: lhs is a literal
        if (ra == Cond::kTrue) return emitCond(e.child(1), tj, fj);
        for (std::size_t j : aTrue) patch(j);  // lhs-true continues at the rhs
        ++condDepth_;  // the rhs may be skipped at run time
        const Cond rb = emitCond(e.child(1), tj, fj);
        --condDepth_;
        // A literal rhs folds into the control flow: true falls through,
        // false turns the lhs-true path into an unconditional fail.
        if (rb == Cond::kFalse) fj.push_back(emitJump(OpCode::kJump));
        return Cond::kNormal;
      }
      case Op::kOr: {
        std::vector<std::size_t> aFalse;
        const Cond ra = emitCond(e.child(0), tj, aFalse);
        if (ra == Cond::kTrue) return Cond::kTrue;  // rhs discarded: lhs is a literal
        if (ra == Cond::kFalse) return emitCond(e.child(1), tj, fj);
        tj.push_back(emitJump(OpCode::kJump));  // lhs fall-through means true
        for (std::size_t j : aFalse) patch(j);  // lhs-false continues at the rhs
        ++condDepth_;
        const Cond rb = emitCond(e.child(1), tj, fj);
        --condDepth_;
        if (rb == Cond::kFalse) fj.push_back(emitJump(OpCode::kJump));
        return Cond::kNormal;
      }
      case Op::kNot:
        return emitNotCond(e.child(0), tj, fj);
      default: {
        // Value position (comparisons, arithmetic, ite, leaves): evaluate
        // and test once. emit() keeps folding and CSE reuse intact.
        const std::size_t from = code_.size();
        emit(e);
        if (constSince(from)) {
          const Value v = code_.back().imm;
          code_.pop_back();
          return v != 0 ? Cond::kTrue : Cond::kFalse;
        }
        fj.push_back(emitJump(OpCode::kJumpIfZero));
        return Cond::kNormal;
      }
    }
  }

  /// emitCond for `!c`: control falls through iff `c` is false.
  Cond emitNotCond(const Expr& c, std::vector<std::size_t>& tj, std::vector<std::size_t>& fj) {
    if (c.op() == Op::kAnd || c.op() == Op::kOr || c.op() == Op::kNot) {
      // Recursive flip: the child's true exits route to our false list
      // and vice versa; the child's fall-through (child true = we false)
      // needs one unconditional jump to FAIL.
      std::vector<std::size_t> childTrue;
      const Cond r = emitCond(c, childTrue, tj);
      if (r == Cond::kTrue) return Cond::kFalse;
      if (r == Cond::kFalse) return Cond::kTrue;
      fj.push_back(emitJump(OpCode::kJump));
      for (std::size_t j : childTrue) fj.push_back(j);
      return Cond::kNormal;
    }
    // Value child: one inverted test replaces kNot + kJumpIfZero.
    const std::size_t from = code_.size();
    emit(c);
    if (constSince(from)) {
      const Value v = code_.back().imm;
      code_.pop_back();
      return v != 0 ? Cond::kFalse : Cond::kTrue;
    }
    fj.push_back(emitJump(OpCode::kJumpIfNonZero));
    return Cond::kNormal;
  }

  /// Skip-store lowering of `x := ite(c, e, x)` and its mirror
  /// `x := ite(c, x, e)`: the branch that keeps x would store x back into
  /// x, a no-op, and a kLoad cannot raise. So the keep path jumps past the
  /// store instead: `[c] JumpIfZero SKIP  [e]` (the caller emits
  /// `Store x`, then patches `skips` to SKIP). `c` still runs
  /// unconditionally and `e` conditionally, as in the ite lowering, and
  /// the caller's store invalidates x's readers either way. Returns false
  /// (nothing emitted) when the value has another shape, when `c` folds
  /// to a literal, or when a parked temp already holds the whole ite.
  bool emitSkipStore(const Assign& a, std::vector<std::size_t>& skips) {
    const Expr& v = a.value;
    if (v.op() != Op::kIte) return false;
    const auto keeps = [&](const Expr& b) { return b.op() == Op::kVar && b.ref() == a.target; };
    const bool keepElse = keeps(v.child(2));
    if (!keepElse && !keeps(v.child(1))) return false;
    if (cse_ && findAvail(keyOf(v)) != nullptr) return false;
    std::vector<std::size_t> tj;
    const Cond r =
        keepElse ? emitCond(v.child(0), tj, skips) : emitNotCond(v.child(0), tj, skips);
    // A condition folded to a literal emitted nothing (see emitCond); the
    // value lowering then emits just the taken branch.
    if (r != Cond::kNormal) return false;
    for (std::size_t j : tj) patch(j);
    ++condDepth_;  // the store may be skipped
    emit(v.child(keepElse ? 1 : 2));
    --condDepth_;
    return true;
  }

  /// Materializes a condition as a 0/1 value (the && / || value path):
  /// one truelist/falselist lowering with a single Push 1 / Push 0 pair
  /// at the end, however deep the chain.
  void emitBoolValue(const Expr& e) {
    std::vector<std::size_t> tj;
    std::vector<std::size_t> fj;
    const Cond r = emitCond(e, tj, fj);
    if (r != Cond::kNormal) {
      pushLit(r == Cond::kTrue ? 1 : 0);
      return;
    }
    for (std::size_t j : tj) patch(j);
    pushLit(1);
    if (fj.empty()) return;  // no false exits registered
    const std::size_t endJ = emitJump(OpCode::kJump);
    for (std::size_t j : fj) patch(j);
    pushLit(0);
    patch(endJ);
  }

  /// True iff the instructions emitted since `from` are one literal push.
  bool constSince(std::size_t from) const {
    return code_.size() == from + 1 && code_.back().op == OpCode::kPush;
  }

  void pushLit(Value v) { code_.push_back(Instr{OpCode::kPush, 0, v}); }

  std::int32_t here() const { return static_cast<std::int32_t>(code_.size()); }

  /// Emits a jump with a placeholder target; patch later.
  std::size_t emitJump(OpCode op) {
    code_.push_back(Instr{op, -1, 0});
    return code_.size() - 1;
  }

  void patch(std::size_t at) { code_[at].arg = here(); }

  static bool applyBinary(Op op, Value a, Value b, Value& out) {
    const auto toBool = [](bool c) { return c ? Value{1} : Value{0}; };
    switch (op) {
      case Op::kAdd: out = wrapAdd(a, b); return true;
      case Op::kSub: out = wrapSub(a, b); return true;
      case Op::kMul: out = wrapMul(a, b); return true;
      case Op::kDiv:
        if (b == 0 || divOverflows(a, b)) return false;  // keep the runtime error
        out = a / b;
        return true;
      case Op::kMod:
        if (b == 0 || divOverflows(a, b)) return false;
        out = a % b;
        return true;
      case Op::kMin: out = a < b ? a : b; return true;
      case Op::kMax: out = a > b ? a : b; return true;
      case Op::kEq: out = toBool(a == b); return true;
      case Op::kNe: out = toBool(a != b); return true;
      case Op::kLt: out = toBool(a < b); return true;
      case Op::kLe: out = toBool(a <= b); return true;
      case Op::kGt: out = toBool(a > b); return true;
      case Op::kGe: out = toBool(a >= b); return true;
      default: return false;
    }
  }

  static OpCode binaryOpcode(Op op) {
    switch (op) {
      case Op::kAdd: return OpCode::kAdd;
      case Op::kSub: return OpCode::kSub;
      case Op::kMul: return OpCode::kMul;
      case Op::kDiv: return OpCode::kDiv;
      case Op::kMod: return OpCode::kMod;
      case Op::kMin: return OpCode::kMin;
      case Op::kMax: return OpCode::kMax;
      case Op::kEq: return OpCode::kEq;
      case Op::kNe: return OpCode::kNe;
      case Op::kLt: return OpCode::kLt;
      case Op::kLe: return OpCode::kLe;
      case Op::kGt: return OpCode::kGt;
      case Op::kGe: return OpCode::kGe;
      default: throw ModelError("compile: not a binary operator");
    }
  }

  /// Emission entry point: in CSE mode, candidate subtrees reuse a parked
  /// temp when one is available and park their value when evaluated
  /// unconditionally; everything else lowers structurally via emitNode.
  void emit(const Expr& e) {
    if (!cse_ || e.op() == Op::kLit || e.op() == Op::kVar) {
      emitNode(e);
      return;
    }
    std::string key = keyOf(e);
    const auto it = occurrences_.find(key);
    if (it == occurrences_.end() || it->second < 2) {
      emitNode(e);
      return;
    }
    if (const AvailEntry* a = findAvail(key)) {
      code_.push_back(Instr{OpCode::kLoadTmp, a->temp, 0});
      return;
    }
    // Park the value only when this occurrence always executes (reuse
    // from a skipped branch would read garbage) and some occurrence lies
    // *outside* the candidate currently being defined: a subtree whose
    // count equals its defining ancestor's occurs only inside it, and all
    // its later occurrences vanish into that ancestor's kLoadTmp — a tee
    // would never be read.
    const bool mayDefine = condDepth_ == 0 && it->second > definingCount_;
    const int savedCount = definingCount_;
    if (mayDefine) definingCount_ = it->second;
    const std::size_t from = code_.size();
    emitNode(e);
    definingCount_ = savedCount;
    // A fold to a literal also skips the tee: caching a constant saves
    // nothing.
    if (mayDefine && !constSince(from)) {
      AvailEntry entry;
      entry.key = std::move(key);
      entry.temp = tempCount_++;
      std::vector<VarRef> refs;
      e.collectVars(refs);
      entry.reads.reserve(refs.size());
      for (const VarRef& r : refs) entry.reads.push_back((*slots_)(r));
      code_.push_back(Instr{OpCode::kTee, entry.temp, 0});
      avail_.push_back(std::move(entry));
    }
  }

  void emitNode(const Expr& e) {
    switch (e.op()) {
      case Op::kLit:
        pushLit(e.literal());
        return;
      case Op::kVar: {
        const int slot = (*slots_)(e.ref());
        require(slot >= 0, "compile: SlotMap returned a negative slot");
        code_.push_back(Instr{OpCode::kLoad, slot, 0});
        return;
      }
      case Op::kNeg:
      case Op::kAbs:
      case Op::kNot: {
        const std::size_t from = code_.size();
        emit(e.child(0));
        if (constSince(from)) {
          Value& v = code_.back().imm;
          v = e.op() == Op::kNeg ? wrapNeg(v) : e.op() == Op::kAbs ? wrapAbs(v) : (v == 0 ? 1 : 0);
          return;
        }
        code_.push_back(Instr{e.op() == Op::kNeg   ? OpCode::kNeg
                              : e.op() == Op::kAbs ? OpCode::kAbs
                                                   : OpCode::kNot,
                              0, 0});
        return;
      }
      case Op::kAnd:
      case Op::kOr:
        // Value position: one jumping-code lowering with a single
        // materialization at the top, however deep the chain.
        emitBoolValue(e);
        return;
      case Op::kIte: {
        // The condition lowers as jumping code too (an && / || condition
        // branches straight to then/else with no materialization).
        std::vector<std::size_t> tj;
        std::vector<std::size_t> fj;
        const Cond r = emitCond(e.child(0), tj, fj);
        if (r != Cond::kNormal) {
          emit(e.child(r == Cond::kTrue ? 1 : 2));  // the other branch would never run
          return;
        }
        for (std::size_t j : tj) patch(j);
        ++condDepth_;  // only one branch executes
        emit(e.child(1));
        const std::size_t endJ = emitJump(OpCode::kJump);
        for (std::size_t j : fj) patch(j);
        emit(e.child(2));
        --condDepth_;
        patch(endJ);
        return;
      }
      default: {  // binary arithmetic / comparison
        const std::size_t a0 = code_.size();
        emit(e.child(0));
        const bool aConst = constSince(a0);
        const std::size_t b0 = code_.size();
        emit(e.child(1));
        Value folded = 0;
        if (aConst && constSince(b0) &&
            applyBinary(e.op(), code_[a0].imm, code_[b0].imm, folded)) {
          code_.resize(a0);
          pushLit(folded);
          return;
        }
        code_.push_back(Instr{binaryOpcode(e.op()), 0, 0});
        return;
      }
    }
  }

  const SlotMap* slots_;
  std::vector<Instr> code_;
  bool cse_ = false;
  int condDepth_ = 0;      // > 0 inside short-circuit rhs / ite branches
  int definingCount_ = 0;  // occurrence count of the candidate being defined
  int tempCount_ = 0;
  std::unordered_map<std::string, int> occurrences_;
  std::vector<AvailEntry> avail_;
};

#if CBIP_HAS_COMPUTED_GOTO
// Peephole helpers of the threaded translation (finalize).

bool isJump(OpCode op) {
  return op == OpCode::kJump || op == OpCode::kJumpIfZero || op == OpCode::kJumpIfNonZero;
}

/// Position of a comparison opcode among Eq, Ne, Lt, Le, Gt, Ge (their
/// OpCode order, which SuperOp's families repeat), or -1.
int comparison(OpCode op) {
  const int i = static_cast<int>(op) - static_cast<int>(OpCode::kEq);
  return i >= 0 && i < 6 ? i : -1;
}

/// kNegated[c]: the comparison that holds exactly when comparison c fails.
constexpr int kNegated[6] = {1, 0, 5, 4, 3, 2};

/// A guarded copy packs its destination and source slots 16 bits each;
/// slots at or above this limit (frames of 32k variables) stay unfused.
constexpr std::int32_t kPackedSlotLimit = 1 << 15;
#endif

}  // namespace

Value ExprProgram::run(std::span<const Value> frame) const {
  // A read-only frame must never meet a kStore (exec would write through
  // it); fused programs go through the mutable overload below.
  requireEval(!hasStores_, "ExprProgram::run: fused program requires a mutable frame");
  // Guards and actions are small; spill to the heap only for pathological
  // nesting so the common case stays allocation-free. CSE temp registers
  // live above the evaluation stack in the same buffer.
  constexpr int kInlineStack = 32;
  Value inlineBuf[kInlineStack];
  std::vector<Value> heapBuf;
  Value* stack = inlineBuf;
  if (maxStack_ + tempCount_ > kInlineStack) {
    heapBuf.resize(static_cast<std::size_t>(maxStack_ + tempCount_));
    stack = heapBuf.data();
  }
#if CBIP_HAS_COMPUTED_GOTO
  if (!threaded_.empty()) return execThreaded(frame, stack);
#endif
  return exec(frame, stack);
}

Value ExprProgram::run(std::span<Value> frame) const {
  constexpr int kInlineStack = 32;
  Value inlineBuf[kInlineStack];
  std::vector<Value> heapBuf;
  Value* stack = inlineBuf;
  if (maxStack_ + tempCount_ > kInlineStack) {
    heapBuf.resize(static_cast<std::size_t>(maxStack_ + tempCount_));
    stack = heapBuf.data();
  }
#if CBIP_HAS_COMPUTED_GOTO
  if (!threaded_.empty()) return execThreaded(frame, stack);
#endif
  return exec(frame, stack);
}

Value ExprProgram::exec(std::span<const Value> frame, Value* stack) const {
  const Instr* code = code_.data();
  const std::size_t n = code_.size();
  // Temp registers sit above the evaluation stack in the caller's buffer.
  // The const_cast below is only reached through kStore, which only fused
  // programs hold, and those are gated onto the mutable run() overload —
  // a frame that arrives here const is never written.
  Value* temps = stack + maxStack_;
  Value* frameMut = const_cast<Value*>(frame.data());
  std::size_t pc = 0;
  int sp = 0;
  while (pc < n) {
    const Instr& in = code[pc++];
    switch (in.op) {
      case OpCode::kPush: stack[sp++] = in.imm; break;
      case OpCode::kLoad: stack[sp++] = frame[static_cast<std::size_t>(in.arg)]; break;
      case OpCode::kAdd: --sp; stack[sp - 1] = wrapAdd(stack[sp - 1], stack[sp]); break;
      case OpCode::kSub: --sp; stack[sp - 1] = wrapSub(stack[sp - 1], stack[sp]); break;
      case OpCode::kMul: --sp; stack[sp - 1] = wrapMul(stack[sp - 1], stack[sp]); break;
      case OpCode::kDiv:
        --sp;
        requireEval(stack[sp] != 0, "division by zero");
        requireEval(!divOverflows(stack[sp - 1], stack[sp]), "integer overflow in division");
        stack[sp - 1] /= stack[sp];
        break;
      case OpCode::kMod:
        --sp;
        requireEval(stack[sp] != 0, "modulo by zero");
        requireEval(!divOverflows(stack[sp - 1], stack[sp]), "integer overflow in modulo");
        stack[sp - 1] %= stack[sp];
        break;
      case OpCode::kMin:
        --sp;
        if (stack[sp] < stack[sp - 1]) stack[sp - 1] = stack[sp];
        break;
      case OpCode::kMax:
        --sp;
        if (stack[sp] > stack[sp - 1]) stack[sp - 1] = stack[sp];
        break;
      case OpCode::kEq: --sp; stack[sp - 1] = stack[sp - 1] == stack[sp] ? 1 : 0; break;
      case OpCode::kNe: --sp; stack[sp - 1] = stack[sp - 1] != stack[sp] ? 1 : 0; break;
      case OpCode::kLt: --sp; stack[sp - 1] = stack[sp - 1] < stack[sp] ? 1 : 0; break;
      case OpCode::kLe: --sp; stack[sp - 1] = stack[sp - 1] <= stack[sp] ? 1 : 0; break;
      case OpCode::kGt: --sp; stack[sp - 1] = stack[sp - 1] > stack[sp] ? 1 : 0; break;
      case OpCode::kGe: --sp; stack[sp - 1] = stack[sp - 1] >= stack[sp] ? 1 : 0; break;
      case OpCode::kNeg: stack[sp - 1] = wrapNeg(stack[sp - 1]); break;
      case OpCode::kAbs: stack[sp - 1] = wrapAbs(stack[sp - 1]); break;
      case OpCode::kNot: stack[sp - 1] = stack[sp - 1] == 0 ? 1 : 0; break;
      case OpCode::kJump: pc = static_cast<std::size_t>(in.arg); break;
      case OpCode::kJumpIfZero:
        --sp;
        if (stack[sp] == 0) pc = static_cast<std::size_t>(in.arg);
        break;
      case OpCode::kJumpIfNonZero:
        --sp;
        if (stack[sp] != 0) pc = static_cast<std::size_t>(in.arg);
        break;
      case OpCode::kStore:
        --sp;
        frameMut[static_cast<std::size_t>(in.arg)] = stack[sp];
        break;
      case OpCode::kTee: temps[in.arg] = stack[sp - 1]; break;
      case OpCode::kLoadTmp: stack[sp++] = temps[in.arg]; break;
    }
  }
  requireEval(sp == 1, "ExprProgram::run: corrupt program (stack imbalance)");
  return stack[0];
}

#if CBIP_HAS_COMPUTED_GOTO
// Cache-line aligned, so the dispatch layout of the handlers, and with it
// the speed of action-heavy models, does not move with the size of
// unrelated code linked before the VM.
__attribute__((aligned(64))) Value ExprProgram::execThreaded(std::span<const Value> frame,
                                                             Value* stack,
                                                             const void* const** labelsOut) const {
  // Handler label table, indexed by OpCode value, halt sentinel last.
  // The addresses are function-local, so finalize() fetches the table
  // through the labelsOut mode instead of duplicating it elsewhere.
  // Superinstruction handlers follow the sentinel, in SuperOp order.
  static const void* const kLabels[kOpCodeCount + 1 + kSuperOpCount] = {
      &&L_Push, &&L_Load,
      &&L_Add, &&L_Sub, &&L_Mul, &&L_Div, &&L_Mod,
      &&L_Min, &&L_Max,
      &&L_Eq, &&L_Ne, &&L_Lt, &&L_Le, &&L_Gt, &&L_Ge,
      &&L_Neg, &&L_Abs, &&L_Not,
      &&L_Jump, &&L_JumpIfZero, &&L_JumpIfNonZero,
      &&L_Store, &&L_Tee, &&L_LoadTmp,
      &&L_Halt,
      &&L_JumpUnlessEq, &&L_JumpUnlessNe, &&L_JumpUnlessLt,
      &&L_JumpUnlessLe, &&L_JumpUnlessGt, &&L_JumpUnlessGe,
      &&L_CopyIfEq, &&L_CopyIfNe, &&L_CopyIfLt, &&L_CopyIfLe, &&L_CopyIfGt, &&L_CopyIfGe,
      &&L_Move, &&L_CopyRun};
  if (labelsOut != nullptr) {
    *labelsOut = kLabels;
    return 0;
  }
  // Same state as exec(), but dispatch is one indirect goto per
  // instruction: `ip` walks the threaded form, each handler advances it
  // (jumps rebase it against `t`) and jumps straight to the next
  // handler. The halt sentinel appended by finalize() ends the walk — no
  // per-instruction bounds check anywhere. Every opcode body is the
  // switch core's, verbatim: the two cores are bit-identical, including
  // EvalError messages and order.
  const ThreadedInstr* const t = threaded_.data();
  const ThreadedInstr* ip = t;
  Value* temps = stack + maxStack_;
  // kStore and the superinstructions address the frame through fb.
  Value* const fb = const_cast<Value*>(frame.data());
  int sp = 0;
#define CBIP_NEXT() goto* (ip->label)
  CBIP_NEXT();
L_Push:
  stack[sp++] = ip->imm;
  ++ip;
  CBIP_NEXT();
L_Load:
  stack[sp++] = frame[static_cast<std::size_t>(ip->arg)];
  ++ip;
  CBIP_NEXT();
L_Add:
  --sp;
  stack[sp - 1] = wrapAdd(stack[sp - 1], stack[sp]);
  ++ip;
  CBIP_NEXT();
L_Sub:
  --sp;
  stack[sp - 1] = wrapSub(stack[sp - 1], stack[sp]);
  ++ip;
  CBIP_NEXT();
L_Mul:
  --sp;
  stack[sp - 1] = wrapMul(stack[sp - 1], stack[sp]);
  ++ip;
  CBIP_NEXT();
L_Div:
  --sp;
  requireEval(stack[sp] != 0, "division by zero");
  requireEval(!divOverflows(stack[sp - 1], stack[sp]), "integer overflow in division");
  stack[sp - 1] /= stack[sp];
  ++ip;
  CBIP_NEXT();
L_Mod:
  --sp;
  requireEval(stack[sp] != 0, "modulo by zero");
  requireEval(!divOverflows(stack[sp - 1], stack[sp]), "integer overflow in modulo");
  stack[sp - 1] %= stack[sp];
  ++ip;
  CBIP_NEXT();
L_Min:
  --sp;
  if (stack[sp] < stack[sp - 1]) stack[sp - 1] = stack[sp];
  ++ip;
  CBIP_NEXT();
L_Max:
  --sp;
  if (stack[sp] > stack[sp - 1]) stack[sp - 1] = stack[sp];
  ++ip;
  CBIP_NEXT();
L_Eq:
  --sp;
  stack[sp - 1] = stack[sp - 1] == stack[sp] ? 1 : 0;
  ++ip;
  CBIP_NEXT();
L_Ne:
  --sp;
  stack[sp - 1] = stack[sp - 1] != stack[sp] ? 1 : 0;
  ++ip;
  CBIP_NEXT();
L_Lt:
  --sp;
  stack[sp - 1] = stack[sp - 1] < stack[sp] ? 1 : 0;
  ++ip;
  CBIP_NEXT();
L_Le:
  --sp;
  stack[sp - 1] = stack[sp - 1] <= stack[sp] ? 1 : 0;
  ++ip;
  CBIP_NEXT();
L_Gt:
  --sp;
  stack[sp - 1] = stack[sp - 1] > stack[sp] ? 1 : 0;
  ++ip;
  CBIP_NEXT();
L_Ge:
  --sp;
  stack[sp - 1] = stack[sp - 1] >= stack[sp] ? 1 : 0;
  ++ip;
  CBIP_NEXT();
L_Neg:
  stack[sp - 1] = wrapNeg(stack[sp - 1]);
  ++ip;
  CBIP_NEXT();
L_Abs:
  stack[sp - 1] = wrapAbs(stack[sp - 1]);
  ++ip;
  CBIP_NEXT();
L_Not:
  stack[sp - 1] = stack[sp - 1] == 0 ? 1 : 0;
  ++ip;
  CBIP_NEXT();
L_Jump:
  ip = t + ip->arg;
  CBIP_NEXT();
L_JumpIfZero: {
  const ThreadedInstr* tgt = t + ip->arg;
  ++ip;
  --sp;
  if (stack[sp] == 0) ip = tgt;
  CBIP_NEXT();
}
L_JumpIfNonZero: {
  const ThreadedInstr* tgt = t + ip->arg;
  ++ip;
  --sp;
  if (stack[sp] != 0) ip = tgt;
  CBIP_NEXT();
}
L_Store:
  --sp;
  fb[static_cast<std::size_t>(ip->arg)] = stack[sp];
  ++ip;
  CBIP_NEXT();
L_Tee:
  temps[ip->arg] = stack[sp - 1];
  ++ip;
  CBIP_NEXT();
L_LoadTmp:
  stack[sp++] = temps[ip->arg];
  ++ip;
  CBIP_NEXT();
  // Superinstructions: each replays its code_ group with the operands in
  // the record, leaving the stack as the group would (net zero). Only
  // programs with stores hold the copying forms, so `fb` is written only
  // through a mutable frame, as kStore is.
#define CBIP_JUMP_UNLESS(name, cmp)   \
  name:                               \
  if (!(fb[ip->arg] cmp ip->imm)) {   \
    ip = t + ip->arg2;                \
    CBIP_NEXT();                      \
  }                                   \
  ++ip;                               \
  CBIP_NEXT();
  CBIP_JUMP_UNLESS(L_JumpUnlessEq, ==)
  CBIP_JUMP_UNLESS(L_JumpUnlessNe, !=)
  CBIP_JUMP_UNLESS(L_JumpUnlessLt, <)
  CBIP_JUMP_UNLESS(L_JumpUnlessLe, <=)
  CBIP_JUMP_UNLESS(L_JumpUnlessGt, >)
  CBIP_JUMP_UNLESS(L_JumpUnlessGe, >=)
#undef CBIP_JUMP_UNLESS
#define CBIP_COPY_IF(name, cmp)                                            \
  name:                                                                    \
  if (fb[ip->arg] cmp ip->imm) fb[ip->arg2 & 0xFFFF] = fb[ip->arg2 >> 16]; \
  ++ip;                                                                    \
  CBIP_NEXT();
  CBIP_COPY_IF(L_CopyIfEq, ==)
  CBIP_COPY_IF(L_CopyIfNe, !=)
  CBIP_COPY_IF(L_CopyIfLt, <)
  CBIP_COPY_IF(L_CopyIfLe, <=)
  CBIP_COPY_IF(L_CopyIfGt, >)
  CBIP_COPY_IF(L_CopyIfGe, >=)
#undef CBIP_COPY_IF
L_Move:
  fb[ip->arg] = fb[ip->arg2];
  ++ip;
  CBIP_NEXT();
L_CopyRun: {
  // Forward, one element at a time, never memmove: when the destination
  // run starts above an overlapping source run, the sequential stores
  // spread the first source value across it.
  Value* const dst = fb + ip->arg;
  const Value* const src = fb + ip->arg2;
  for (Value i = 0; i < ip->imm; ++i) dst[i] = src[i];
  ++ip;
  CBIP_NEXT();
}
L_Halt:
  requireEval(sp == 1, "ExprProgram::run: corrupt program (stack imbalance)");
  return stack[0];
#undef CBIP_NEXT
}
#endif  // CBIP_HAS_COMPUTED_GOTO

void ExprProgram::finalize() {
#if CBIP_HAS_COMPUTED_GOTO
  const void* const* labels = nullptr;
  execThreaded({}, nullptr, &labels);
  // Handler of a superinstruction; `offset` picks a comparison within a
  // family (kJumpUnless*, kCopyIf*).
  const auto super = [labels](SuperOp op, int offset = 0) {
    return labels[kOpCodeCount + 1 + static_cast<int>(op) + offset];
  };
  const Instr* const c = code_.data();
  const std::size_t n = code_.size();
  std::vector<char> isTarget(n + 1, 0);
  for (const Instr& in : code_) {
    if (!isJump(in.op)) continue;
    require(in.arg >= 0 && static_cast<std::size_t>(in.arg) <= n, "finalize: unpatched jump");
    isTarget[static_cast<std::size_t>(in.arg)] = 1;
  }
  // Control may enter a fused group only at its first instruction.
  const auto entered = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      if (isTarget[i] != 0) return true;
    }
    return false;
  };
  const auto is = [&](std::size_t i, OpCode op) { return i < n && c[i].op == op; };
  std::vector<std::int32_t> at(n + 1, -1);  // code_ index -> record of the group it starts
  // Records whose target field still holds a code_ index.
  std::vector<std::pair<std::size_t, std::int32_t ThreadedInstr::*>> jumps;
  threaded_.clear();
  threaded_.reserve(n + 1);
  std::size_t pc = 0;
  while (pc < n) {
    at[pc] = static_cast<std::int32_t>(threaded_.size());
    const int cmp = pc + 2 < n ? comparison(c[pc + 2].op) : -1;
    if (is(pc, OpCode::kLoad) && is(pc + 1, OpCode::kPush) && cmp >= 0 &&
        (is(pc + 3, OpCode::kJumpIfZero) || is(pc + 3, OpCode::kJumpIfNonZero)) &&
        !entered(pc + 1, pc + 4)) {
      // The condition under which control falls through: cmp for
      // JumpIfZero, its negation for JumpIfNonZero.
      const int holds = c[pc + 3].op == OpCode::kJumpIfZero ? cmp : kNegated[cmp];
      const Value k = c[pc + 1].imm;
      if (is(pc + 4, OpCode::kLoad) && is(pc + 5, OpCode::kStore) &&
          c[pc + 3].arg == static_cast<std::int32_t>(pc + 6) && !entered(pc + 4, pc + 6) &&
          c[pc + 4].arg < kPackedSlotLimit && c[pc + 5].arg < kPackedSlotLimit) {
        const std::int32_t packed = c[pc + 5].arg | (c[pc + 4].arg << 16);
        threaded_.push_back(ThreadedInstr{super(SuperOp::kCopyIfEq, holds), c[pc].arg, packed, k});
        pc += 6;
        continue;
      }
      jumps.emplace_back(threaded_.size(), &ThreadedInstr::arg2);
      threaded_.push_back(
          ThreadedInstr{super(SuperOp::kJumpUnlessEq, holds), c[pc].arg, c[pc + 3].arg, k});
      pc += 4;
      continue;
    }
    if (is(pc, OpCode::kLoad) && is(pc + 1, OpCode::kStore) && !entered(pc + 1, pc + 2)) {
      // Extend over the following moves that continue both slot runs.
      const std::int32_t src = c[pc].arg;
      const std::int32_t dst = c[pc + 1].arg;
      std::int32_t len = 1;
      for (std::size_t q = pc + 2; is(q, OpCode::kLoad) && is(q + 1, OpCode::kStore) &&
                                   c[q].arg == src + len && c[q + 1].arg == dst + len &&
                                   !entered(q, q + 2);
           q += 2) {
        ++len;
      }
      const SuperOp op = len == 1 ? SuperOp::kMove : SuperOp::kCopyRun;
      threaded_.push_back(ThreadedInstr{super(op), dst, src, len});
      pc += 2 * static_cast<std::size_t>(len);
      continue;
    }
    if (isJump(c[pc].op)) jumps.emplace_back(threaded_.size(), &ThreadedInstr::arg);
    threaded_.push_back(ThreadedInstr{labels[static_cast<int>(c[pc].op)], c[pc].arg, 0, c[pc].imm});
    ++pc;
  }
  // Halt sentinel: jump targets may legally equal code_.size() (patched
  // to the program end), and sequential fall-off lands here too.
  at[n] = static_cast<std::int32_t>(threaded_.size());
  threaded_.push_back(ThreadedInstr{labels[kOpCodeCount], 0, 0, 0});
  for (const auto& [record, field] : jumps) {
    std::int32_t& target = threaded_[record].*field;
    target = at[static_cast<std::size_t>(target)];
    require(target >= 0, "finalize: jump into a fused group");
  }
#endif
}

Value ExprProgram::runSwitchCore(std::span<Value> frame) const {
  std::vector<Value> stack(static_cast<std::size_t>(maxStack_ + tempCount_));
  return exec(frame, stack.data());
}

std::vector<int> ExprProgram::threadedHandlers() const {
  std::vector<int> out;
#if CBIP_HAS_COMPUTED_GOTO
  const void* const* labels = nullptr;
  execThreaded({}, nullptr, &labels);
  constexpr int kHandlers = kOpCodeCount + 1 + kSuperOpCount;
  for (const ThreadedInstr& r : threaded_) {
    out.push_back(static_cast<int>(std::find(labels, labels + kHandlers, r.label) - labels));
  }
#endif
  return out;
}

ExprProgram compile(const Expr& e, const SlotMap& slots) {
  Compiler c(slots);
  ExprProgram p;
  p.code_ = c.lower(e);
  p.maxStack_ = stackNeed(e);
  p.finalize();
  return p;
}

ExprProgram compileLocal(const Expr& e) {
  return compile(e, [](VarRef r) {
    require(r.scope == 0, "compileLocal: non-local variable scope");
    return r.index;
  });
}

ExprProgram compileFused(const Expr& guard, std::span<const Assign> actions,
                         const SlotMap& slots) {
  Compiler c(slots, /*cse=*/true);
  ExprProgram p;
  p.code_ = c.lowerFused(guard, actions, p.tempCount_, p.hasStores_);
  // Stack need: the guard runs at depth 0 and each action value starts
  // again at depth 0 (kStore pops it); the result literal needs one slot.
  int need = 1;
  if (!guard.isTrue()) need = stackNeed(guard);
  for (const Assign& a : actions) {
    const int k = stackNeed(a.value);
    if (k > need) need = k;
  }
  p.maxStack_ = need;
  p.finalize();
  return p;
}

bool compilationEnabled() { return compileFlag().load(std::memory_order_relaxed); }

void setCompilationEnabled(bool on) { compileFlag().store(on, std::memory_order_relaxed); }

}  // namespace cbip::expr
