// Bytecode compiler for the data sub-language.
//
// The symbolic Expr trees stay the single semantic reference — the
// verifier inspects and abstracts them directly ("semantic coherency",
// monograph Section 5.4). Execution, however, pays dearly for walking
// shared_ptr subtrees through a virtual EvalContext on every engine step,
// so this module lowers an Expr once into a flat postfix ExprProgram: a
// dense instruction array evaluated iteratively on a small value stack
// against a contiguous frame of variable slots. No recursion, no pointer
// chasing, no virtual dispatch.
//
// Semantics are bit-identical to Expr::eval on the same tree:
//   * && and || short-circuit (compiled to conditional jumps), so a
//     division by zero in an unreached right operand never raises;
//   * ite evaluates only the taken branch;
//   * kDiv/kMod raise EvalError on zero divisors exactly like the
//     interpreter.
// The only permitted divergence is *which* EvalError a doomed expression
// raises first, because the interpreter evaluates divisors before
// dividends while postfix order is left-to-right.
//
// Variable references are resolved at compile time through a SlotMap from
// (scope, index) VarRefs to flat frame offsets; an unmappable reference is
// a compile-time ModelError instead of a per-evaluation check.
//
// The escape hatch: setting the CBIP_NO_COMPILE environment variable (or
// calling setCompilationEnabled(false)) routes every execution-layer
// evaluation back through the tree-walking interpreter, the one semantic
// oracle. Traces must be bit-identical either way; the differential tests
// rely on this switch.
//
// Fused guarded commands: a transition's guard and its action block are
// one semantic unit, so compileFused() lowers them into a *single*
// program — guard prefix, a conditional jump that skips the action suffix
// when the guard is false, then the assignments as kStore instructions —
// and runs a common-subexpression pass across the guard/action boundary:
// a non-leaf subexpression evaluated unconditionally once is parked in a
// temp register (kTee) and later occurrences reload it (kLoadTmp) instead
// of recomputing, as long as no intervening assignment clobbered a slot
// it reads. Caching is sound for errors too: every operator's outcome
// (value or EvalError) is a deterministic function of its operand values,
// so a reuse whose defining occurrence succeeded cannot have raised. A
// variable compared with a literal is never parked: recomputing it is
// cheaper (see the superinstructions below). Guard-then-fire call sites
// collapse to one dispatch of the fused program.
//
// Skip-store lowering: an assignment `x := ite(c, e, x)` (or the mirror
// `x := ite(c, x, e)`) lowers as `[c] JumpIfZero SKIP  [e] Store x
// SKIP:` (JumpIfNonZero for the mirror). Storing x back into x is a
// no-op and a kLoad cannot raise, so the values, the stores and the first
// EvalError are those of the ite lowering. This is how an indexed write
// looks in a data language without arrays (`slot_i := count == i ? v :
// slot_i`, one per slot), and it leaves each such write as a test and a
// copy.
//
// Execution cores: on GCC/Clang every program runs on a computed-goto
// direct-threaded core (execThreaded) whose form finalize() builds from
// code_, so per-instruction dispatch is one indirect goto instead of a
// bounds-checked switch; the portable switch interpreter (exec) serves
// toolchains without computed goto and the CBIP_FORCE_SWITCH_DISPATCH
// build. The threaded translation is also a peephole pass: it fuses
// instruction groups into superinstructions (SuperOp) — a slot compared
// with an immediate and a branch; the guarded copy `if (f[a] cmp k) f[d]
// := f[s]`, which always falls through; a Load/Store move; and a run of
// moves over two contiguous slot ranges as one forward copy loop — and
// remaps jump targets. A group never contains a jump target, so control
// reaches a superinstruction only where it would have reached the group's
// first instruction. Only the threaded form is fused. code() stays the
// canonical postfix form that the switch core runs, so the switch core is
// the bit-for-bit oracle every superinstruction is tested against
// (runSwitchCore). Guards
// compile with truelist/falselist backpatching: a short-circuit && / ||
// chain emits conditional jumps wired directly to their ultimate targets
// (the action suffix, the FAIL label, the 0/1 materialization) instead of
// materializing and re-testing a boolean at every nesting level. Results
// and traces are bit-identical on both cores.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "expr/expr.hpp"

// Direct-threaded dispatch needs the GNU address-of-label extension
// (&&label / goto *p), available on GCC and Clang. Elsewhere — or when a
// build forces it off with -DCBIP_NO_COMPUTED_GOTO (the
// CBIP_FORCE_SWITCH_DISPATCH CMake option) — the portable switch
// interpreter is the only execution core and the threaded form is never
// built. The two cores are bit-identical, including which EvalError a
// doomed program raises first; CI compiles and tests both.
#if !defined(CBIP_NO_COMPUTED_GOTO) && (defined(__GNUC__) || defined(__clang__))
#define CBIP_HAS_COMPUTED_GOTO 1
#else
#define CBIP_HAS_COMPUTED_GOTO 0
#endif

namespace cbip::expr {

/// Maps a VarRef to a frame slot (>= 0). Throws ModelError for references
/// the frame does not cover.
using SlotMap = std::function<int(VarRef)>;

enum class OpCode : std::uint8_t {
  kPush,  // push immediate
  kLoad,  // push frame[arg]
  // Binary ops: pop b, pop a, push (a op b).
  kAdd, kSub, kMul, kDiv, kMod,
  kMin, kMax,
  kEq, kNe, kLt, kLe, kGt, kGe,
  // Unary ops on the stack top.
  kNeg, kAbs, kNot,
  // Control flow (short-circuit && / || and ite).
  kJump,           // pc := arg
  kJumpIfZero,     // pop v; if v == 0 then pc := arg
  kJumpIfNonZero,  // pop v; if v != 0 then pc := arg
  // Fused guarded commands (compileFused) only.
  kStore,    // pop v; frame[arg] := v (requires the mutable-frame run)
  kTee,      // temp[arg] := stack top (no pop) — parks a CSE value
  kLoadTmp,  // push temp[arg]
};

/// One past the last OpCode value (sizes the threaded label table).
inline constexpr int kOpCodeCount = static_cast<int>(OpCode::kLoadTmp) + 1;

struct Instr {
  OpCode op = OpCode::kPush;
  std::int32_t arg = 0;  // kLoad: frame slot; jumps: target pc
  Value imm = 0;         // kPush: the literal
};

/// Superinstructions: fused handlers of the threaded form only (never in
/// code(); see ExprProgram::finalize). `a`, `d`, `s` are frame slots,
/// `k` an immediate, and `cmp` one of Eq, Ne, Lt, Le, Gt, Ge in OpCode
/// order.
enum class SuperOp : std::uint8_t {
  // Load a; Push k; cmp; JumpIfZero T: if !(f[a] cmp k) goto T.
  kJumpUnlessEq, kJumpUnlessNe, kJumpUnlessLt, kJumpUnlessLe, kJumpUnlessGt, kJumpUnlessGe,
  // Load a; Push k; cmp; JumpIfZero SKIP; Load s; Store d; SKIP:
  // if (f[a] cmp k) f[d] := f[s]. Always falls through.
  kCopyIfEq, kCopyIfNe, kCopyIfLt, kCopyIfLe, kCopyIfGt, kCopyIfGe,
  kMove,     // Load s; Store d: f[d] := f[s]
  kCopyRun,  // n >= 2 moves f[d+i] := f[s+i], i = 0..n-1, forward, one element at a time
};

/// One past the last SuperOp value.
inline constexpr int kSuperOpCount = static_cast<int>(SuperOp::kCopyRun) + 1;

/// One instruction of the direct-threaded form: the opcode is replaced by
/// the address of its handler label inside the threaded execution core,
/// so dispatch is a single indirect `goto` instead of a bounds-checked
/// switch. Jump targets stay instruction *indices* (resolved against the
/// threaded array base at run time), which keeps the form relocatable
/// under copies and moves. `arg2` fills what would be padding, so a
/// record stays 24 bytes: it holds a superinstruction's second operand
/// (a jump target, a source slot, or a guarded copy's destination and
/// source slots, 16 bits each). On toolchains without computed goto the
/// threaded vector simply stays empty.
struct ThreadedInstr {
  const void* label = nullptr;
  std::int32_t arg = 0;
  std::int32_t arg2 = 0;
  Value imm = 0;
};
static_assert(sizeof(ThreadedInstr) <= 24, "a threaded record must stay 24 bytes");

/// A compiled expression. Default-constructed programs are empty (used for
/// trivially-true guards that are never run).
class ExprProgram {
 public:
  bool empty() const { return code_.empty(); }
  std::size_t size() const { return code_.size(); }
  const std::vector<Instr>& code() const { return code_; }

  /// Evaluates against `frame`; every slot referenced by the program must
  /// be within the span. Throws EvalError on division/modulo by zero.
  /// Read-only programs only: a program holding kStore instructions
  /// (compileFused) must use the mutable overload.
  Value run(std::span<const Value> frame) const;
  /// A vector argument evaluates read-only too (without this overload a
  /// non-const vector would convert to both span types).
  Value run(const std::vector<Value>& frame) const { return run(std::span<const Value>(frame)); }

  /// Mutable-frame evaluation for fused guarded commands: kStore writes
  /// `frame[slot]` in place (the frame *is* the live variable block, so
  /// each assignment is visible to every later load — the sequential
  /// action-block semantics). Returns the program result: 1 when the
  /// guard held and the action suffix executed, 0 when the conditional
  /// skip fired.
  Value run(std::span<Value> frame) const;

  /// The portable switch core over code(), whatever core run() uses.
  /// It is the bit-for-bit oracle the threaded form's superinstructions
  /// are tested against; the engines never call it.
  Value runSwitchCore(std::span<Value> frame) const;

  /// Handler of each threaded record, in order: an OpCode value,
  /// kOpCodeCount for the halt sentinel, or kOpCodeCount + 1 + a SuperOp
  /// value. Its size is the record count; empty without computed goto.
  /// Lets tests pin what the peephole pass fuses.
  std::vector<int> threadedHandlers() const;

  /// True when the program writes the frame (holds kStore instructions).
  bool storesFrame() const { return hasStores_; }

 private:
  friend ExprProgram compile(const Expr&, const SlotMap&);
  friend ExprProgram compileFused(const Expr&, std::span<const Assign>, const SlotMap&);

  /// Interpreter core of run and runSwitchCore; `stack` must hold at
  /// least maxStack_ + tempCount_ slots (the CSE temp registers live
  /// above the evaluation stack). `frame` is only written through kStore,
  /// which compileFused emits and compile never does — the read-only run
  /// overloads pass a const frame through here unchanged.
  Value exec(std::span<const Value> frame, Value* stack) const;

#if CBIP_HAS_COMPUTED_GOTO
  /// Direct-threaded twin of exec(): same contract, dispatches by
  /// indirect goto through the labels cached in threaded_. When
  /// `labelsOut` is non-null the call only publishes the handler label
  /// table (the addresses are function-local) and executes nothing —
  /// finalize() uses that mode to translate code_.
  Value execThreaded(std::span<const Value> frame, Value* stack,
                     const void* const** labelsOut = nullptr) const;
#endif

  /// Builds the execution-ready forms from code_: the threaded
  /// translation, a peephole pass that fuses superinstructions (SuperOp)
  /// and remaps jump targets. A fused group may start at a jump target
  /// but never contains one. Called once, at the end of compilation.
  /// Single-threaded like all program construction — engines only run
  /// finalized programs, which are never mutated afterwards.
  void finalize();

  std::vector<Instr> code_;
  std::vector<ThreadedInstr> threaded_;  // fused code_ + halt sentinel; empty without computed goto
  int maxStack_ = 0;
  int tempCount_ = 0;  // CSE temp registers (fused programs only)
  bool hasStores_ = false;
};

/// Lowers `e` to bytecode, folding constant subprograms (a fold never
/// removes a possible division by zero or a variable read).
ExprProgram compile(const Expr& e, const SlotMap& slots);

/// Lowering for component-local expressions: scope 0, slot = index (the
/// frame is the component's variable vector).
ExprProgram compileLocal(const Expr& e);

/// Fuses one guarded command — `guard` plus the sequential assignment
/// block `actions` — into a single program (see the file comment):
///
///   [guard]  JumpIfZero FAIL  [value_0] Store t_0 ... [value_k] Store t_k
///   Push 1  Jump END  FAIL: Push 0  END:
///
/// with the guard prefix (and its jump) omitted for a trivially-true
/// guard, and a common-subexpression pass spanning the whole sequence.
/// Both assignment targets and variable reads resolve through `slots`.
/// Run it with the mutable-frame overload; the result is 1 iff the guard
/// held (and the assignments were applied). A trivially-true guard with
/// no actions compiles to the single instruction `Push 1`.
///
/// Semantics are bit-identical to running the guard program and then each
/// action program separately over the same live frame, including which
/// EvalError a doomed evaluation raises first.
ExprProgram compileFused(const Expr& guard, std::span<const Assign> actions,
                         const SlotMap& slots);

/// True when the execution layer should evaluate compiled programs;
/// defaults to true unless the CBIP_NO_COMPILE environment variable is set
/// to a non-empty value other than "0".
bool compilationEnabled();

/// Overrides the compilation switch (differential tests and benchmarks
/// toggle this to compare the two evaluation paths in one process).
void setCompilationEnabled(bool on);

}  // namespace cbip::expr
