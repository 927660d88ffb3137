// Scoped override of the one runtime evaluation switch for tests.
//
// CompileSwitch sets expr::setCompilationEnabled(on) for its lifetime and
// restores the previous value on scope exit, so a test can run the same
// check on the compiled path and on the tree-walking interpreter (the
// semantic oracle, CBIP_NO_COMPILE) without leaking the setting into the
// tests that run after it.
#pragma once

#include "expr/compile.hpp"

namespace cbip {

class CompileSwitch {
 public:
  explicit CompileSwitch(bool on) : saved_(expr::compilationEnabled()) {
    expr::setCompilationEnabled(on);
  }
  ~CompileSwitch() { expr::setCompilationEnabled(saved_); }
  CompileSwitch(const CompileSwitch&) = delete;
  CompileSwitch& operator=(const CompileSwitch&) = delete;

 private:
  bool saved_;
};

}  // namespace cbip
