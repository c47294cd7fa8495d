//===- runtime/Annihilation.h - Walker soundness algebra ------*- C++ -*-===//
///
/// \file
/// The algebraic analysis behind coordinate-skipping walker
/// registration. A loop driven by a sparse (or banded) access visits
/// only stored coordinates; skipping coordinate c is sound exactly when
/// executing the loop body with that access evaluating to its tensor's
/// fill value would have no observable effect — every assignment in the
/// subtree must reduce to a no-op.
///
/// accessAnnihilatesSubtree() decides this by abstract interpretation
/// over the statement tree under the hypothesis "access == fill":
/// constants propagate through scalar definitions (transitively, with
/// joins at conditional redefinitions and a fixpoint over nested
/// loops), per-operand annihilation facts from the operator algebra
/// (ir/Ops.h: x * 0 == 0, x + inf == inf, min(x, -inf) == -inf) absorb
/// unknown co-operands position by position, and an assignment is a
/// no-op when its right-hand side folds to the identity of its
/// reduction operator (identity applied any multiplicity of times stays
/// a no-op). Scalar definitions are treated as effect-free iteration
/// temporaries — the contract of the lowering, which defines every
/// workspace before its reads — while scalar-target reductions must
/// themselves annihilate, so loop-carried accumulators are handled
/// soundly.
///
/// A plain membership test ("the access appears in every assignment's
/// operands") is not a substitute: it cannot see that a workspace flush
/// (`y[j] += w` where `w` starts at the reduction identity) is
/// annihilated, and it cannot tell an annihilating fill from a
/// non-annihilating one (min-plus over a fill-0 operand is unsound to
/// skip).
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_RUNTIME_ANNIHILATION_H
#define SYSTEC_RUNTIME_ANNIHILATION_H

#include "ir/Stmt.h"

#include <string>

namespace systec {

/// True when executing \p Body with every occurrence of the access
/// whose printed form is \p AccessKey evaluating to \p Fill is provably
/// a no-op — the algebraic soundness condition for registering a
/// coordinate-skipping walker over that access on a loop with body
/// \p Body.
bool accessAnnihilatesSubtree(const StmtPtr &Body,
                              const std::string &AccessKey, double Fill);

} // namespace systec

#endif // SYSTEC_RUNTIME_ANNIHILATION_H
