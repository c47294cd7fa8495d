//===- tests/annihilation_test.cpp ----------------------------*- C++ -*-===//
///
/// Unit suite for the algebraic annihilation analysis
/// (runtime/Annihilation.h) and its integration with walker
/// registration: per-operator-position algebra cases on hand-built
/// statement trees, plus end-to-end kernels pinned by their exact
/// registered walkers, sparse drivers and sparse reads — a workspace
/// flush (even under an additive body whose fill annihilates) keeps its
/// coordinate-skipping walker, and a non-annihilating fill registers
/// none, with the fused and interpreted paths bit-identical either way.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "ir/Kernel.h"
#include "kernels/Oracle.h"
#include "runtime/Annihilation.h"
#include "runtime/Executor.h"
#include "support/Counters.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <limits>

using namespace systec;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

ExprPtr acc(const std::string &T, std::vector<std::string> Idx) {
  return Expr::access(T, std::move(Idx));
}

/// Key of the canonical A[a, b] access, printed exactly as the
/// registration sees it.
std::string keyA() { return acc("A", {"a", "b"})->str(); }

} // namespace

//===----------------------------------------------------------------------===//
// Per-operator-position algebra on hand-built trees
//===----------------------------------------------------------------------===//

TEST(AnnihilationAlgebra, MultiplicativeBodyFillZero) {
  // O[b] += A[a,b] * x[a]: fill 0 annihilates the product and 0 is the
  // Add identity.
  StmtPtr S = Stmt::assign(
      acc("O", {"b"}), OpKind::Add,
      Expr::call(OpKind::Mul, {acc("A", {"a", "b"}), acc("x", {"a"})}));
  EXPECT_TRUE(accessAnnihilatesSubtree(S, keyA(), 0.0));
  // Fill 1 forces nothing through a product.
  EXPECT_FALSE(accessAnnihilatesSubtree(S, keyA(), 1.0));
}

TEST(AnnihilationAlgebra, AdditiveBodyMinPlus) {
  // O[b] min= A[a,b] + x[a]: +inf absorbs addition and is the Min
  // identity — the Bellman-Ford shape. Fill 0 does not absorb.
  StmtPtr S = Stmt::assign(
      acc("O", {"b"}), OpKind::Min,
      Expr::call(OpKind::Add, {acc("A", {"a", "b"}), acc("x", {"a"})}));
  EXPECT_TRUE(accessAnnihilatesSubtree(S, keyA(), Inf));
  EXPECT_FALSE(accessAnnihilatesSubtree(S, keyA(), 0.0));
}

TEST(AnnihilationAlgebra, MaxTimesFillZeroDoesNotAnnihilate) {
  // O[b] max= A[a,b] * x[a]: the product collapses to 0, but 0 is not
  // the Max identity (-inf), so skipping is unsound.
  StmtPtr S = Stmt::assign(
      acc("O", {"b"}), OpKind::Max,
      Expr::call(OpKind::Mul, {acc("A", {"a", "b"}), acc("x", {"a"})}));
  EXPECT_FALSE(accessAnnihilatesSubtree(S, keyA(), 0.0));
}

TEST(AnnihilationAlgebra, OperatorPositionMatters) {
  // x[a] - A[a,b]: subtraction has no annihilator, so even a fill-0
  // operand forces nothing (x - 0 == x is the identity in the *other*
  // position).
  StmtPtr S = Stmt::assign(
      acc("O", {"b"}), OpKind::Add,
      Expr::call(OpKind::Sub, {acc("x", {"a"}), acc("A", {"a", "b"})}));
  EXPECT_FALSE(accessAnnihilatesSubtree(S, keyA(), 0.0));
  // In a product the position is irrelevant (commutative annihilator).
  StmtPtr P = Stmt::assign(
      acc("O", {"b"}), OpKind::Add,
      Expr::call(OpKind::Mul, {acc("x", {"a"}), acc("A", {"a", "b"})}));
  EXPECT_TRUE(accessAnnihilatesSubtree(P, keyA(), 0.0));
}

TEST(AnnihilationAlgebra, PropagatesThroughScalarDefs) {
  // t = A[a,b] * x[a]; O[b] += t: the constant flows through the def.
  StmtPtr S = Stmt::block(
      {Stmt::defScalar("t", Expr::call(OpKind::Mul, {acc("A", {"a", "b"}),
                                                     acc("x", {"a"})})),
       Stmt::assign(acc("O", {"b"}), OpKind::Add, Expr::scalar("t"))});
  EXPECT_TRUE(accessAnnihilatesSubtree(S, keyA(), 0.0));
}

TEST(AnnihilationAlgebra, WorkspaceFlushRecovered) {
  // The workspace pattern a plain membership test cannot see:
  //   w = 0; for a: w += A[a,b] * x[a]; O[b] += w
  // Under the hypothesis, w provably stays at the Add identity, so the
  // flush is a no-op although the flush never reads A.
  StmtPtr S = Stmt::block(
      {Stmt::defScalar("w", Expr::lit(0.0)),
       Stmt::loop("a", Stmt::assign(Expr::scalar("w"), OpKind::Add,
                                    Expr::call(OpKind::Mul,
                                               {acc("A", {"a", "b"}),
                                                acc("x", {"a"})}))),
       Stmt::assign(acc("O", {"b"}), OpKind::Add, Expr::scalar("w"))});
  EXPECT_TRUE(accessAnnihilatesSubtree(S, keyA(), 0.0));
  // The min-plus flavor of the same shape (additive body).
  StmtPtr M = Stmt::block(
      {Stmt::defScalar("w", Expr::lit(Inf)),
       Stmt::loop("a", Stmt::assign(Expr::scalar("w"), OpKind::Min,
                                    Expr::call(OpKind::Add,
                                               {acc("A", {"a", "b"}),
                                                acc("x", {"a"})}))),
       Stmt::assign(acc("O", {"b"}), OpKind::Min, Expr::scalar("w"))});
  EXPECT_TRUE(accessAnnihilatesSubtree(M, keyA(), Inf));
  // A workspace seeded off the identity is not provably transparent.
  StmtPtr Bad = Stmt::block(
      {Stmt::defScalar("w", Expr::lit(3.0)),
       Stmt::assign(acc("O", {"b"}), OpKind::Add, Expr::scalar("w"))});
  EXPECT_FALSE(accessAnnihilatesSubtree(Bad, keyA(), 0.0));
}

TEST(AnnihilationAlgebra, ConditionalDefsJoin) {
  // A conditional redefinition that changes the abstract value widens
  // to unknown; one that agrees keeps the constant.
  Cond C = Cond::conj({CmpAtom{CmpKind::EQ, "a", "b"}});
  StmtPtr Agree = Stmt::block(
      {Stmt::defScalar("t", acc("A", {"a", "b"})),
       Stmt::ifThen(C, Stmt::defScalar("t", acc("A", {"a", "b"}))),
       Stmt::assign(acc("O", {"b"}), OpKind::Add,
                    Expr::call(OpKind::Mul,
                               {Expr::scalar("t"), acc("x", {"a"})}))});
  EXPECT_TRUE(accessAnnihilatesSubtree(Agree, keyA(), 0.0));
  StmtPtr Disagree = Stmt::block(
      {Stmt::defScalar("t", acc("A", {"a", "b"})),
       Stmt::ifThen(C, Stmt::defScalar("t", acc("x", {"a"}))),
       Stmt::assign(acc("O", {"b"}), OpKind::Add,
                    Expr::call(OpKind::Mul,
                               {Expr::scalar("t"), acc("x", {"a"})}))});
  EXPECT_FALSE(accessAnnihilatesSubtree(Disagree, keyA(), 0.0));
}

TEST(AnnihilationAlgebra, LoopCarriedScalarIsWidened) {
  // s accumulates across iterations and is then flushed *inside* the
  // walked loop's subtree with an overwrite: never skippable.
  StmtPtr S = Stmt::block(
      {Stmt::assign(Expr::scalar("s"), OpKind::Add,
                    Expr::call(OpKind::Mul,
                               {acc("A", {"a", "b"}), acc("x", {"a"})})),
       Stmt::assign(acc("O", {"b"}), std::nullopt, Expr::scalar("s"))});
  EXPECT_FALSE(accessAnnihilatesSubtree(S, keyA(), 0.0));
}

TEST(AnnihilationAlgebra, OverwritesAndLutsAreConservative) {
  StmtPtr Over = Stmt::assign(acc("O", {"b"}), std::nullopt,
                              Expr::call(OpKind::Mul, {acc("A", {"a", "b"}),
                                                       acc("x", {"a"})}));
  EXPECT_FALSE(accessAnnihilatesSubtree(Over, keyA(), 0.0));
  StmtPtr Lut = Stmt::assign(
      acc("O", {"b"}), OpKind::Add,
      Expr::call(OpKind::Mul,
                 {acc("A", {"a", "b"}),
                  Expr::lut({CmpAtom{CmpKind::EQ, "a", "b"}},
                            {10.0, 100.0})}));
  // A Lut factor is unknown, but the annihilating fill still absorbs
  // the product around it.
  EXPECT_TRUE(accessAnnihilatesSubtree(Lut, keyA(), 0.0));
}

TEST(AnnihilationAlgebra, MixedInfinitiesStayUnknown) {
  // inf + (-inf) is NaN at runtime: two absorbing operands that force
  // different results must not prove anything.
  StmtPtr S = Stmt::assign(
      acc("O", {"b"}), OpKind::Min,
      Expr::call(OpKind::Add, {acc("A", {"a", "b"}), Expr::lit(-Inf)}));
  EXPECT_FALSE(accessAnnihilatesSubtree(S, keyA(), Inf));
}

//===----------------------------------------------------------------------===//
// End-to-end: recovery and rejection pinned by counters
//===----------------------------------------------------------------------===//

namespace {

struct RunResult {
  Tensor Out;
  MicroKernelStats Stats;
  CounterSnapshot Counters;
};

RunResult runKernel(const Kernel &K, std::map<std::string, Tensor> &Inputs,
                    const std::string &OutName, Tensor OutInit,
                    const ExecOptions &O) {
  RunResult R{std::move(OutInit), {}, {}};
  Executor E(K, O);
  for (auto &[Name, T] : Inputs)
    E.bind(Name, &T);
  E.bind(OutName, &R.Out);
  counters().reset();
  setCountersEnabled(true);
  E.prepare();
  E.run();
  R.Stats = E.microKernelStats();
  R.Counters = counters().snapshot();
  return R;
}

/// The workspace kernel over a sparse-topped (DCSR-style) matrix:
///   for b: { w = init; for a: w R= A[a,b] C x[a]; O[b] R= w }
/// The loop-b walker on A's top Sparse level is sound only because the
/// flush reads a scalar seeded with the reduction identity.
Einsum workspaceEinsum(OpKind Reduce, const char *Combine, double Fill) {
  Einsum E = parseEinsum(
      "ws", std::string("O[b] ") +
                (Reduce == OpKind::Min ? "min= " : "+= ") + "A[a,b] " +
                Combine + " x[a]");
  E.LoopOrder = {"b", "a"};
  TensorFormat Dcsr;
  Dcsr.Levels = {LevelKind::Sparse, LevelKind::Sparse};
  E.declare("A", Dcsr, Fill);
  E.setSymmetry("A", Partition::full(2));
  E.declare("x", TensorFormat::dense(1));
  E.declare("O", TensorFormat::dense(1), opInfo(Reduce).Identity);
  return E;
}

/// The same contraction with loop order (a, b) and no symmetry or
/// workspace: the walker candidates on A exist, and A backs every
/// assignment, so only the fill decides — a fill that does not
/// annihilate must register no walker at all.
Einsum plainEinsum(OpKind Reduce, const char *Combine, double Fill) {
  Einsum E = parseEinsum(
      "plain", std::string("O[b] ") +
                   (Reduce == OpKind::Min ? "min= " : "+= ") + "A[a,b] " +
                   Combine + " x[a]");
  E.LoopOrder = {"a", "b"};
  TensorFormat Dcsr;
  Dcsr.Levels = {LevelKind::Sparse, LevelKind::Sparse};
  E.declare("A", Dcsr, Fill);
  E.declare("x", TensorFormat::dense(1));
  E.declare("O", TensorFormat::dense(1), opInfo(Reduce).Identity);
  return E;
}

} // namespace

/// Exact plan/run outcomes of one compiled kernel (naive or optimized).
struct Pins {
  uint64_t WalkersRegistered;
  uint64_t FusedSparseDrivers;
  uint64_t SparseReads;
};

class AnnihilationEndToEnd : public ::testing::Test {
protected:
  void runMatrix(const Einsum &E, OpKind Reduce, double Fill,
                 const Pins &Naive, const Pins &Optimized) {
    Rng R(11);
    const int64_t N = 24;
    TensorFormat Dcsr;
    Dcsr.Levels = {LevelKind::Sparse, LevelKind::Sparse};
    std::map<std::string, Tensor> Inputs;
    Inputs.emplace("A", generateSymmetricTensor(2, N, 3 * N, R, Dcsr, Fill));
    Inputs.emplace("x", generateDenseVector(N, R));
    Tensor Init = Tensor::dense({N}, 0.0);
    Init.setAllValues(opInfo(Reduce).Identity);

    std::map<std::string, const Tensor *> OracleIn;
    for (auto &[Name, T] : Inputs)
      OracleIn[Name] = &T;
    Tensor Ref = oracleEval(E, OracleIn);

    CompileResult CR = compileEinsum(E);
    for (const Kernel *K : {&CR.Naive, &CR.Optimized}) {
      SCOPED_TRACE(K == &CR.Naive ? "naive" : "optimized");
      const Pins &P = K == &CR.Naive ? Naive : Optimized;
      ExecOptions Interp, Fused;
      Interp.Engines = {Engine::Interp};
      RunResult RI = runKernel(*K, Inputs, "O", Init, Interp);
      RunResult RF = runKernel(*K, Inputs, "O", Init, Fused);
      // Correctness against the dense oracle and exact parity between
      // the interpreted and fused engines.
      EXPECT_LT(Tensor::maxAbsDiff(RI.Out, Ref), 1e-9);
      ASSERT_EQ(RI.Out.vals().size(), RF.Out.vals().size());
      for (size_t I = 0; I < RI.Out.vals().size(); ++I)
        EXPECT_EQ(RI.Out.vals()[I], RF.Out.vals()[I]) << "element " << I;
      EXPECT_EQ(RI.Counters.SparseReads, RF.Counters.SparseReads);
      EXPECT_EQ(RI.Counters.Reductions, RF.Counters.Reductions);
      // Walker registration is engine-independent; only the fused
      // engine turns walkers into sparse drivers.
      EXPECT_EQ(RI.Stats.WalkersRegistered, P.WalkersRegistered);
      EXPECT_EQ(RF.Stats.WalkersRegistered, P.WalkersRegistered);
      EXPECT_EQ(RI.Stats.FusedSparseDrivers, 0u);
      EXPECT_EQ(RF.Stats.FusedSparseDrivers, P.FusedSparseDrivers);
      EXPECT_EQ(RF.Counters.SparseReads, P.SparseReads);
    }
  }
};

TEST_F(AnnihilationEndToEnd, MultiplicativeWorkspaceRecoversWalker) {
  // Arithmetic (+, *) with fill 0: annihilating — the acceptance-
  // criteria shape. The top-level walker survives the workspace flush.
  runMatrix(workspaceEinsum(OpKind::Add, "*", 0.0), OpKind::Add, 0.0,
            Pins{2, 2, 126}, Pins{4, 4, 64});
}

TEST_F(AnnihilationEndToEnd, AdditiveMinPlusWorkspaceRecoversWalker) {
  // min-plus with fill inf: an *additive* body whose fill still
  // annihilates. The algebra proves w stays at +inf and keeps the
  // walker.
  runMatrix(workspaceEinsum(OpKind::Min, "+", Inf), OpKind::Min, Inf,
            Pins{2, 2, 126}, Pins{4, 4, 64});
}

TEST_F(AnnihilationEndToEnd, AdditiveMinPlusFillZeroIsVetoed) {
  // min-plus with fill 0: the access backs every assignment, but 0
  // does not absorb addition — skipping would drop real min
  // candidates. The algebra vetoes every walker (all reads go through
  // the locator) and the result still matches the dense oracle.
  Einsum E = plainEinsum(OpKind::Min, "+", 0.0);
  runMatrix(E, OpKind::Min, 0.0, Pins{0, 0, 576}, Pins{0, 0, 576});
}

TEST_F(AnnihilationEndToEnd, MaxTimesFillZeroIsVetoed) {
  // max-times with fill 0: the product annihilates to 0 but 0 is not
  // the Max identity, so the walker must stay off.
  Einsum E = plainEinsum(OpKind::Max, "*", 0.0);
  E.ReduceOp = OpKind::Max;
  runMatrix(E, OpKind::Max, 0.0, Pins{0, 0, 576}, Pins{0, 0, 576});
}

TEST(AnnihilationEndToEnd2, RecoveredWalkerKeepsPlansFullyFused) {
  // The top-level walker kept across the workspace flush enables
  // coordinate-driven compilation of the whole nest: every loop of the
  // optimized DCSR workspace kernel specializes, with sparse drivers on
  // both levels.
  Rng R(5);
  const int64_t N = 24;
  TensorFormat Dcsr;
  Dcsr.Levels = {LevelKind::Sparse, LevelKind::Sparse};
  Einsum E = workspaceEinsum(OpKind::Add, "*", 0.0);
  std::map<std::string, Tensor> Inputs;
  Inputs.emplace("A", generateSymmetricTensor(2, N, 3 * N, R, Dcsr));
  Inputs.emplace("x", generateDenseVector(N, R));
  Tensor Init = Tensor::dense({N}, 0.0);
  CompileResult CR = compileEinsum(E);
  RunResult RR = runKernel(CR.Optimized, Inputs, "O", Init, ExecOptions());
  EXPECT_EQ(RR.Stats.GenericLoops, 0u);
  EXPECT_EQ(RR.Stats.SpecializedLoops, 4u);
  EXPECT_EQ(RR.Stats.WalkersRegistered, 4u);
  EXPECT_EQ(RR.Stats.FusedSparseDrivers, 4u);
  EXPECT_EQ(RR.Counters.SparseReads, 66u);
}
