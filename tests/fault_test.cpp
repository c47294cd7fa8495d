//===- tests/fault_test.cpp - Fault-injection robustness tests -*- C++ -*-===//
///
/// \file
/// The hardened-execution contract under corrupted input: every fault
/// class of tests/FaultInjection.h, applied to otherwise-valid fuzz and
/// corpus tensors, must be rejected with a typed Status — by
/// Tensor::validate(Deep) directly, and by Executor::tryPrepare with
/// ValidateInputs=Deep across {interpreter, fused, blocked} x
/// Threads {1, 4}. No abort, no crash, no sanitizer report (this test
/// carries the "fault" ctest label and runs under ASan/UBSan in CI).
/// Also pins the cooperative cancellation/deadline semantics: aborted
/// runs return Cancelled / DeadlineExceeded, restore their outputs, and
/// surface the reason in ExecReport::AbortReason.
///
//===----------------------------------------------------------------------===//

#include "FaultInjection.h"
#include "FuzzHarness.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace systec;
using namespace systec::fault;
using namespace systec::fuzzharness;

namespace {

/// 8x8 matrix with a fixed multi-coordinate pattern, buildable in every
/// two-level format — the deterministic corpus guaranteeing each fault
/// class a site regardless of what the fuzz seeds generate.
Tensor makeMatrix(TensorFormat F) {
  Coo C({8, 8});
  for (int64_t I = 0; I < 8; ++I)
    for (int64_t J = 0; J < 8; ++J)
      if ((I + 2 * J) % 3 == 0)
        C.add({I, J}, static_cast<double>(1 + I + 8 * J));
  return Tensor::fromCoo(std::move(C), std::move(F));
}

std::vector<std::pair<std::string, Tensor>> corpusTensors() {
  using LK = LevelKind;
  std::vector<std::pair<std::string, Tensor>> Out;
  Out.emplace_back("d(s)", makeMatrix(TensorFormat{{LK::Dense, LK::Sparse}}));
  Out.emplace_back("s(s)", makeMatrix(TensorFormat{{LK::Sparse, LK::Sparse}}));
  Out.emplace_back("d(r)",
                   makeMatrix(TensorFormat{{LK::Dense, LK::RunLength}}));
  Out.emplace_back("d(b)", makeMatrix(TensorFormat{{LK::Dense, LK::Banded}}));
  Out.emplace_back("s(b)", makeMatrix(TensorFormat{{LK::Sparse, LK::Banded}}));
  return Out;
}

struct EngineCfg {
  const char *Name;
  std::vector<Engine> List;
};
const EngineCfg Engines[] = {
    {"interp", {Engine::Interp}},
    {"fused", {Engine::Fused, Engine::Interp}},
    {"blocked", {Engine::Blocked, Engine::Fused, Engine::Interp}}};

} // namespace

//===----------------------------------------------------------------------===//
// Validator-level rejection
//===----------------------------------------------------------------------===//

TEST(FaultInjection, ValidatorRejectsEveryCorruption) {
  std::map<Fault, int> Applied;
  auto Sweep = [&](const Tensor &Pristine, const std::string &Tag) {
    {
      Status S = Pristine.validate(ValidationLevel::Deep);
      ASSERT_TRUE(S.ok()) << Tag << ": pristine tensor rejected: " << S.str();
    }
    for (Fault F : allFaults()) {
      Tensor Broken = Pristine;
      std::optional<std::string> Site = injectFault(Broken, F);
      if (!Site)
        continue;
      SCOPED_TRACE(Tag + ": " + faultName(F) + ": " + *Site);
      Status S = Broken.validate(ValidationLevel::Deep);
      EXPECT_FALSE(S.ok()) << "corruption accepted";
      EXPECT_EQ(S.code(), ErrCode::InvalidTensor);
      EXPECT_FALSE(S.message().empty());
      ++Applied[F];
    }
  };
  for (const auto &[Tag, T] : corpusTensors())
    Sweep(T, "corpus " + Tag);
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    FuzzCase F = makeCase(Seed);
    for (const auto &[Name, T] : F.Inputs)
      Sweep(T, "seed " + std::to_string(Seed) + " " + Name);
  }
  for (Fault F : allFaults())
    EXPECT_GT(Applied[F], 0) << faultName(F) << " never found a site";
}

TEST(FaultInjection, ShallowTierCatchesSizeFaultsOnly) {
  const Tensor Pristine =
      makeMatrix(TensorFormat{{LevelKind::Dense, LevelKind::Sparse}});

  Tensor EndpointBroken = Pristine;
  ASSERT_TRUE(injectFault(EndpointBroken, Fault::PtrOutOfRange));
  EXPECT_FALSE(EndpointBroken.validate(ValidationLevel::Shallow).ok());

  Tensor Truncated = Pristine;
  ASSERT_TRUE(injectFault(Truncated, Fault::ValsTruncated));
  EXPECT_FALSE(Truncated.validate(ValidationLevel::Shallow).ok());

  // Per-fiber coordinate order is deliberately a Deep-tier check: the
  // Shallow tier is O(levels) and never walks the arrays.
  Tensor Unsorted = Pristine;
  ASSERT_TRUE(injectFault(Unsorted, Fault::CrdUnsorted));
  EXPECT_TRUE(Unsorted.validate(ValidationLevel::Shallow).ok());
  EXPECT_FALSE(Unsorted.validate(ValidationLevel::Deep).ok());
}

//===----------------------------------------------------------------------===//
// Executor-level rejection across engines and thread counts
//===----------------------------------------------------------------------===//

TEST(FaultInjection, ExecutorRejectsCorruptedOperandsAcrossEngines) {
  int Checked = 0;
  for (uint64_t Seed : {3u, 7u, 11u, 19u}) {
    FuzzCase Base = makeCase(Seed);
    SCOPED_TRACE(caseTrace(Base));
    CompileResult R = compileEinsum(Base.E);
    for (Fault F : allFaults()) {
      // One corrupted operand per fault class suffices; find an input
      // offering a site.
      for (auto &[Name, Pristine] : Base.Inputs) {
        Tensor Broken = Pristine;
        std::optional<std::string> Site = injectFault(Broken, F);
        if (!Site)
          continue;
        for (const EngineCfg &E : Engines) {
          for (unsigned Threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(faultName(F)) + " on " + Name + " [" +
                         E.Name + " threads=" + std::to_string(Threads) +
                         "]: " + *Site);
            ExecOptions O;
            O.Engines = E.List;
            O.Threads = Threads;
            O.ValidateInputs = ValidationLevel::Deep;
            Tensor Out = Tensor::dense(Base.OutDims, 0.0);
            Out.setAllValues(Base.OutInit);
            Executor Ex(R.Naive, O);
            for (auto &[BindName, BindT] : Base.Inputs)
              Ex.bind(BindName, BindName == Name ? &Broken : &BindT);
            Ex.bind("O", &Out);
            Status S = Ex.tryPrepare();
            ASSERT_FALSE(S.ok()) << "corrupted operand accepted";
            EXPECT_EQ(S.code(), ErrCode::InvalidTensor);
            // The context chain names the offending tensor.
            EXPECT_NE(S.str().find("'" + Name + "'"), std::string::npos)
                << S.str();
            ++Checked;
          }
        }
        break;
      }
    }
  }
  // Every seed offers at least the always-applicable value faults on
  // all six engine/thread cells.
  EXPECT_GE(Checked, 4 * 2 * 6);
}

//===----------------------------------------------------------------------===//
// Cancellation and deadlines
//===----------------------------------------------------------------------===//

TEST(HardenedExecution, PreCancelledTokenAbortsAndRestoresOutput) {
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    FuzzCase F = makeCase(5);
    CompileResult R = compileEinsum(F.E);
    Tensor Out = Tensor::dense(F.OutDims, 0.0);
    Out.setAllValues(F.OutInit);
    const std::vector<double> Before = Out.vals();

    CancelToken Tok;
    Tok.cancel();
    ExecOptions O;
    O.Threads = Threads;
    O.Cancel = &Tok;
    Executor Ex(R.Naive, O);
    for (auto &[Name, T] : F.Inputs)
      Ex.bind(Name, &T);
    Ex.bind("O", &Out);
    {
      Status S = Ex.tryPrepare();
      ASSERT_TRUE(S.ok()) << S.str();
    }
    Status S = Ex.tryRunBody();
    ASSERT_FALSE(S.ok());
    EXPECT_EQ(S.code(), ErrCode::Cancelled);
    EXPECT_EQ(Ex.lastReport().AbortReason, "cancelled");
    EXPECT_EQ(Out.vals(), Before) << "partial writes not discarded";

    // The token is reusable: reset and the same executor completes.
    Tok.reset();
    Status S2 = Ex.tryRun();
    EXPECT_TRUE(S2.ok()) << S2.str();
    EXPECT_TRUE(Ex.lastReport().AbortReason.empty());
  }
}

TEST(HardenedExecution, GenerousDeadlineCompletes) {
  FuzzCase F = makeCase(8);
  CompileResult R = compileEinsum(F.E);
  ExecOptions O;
  O.DeadlineMs = 60000;
  Tensor Out = run(R.Naive, F, O);
  FuzzCase F2 = makeCase(8);
  Tensor Ref = run(R.Naive, F2, ExecOptions());
  EXPECT_EQ(Out.vals(), Ref.vals());
}

TEST(HardenedExecution, TightDeadlineEitherCompletesOrAbortsCleanly) {
  // A 1 ms deadline on a small kernel is a race by construction; the
  // contract is that both outcomes are clean — completion, or a typed
  // DeadlineExceeded with the output restored.
  FuzzCase F = makeCase(13);
  CompileResult R = compileEinsum(F.E);
  Tensor Out = Tensor::dense(F.OutDims, 0.0);
  Out.setAllValues(F.OutInit);
  const std::vector<double> Before = Out.vals();
  ExecOptions O;
  O.DeadlineMs = 1;
  Executor Ex(R.Naive, O);
  for (auto &[Name, T] : F.Inputs)
    Ex.bind(Name, &T);
  Ex.bind("O", &Out);
  ASSERT_TRUE(Ex.tryPrepare().ok());
  Status S = Ex.tryRunBody();
  if (!S.ok()) {
    EXPECT_EQ(S.code(), ErrCode::DeadlineExceeded);
    EXPECT_EQ(Ex.lastReport().AbortReason, "deadline-exceeded");
    EXPECT_EQ(Out.vals(), Before);
  } else {
    EXPECT_TRUE(Ex.lastReport().AbortReason.empty());
  }
}

TEST(HardenedExecution, MemoryBudgetDegradesWithoutChangingResults) {
  // A one-element budget vetoes every privatized accumulator; the loop
  // degrades to the inner disjoint-write parallelization (or runs
  // sequentially) with bit-identical results on quantized data.
  FuzzCase F1 = makeCase(9);
  FuzzCase F2 = makeCase(9);
  CompileResult R = compileEinsum(F1.E);
  ExecOptions Unrestricted;
  Unrestricted.Threads = 4;
  ExecOptions Budgeted = Unrestricted;
  Budgeted.PrivatizationBudget = 1;
  Tensor Ref = run(R.Naive, F1, Unrestricted);
  Tensor Out = run(R.Naive, F2, Budgeted);
  EXPECT_EQ(Out.vals(), Ref.vals());
}

TEST(HardenedExecution, MalformedKernelInputsReturnTypedStatus) {
  // The Status surface of the other API boundaries: einsum syntax and
  // COO staging.
  Expected<Einsum> Bad = tryParseEinsum("bad", "O[i,j] += A[i,k * B[k,j]");
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.status().code(), ErrCode::InvalidArgument);

  Coo C({3, 3});
  C.add({2, 5}, 1.0); // column 5 outside a 3x3 extent
  Expected<Tensor> T = Tensor::tryFromCoo(std::move(C), TensorFormat::csf(2));
  ASSERT_FALSE(T.ok());
  EXPECT_EQ(T.status().code(), ErrCode::InvalidArgument);

  // An unbound operand surfaces from tryPrepare, not an abort.
  FuzzCase F = makeCase(4);
  CompileResult R = compileEinsum(F.E);
  Tensor Out = Tensor::dense(F.OutDims, 0.0);
  Executor Ex(R.Naive, ExecOptions());
  Ex.bind("O", &Out); // inputs deliberately left unbound
  Status S = Ex.tryPrepare();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrCode::UnboundTensor);
}
