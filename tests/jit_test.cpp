//===- tests/jit_test.cpp -------------------------------------*- C++ -*-===//
///
/// The JIT-compiled native engine and the engine-selection API:
///
///  - EngineRegistry resolution (typed lists, deprecated-boolean shims,
///    normalization notes, summaries).
///  - Native-vs-interpreter bit-identity and counter parity for every
///    paper kernel (the differential contract of docs/CODEGEN.md).
///  - On-disk .so cache reuse: a fresh "process" (simulated by dropping
///    the in-memory handle registry) over a warm cache directory
///    compiles nothing (native-compile phase pinned at 0).
///  - Graceful typed fallback when no host compiler is available
///    (forced via SYSTEC_JIT_DISABLE).
///  - PlanCache keying on the resolved engine list, and rebind's
///    engine-agreement check.
///
/// Tests that need the host compiler skip with a reason when it is not
/// runnable, so the suite stays green in degraded environments.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "data/Generators.h"
#include "jit/NativeKernelCache.h"
#include "kernels/Kernels.h"
#include "kernels/Oracle.h"
#include "runtime/EngineRegistry.h"
#include "runtime/Executor.h"
#include "runtime/PlanCache.h"
#include "support/Counters.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <limits>

#include <unistd.h>

using namespace systec;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// The ordered list that asks for the native engine with the standard
/// fallback chain behind it.
std::vector<Engine> nativeFirst() {
  return {Engine::Native, Engine::Fused, Engine::Interp};
}

bool haveCompiler(std::string *Reason = nullptr) {
  return jit::NativeKernelCache::compilerAvailable(Reason);
}

#define SKIP_WITHOUT_COMPILER()                                          \
  do {                                                                   \
    std::string Reason_;                                                 \
    if (!haveCompiler(&Reason_))                                         \
      GTEST_SKIP() << "no JIT toolchain: " << Reason_;                   \
  } while (0)

/// One workload: inputs plus output shape/initial value (mirrors the
/// end-to-end suite's generator).
struct Workload {
  Einsum E;
  std::map<std::string, Tensor> Inputs;
  std::vector<int64_t> OutDims;
  double OutInit = 0.0;
};

Workload makeWorkload(const std::string &Kernel, uint64_t Seed,
                      int64_t Scale) {
  Rng R(Seed);
  Workload W;
  if (Kernel == "ssymv") {
    W.E = makeSsymv();
    int64_t N = 20 * Scale;
    W.Inputs.emplace("A", generateSymmetricTensor(2, N, 4 * N, R,
                                                  TensorFormat::csf(2)));
    W.Inputs.emplace("x", generateDenseVector(N, R));
    W.OutDims = {N};
  } else if (Kernel == "bellmanford") {
    W.E = makeBellmanFord();
    int64_t N = 20 * Scale;
    W.Inputs.emplace("A", generateSymmetricTensor(2, N, 4 * N, R,
                                                  TensorFormat::csf(2),
                                                  Inf));
    W.Inputs.emplace("d", generateDenseVector(N, R));
    W.OutDims = {N};
    W.OutInit = Inf;
  } else if (Kernel == "syprd") {
    W.E = makeSyprd();
    int64_t N = 20 * Scale;
    W.Inputs.emplace("A", generateSymmetricTensor(2, N, 4 * N, R,
                                                  TensorFormat::csf(2)));
    W.Inputs.emplace("x", generateDenseVector(N, R));
    W.OutDims = {1};
  } else if (Kernel == "ssyrk") {
    W.E = makeSsyrk();
    int64_t N = 15 * Scale;
    W.Inputs.emplace("A", generateSparseMatrix(N, N, 5 * N, R,
                                               TensorFormat::csf(2)));
    W.OutDims = {N, N};
  } else if (Kernel == "ttm") {
    W.E = makeTtm();
    int64_t N = 8 * Scale, Rank = 5;
    W.Inputs.emplace("A", generateSymmetricTensor(3, N, 6 * N, R,
                                                  TensorFormat::csf(3)));
    W.Inputs.emplace("B", generateDenseMatrix(N, Rank, R));
    W.OutDims = {Rank, N, N};
  } else if (Kernel == "mttkrp3") {
    W.E = makeMttkrp(3);
    int64_t N = 7 + 2 * Scale, Rank = 4;
    W.Inputs.emplace("A", generateSymmetricTensor(3, N, 8 * N, R,
                                                  TensorFormat::csf(3)));
    W.Inputs.emplace("B", generateDenseMatrix(N, Rank, R));
    W.OutDims = {N, Rank};
  } else {
    ADD_FAILURE() << "unknown kernel " << Kernel;
  }
  return W;
}

struct RunResult {
  Tensor Out = Tensor::dense({1}, 0.0);
  obs::ExecReport Report;
  bool Native = false;
  Status NativeStatus = Status::success();
};

RunResult runKernel(const Kernel &K, Workload &W, ExecOptions Options) {
  RunResult R;
  R.Out = Tensor::dense(W.OutDims, 0.0);
  R.Out.setAllValues(W.OutInit);
  Executor E(K, Options);
  for (auto &[Name, T] : W.Inputs)
    E.bind(Name, &T);
  E.bind(W.E.Output->tensorName(), &R.Out);
  Status P = E.tryPrepare();
  EXPECT_TRUE(P.ok()) << P.str();
  R.Native = E.usesNativeEngine();
  if (!E.nativeStatus().ok())
    R.NativeStatus = Status::error(E.nativeStatus().code(),
                                   E.nativeStatus().str());
  Status S = E.tryRun(&R.Report);
  EXPECT_TRUE(S.ok()) << S.str();
  return R;
}

uint64_t phaseNs(const obs::ExecReport &R, const std::string &Name,
                 bool *Found = nullptr) {
  for (const obs::PhaseStat &P : R.Phases)
    if (P.Name == Name) {
      if (Found)
        *Found = true;
      return P.Ns;
    }
  if (Found)
    *Found = false;
  return 0;
}

/// A per-test scratch cache directory (removed on destruction).
struct ScratchCacheDir {
  std::string Path;
  ScratchCacheDir(const std::string &Tag) {
    Path = ::testing::TempDir() + "systec-jit-test-" + Tag + "-" +
           std::to_string(getpid());
    std::filesystem::remove_all(Path);
  }
  ~ScratchCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// EngineRegistry resolution
//===----------------------------------------------------------------------===//

TEST(EngineRegistry, EmptyListIsTheDefaultOrder) {
  // An empty request resolves to the order every default caller gets.
  EngineResolution R = resolveEngines({});
  EXPECT_EQ(R.Order, (std::vector<Engine>{Engine::Blocked, Engine::Fused,
                                          Engine::Interp}));
  EXPECT_TRUE(R.UseBlocked);
  EXPECT_TRUE(R.UseFused);
  EXPECT_FALSE(R.UseNative);
  EXPECT_TRUE(R.Notes.empty());

  // Interp alone is the pure interpreter.
  R = resolveEngines({Engine::Interp});
  EXPECT_EQ(R.Order, (std::vector<Engine>{Engine::Interp}));
  EXPECT_FALSE(R.UseFused);
  EXPECT_FALSE(R.UseBlocked);
}

TEST(EngineRegistry, ExplicitListNormalizes) {
  // Interp is appended when missing; duplicates collapse.
  EngineResolution R = resolveEngines({Engine::Fused, Engine::Fused});
  EXPECT_EQ(R.Order, (std::vector<Engine>{Engine::Fused, Engine::Interp}));

  // Native anywhere but first is dropped with a note.
  R = resolveEngines({Engine::Fused, Engine::Native});
  EXPECT_EQ(R.Order, (std::vector<Engine>{Engine::Fused, Engine::Interp}));
  EXPECT_FALSE(R.UseNative);
  ASSERT_EQ(R.Notes.size(), 1u);

  // Blocked without Fused gets Fused inserted (with a note).
  R = resolveEngines({Engine::Blocked});
  EXPECT_EQ(R.Order, (std::vector<Engine>{Engine::Blocked, Engine::Fused,
                                          Engine::Interp}));
  EXPECT_TRUE(R.UseFused);
  EXPECT_FALSE(R.Notes.empty());

  // Native-first is honored.
  R = resolveEngines(nativeFirst());
  EXPECT_EQ(R.Order, (std::vector<Engine>{Engine::Native, Engine::Fused,
                                          Engine::Interp}));
  EXPECT_TRUE(R.UseNative);
  EXPECT_TRUE(R.UseFused);
}

TEST(EngineRegistry, SummaryAndNames) {
  EXPECT_STREQ(engineName(Engine::Native), "native");
  EXPECT_EQ(enginesSummary(nativeFirst()), "native>fused>interp");
  Engine E;
  EXPECT_TRUE(parseEngine("blocked", E));
  EXPECT_EQ(E, Engine::Blocked);
  EXPECT_FALSE(parseEngine("turbo", E));
}

//===----------------------------------------------------------------------===//
// Differential: native engine vs interpreter, all paper kernels
//===----------------------------------------------------------------------===//

class NativeKernelSweep : public ::testing::TestWithParam<const char *> {};

TEST_P(NativeKernelSweep, BitIdenticalWithCounterParity) {
  SKIP_WITHOUT_COMPILER();
  setCountersEnabled(true);
  for (uint64_t Seed : {11u, 12u}) {
    Workload WI = makeWorkload(GetParam(), Seed, 2);
    Workload WN = makeWorkload(GetParam(), Seed, 2);
    CompileResult C = compileEinsum(WI.E);

    ExecOptions Interp;
    Interp.Engines = {Engine::Interp};
    RunResult RI = runKernel(C.Optimized, WI, Interp);
    EXPECT_FALSE(RI.Native);

    ExecOptions Native;
    Native.Engines = nativeFirst();
    RunResult RN = runKernel(C.Optimized, WN, Native);
    ASSERT_TRUE(RN.Native) << RN.NativeStatus.str();

    // Bit identity: the emitted body replicates the interpreter's
    // sequential fold order, so outputs match exactly — not to a
    // tolerance.
    EXPECT_EQ(Tensor::maxAbsDiff(RN.Out, RI.Out), 0.0)
        << GetParam() << " seed " << Seed;

    // Counter parity at the interpreter's exact charge points.
    EXPECT_EQ(RN.Report.Counters.SparseReads, RI.Report.Counters.SparseReads);
    EXPECT_EQ(RN.Report.Counters.Reductions, RI.Report.Counters.Reductions);
    EXPECT_EQ(RN.Report.Counters.ScalarOps, RI.Report.Counters.ScalarOps);
    EXPECT_EQ(RN.Report.Counters.OutputWrites,
              RI.Report.Counters.OutputWrites);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperKernels, NativeKernelSweep,
                         ::testing::Values("ssymv", "bellmanford", "syprd",
                                           "ssyrk", "ttm", "mttkrp3"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

//===----------------------------------------------------------------------===//
// On-disk cache reuse across (simulated) processes
//===----------------------------------------------------------------------===//

TEST(NativeCache, WarmStartCompilesNothing) {
  SKIP_WITHOUT_COMPILER();
  ScratchCacheDir Dir("warm");

  Workload W1 = makeWorkload("ssymv", 5, 1);
  CompileResult C = compileEinsum(W1.E);
  ExecOptions Opt;
  Opt.Engines = nativeFirst();
  Opt.NativeCacheDir = Dir.Path;

  // Cold: the compiler actually runs.
  RunResult R1 = runKernel(C.Optimized, W1, Opt);
  ASSERT_TRUE(R1.Native) << R1.NativeStatus.str();
  bool Found = false;
  EXPECT_GT(phaseNs(R1.Report, "native-compile", &Found), 0u);
  EXPECT_TRUE(Found);

  // The cache directory now holds the source and the object.
  size_t Cpp = 0, So = 0;
  for (const auto &Ent : std::filesystem::directory_iterator(Dir.Path)) {
    if (Ent.path().extension() == ".cpp")
      ++Cpp;
    if (Ent.path().extension() == ".so")
      ++So;
  }
  EXPECT_EQ(Cpp, 1u);
  EXPECT_EQ(So, 1u);

  // Simulate a fresh process over the warm directory: drop the
  // in-memory handle registry, then prepare the same kernel again. The
  // .so must be reused straight from disk — zero compiler time.
  jit::NativeKernelCache::instance().dropHandles();
  Workload W2 = makeWorkload("ssymv", 5, 1);
  RunResult R2 = runKernel(C.Optimized, W2, Opt);
  ASSERT_TRUE(R2.Native) << R2.NativeStatus.str();
  EXPECT_EQ(phaseNs(R2.Report, "native-compile", &Found), 0u);
  EXPECT_TRUE(Found);
  EXPECT_EQ(Tensor::maxAbsDiff(R2.Out, R1.Out), 0.0);
}

//===----------------------------------------------------------------------===//
// Graceful degradation without a compiler
//===----------------------------------------------------------------------===//

TEST(NativeFallback, DisabledJitFallsBackTyped) {
  Workload WI = makeWorkload("ssymv", 7, 1);
  Workload WN = makeWorkload("ssymv", 7, 1);
  CompileResult C = compileEinsum(WI.E);

  ExecOptions Interp;
  Interp.Engines = {Engine::Interp};
  RunResult RI = runKernel(C.Optimized, WI, Interp);

  setenv("SYSTEC_JIT_DISABLE", "1", 1);
  ExecOptions Opt;
  Opt.Engines = nativeFirst();
  RunResult RN = runKernel(C.Optimized, WN, Opt);
  unsetenv("SYSTEC_JIT_DISABLE");

  // Prepare and run both succeeded; the executor fell back to the rest
  // of the preference list and recorded why as a typed Status.
  EXPECT_FALSE(RN.Native);
  EXPECT_EQ(RN.NativeStatus.code(), ErrCode::ResourceExhausted)
      << RN.NativeStatus.str();
  EXPECT_EQ(Tensor::maxAbsDiff(RN.Out, RI.Out), 0.0);
}

//===----------------------------------------------------------------------===//
// PlanCache keys on the resolved engine list
//===----------------------------------------------------------------------===//

TEST(EngineKeys, ResolvedListKeysPlans) {
  Workload W = makeWorkload("ssymv", 3, 1);
  CompileResult C = compileEinsum(W.E);
  std::map<std::string, Tensor *> B;
  for (auto &[Name, T] : W.Inputs)
    B[Name] = &T;
  Tensor Out = Tensor::dense(W.OutDims, 0.0);
  B[W.E.Output->tensorName()] = &Out;

  ExecOptions Default; // empty Engines: the default order
  ExecOptions Typed;
  Typed.Engines = {Engine::Blocked, Engine::Fused, Engine::Interp};
  ExecOptions Normalized; // native dropped (not first) -> same as Typed
  Normalized.Engines = {Engine::Blocked, Engine::Fused, Engine::Native,
                        Engine::Interp};
  ExecOptions NativeOpt;
  NativeOpt.Engines = nativeFirst();

  const std::string KDefault = PlanCache::makeKey(W.E, B, Default);
  const std::string KTyped = PlanCache::makeKey(W.E, B, Typed);
  const std::string KNorm = PlanCache::makeKey(W.E, B, Normalized);
  const std::string KNative = PlanCache::makeKey(W.E, B, NativeOpt);

  // Equivalent requests share one plan; native-first is distinct.
  EXPECT_EQ(KDefault, KTyped);
  EXPECT_EQ(KTyped, KNorm);
  EXPECT_NE(KNative, KDefault);
  EXPECT_NE(KDefault.find("engines=blocked>fused>interp"),
            std::string::npos);
  EXPECT_NE(KNative.find("engines=native>fused>interp"), std::string::npos);

  // The .so cache directory is a per-request knob, never a key field.
  ExecOptions Dir = NativeOpt;
  Dir.NativeCacheDir = "/nonexistent/elsewhere";
  EXPECT_EQ(PlanCache::makeKey(W.E, B, Dir), KNative);

  // The executor's options summary renders the same resolved list:
  // summary and key share one structural renderer, so a knob keyed in
  // one cannot be missed in the other.
  EXPECT_NE(
      execOptionsSummary(Normalized).find("engines=blocked>fused>interp"),
      std::string::npos);
  const std::string Structural = structuralOptionsSummary(NativeOpt);
  EXPECT_EQ(execOptionsSummary(NativeOpt).rfind(Structural, 0), 0u);
  EXPECT_NE(KNative.find(";opts " + Structural), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Rebind: engine agreement plus native repatching
//===----------------------------------------------------------------------===//

TEST(NativeRebind, EngineMismatchIsTyped) {
  SKIP_WITHOUT_COMPILER();
  Workload W = makeWorkload("ssymv", 13, 1);
  CompileResult C = compileEinsum(W.E);
  ExecOptions Opt;
  Opt.Engines = nativeFirst();
  Tensor Out = Tensor::dense(W.OutDims, 0.0);
  Executor E(C.Optimized, Opt);
  for (auto &[Name, T] : W.Inputs)
    E.bind(Name, &T);
  E.bind(W.E.Output->tensorName(), &Out);
  ASSERT_TRUE(E.tryPrepare().ok());

  std::map<std::string, Tensor *> Same;
  for (auto &[Name, T] : W.Inputs)
    Same[Name] = &T;
  Same[W.E.Output->tensorName()] = &Out;

  ExecOptions Different; // resolves to fused>interp
  Status S = E.rebind(Same, Different);
  EXPECT_EQ(S.code(), ErrCode::InvalidArgument);
  EXPECT_NE(S.str().find("engine mismatch"), std::string::npos) << S.str();
}

TEST(NativeRebind, ReboundTensorsRunNatively) {
  SKIP_WITHOUT_COMPILER();
  Workload W1 = makeWorkload("ssymv", 17, 1);
  CompileResult C = compileEinsum(W1.E);

  ExecOptions Opt;
  Opt.Engines = nativeFirst();
  Tensor Out = Tensor::dense(W1.OutDims, 0.0);
  Executor E(C.Optimized, Opt);
  for (auto &[Name, T] : W1.Inputs)
    E.bind(Name, &T);
  E.bind(W1.E.Output->tensorName(), &Out);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.usesNativeEngine()) << E.nativeStatus().str();
  ASSERT_TRUE(E.tryRun().ok());

  // Rebind to a same-structure copy of the inputs with fresh values
  // (same seed, fresh generation) and a zeroed output: the native body
  // marshals operand pointers per call, so the rebound run must see the
  // new tensors.
  Workload W1b = makeWorkload("ssymv", 17, 1);
  for (auto &[Name, T] : W1b.Inputs)
    for (double &V : T.vals())
      V *= 2.0;
  Tensor Out2 = Tensor::dense(W1.OutDims, 0.0);
  std::map<std::string, Tensor *> NewB;
  for (auto &[Name, T] : W1b.Inputs)
    NewB[Name] = &T;
  NewB[W1.E.Output->tensorName()] = &Out2;
  obs::ExecReport Rep;
  Status S = E.rebind(NewB, Opt);
  ASSERT_TRUE(S.ok()) << S.str();
  ASSERT_TRUE(E.tryRun(&Rep).ok());
  bool Found = false;
  EXPECT_EQ(phaseNs(Rep, "native-compile", &Found), 0u);
  EXPECT_TRUE(Found);

  // Reference: interpreter over the same doubled inputs.
  ExecOptions Interp;
  Interp.Engines = {Engine::Interp};
  Workload WRef = makeWorkload("ssymv", 17, 1);
  for (auto &[Name, T] : WRef.Inputs)
    for (double &V : T.vals())
      V *= 2.0;
  RunResult RI = runKernel(C.Optimized, WRef, Interp);
  EXPECT_EQ(Tensor::maxAbsDiff(Out2, RI.Out), 0.0);
}

//===----------------------------------------------------------------------===//
// Emitted source is exposed for diagnostics and compile checks
//===----------------------------------------------------------------------===//

TEST(NativeSource, ExposedAfterPrepare) {
  SKIP_WITHOUT_COMPILER();
  Workload W = makeWorkload("syprd", 19, 1);
  CompileResult C = compileEinsum(W.E);
  ExecOptions Opt;
  Opt.Engines = nativeFirst();
  Tensor Out = Tensor::dense(W.OutDims, 0.0);
  Executor E(C.Optimized, Opt);
  for (auto &[Name, T] : W.Inputs)
    E.bind(Name, &T);
  E.bind(W.E.Output->tensorName(), &Out);
  ASSERT_TRUE(E.tryPrepare().ok());
  ASSERT_TRUE(E.usesNativeEngine()) << E.nativeStatus().str();
  EXPECT_NE(E.nativeSource().find("systec_native_run"), std::string::npos);
  EXPECT_NE(E.nativeSource().find("systec_ntensor"), std::string::npos);
}
