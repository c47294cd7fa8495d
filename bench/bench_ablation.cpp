//===- bench/bench_ablation.cpp - Pass ablation study ---------*- C++ -*-===//
///
/// \file
/// Ablation benchmark for the design choices DESIGN.md calls out: each
/// optimization pass / runtime feature is disabled individually on
/// SSYMV (bandwidth-bound) and 3-d MTTKRP (compute-bound) and timed
/// against the full pipeline. This quantifies the contribution of
/// diagonal splitting (4.2.9), workspaces (4.2.8), concordization
/// (4.2.3), block consolidation + grouping + lookup tables
/// (4.2.4-4.2.6), and the runtime's bound lifting.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Compiler.h"
#include "kernels/Kernels.h"

using namespace systec;
using namespace systec::bench;

namespace {

struct Variant {
  const char *Name;
  PipelineOptions Pipeline;
  ExecOptions Exec;
};

std::vector<Variant> variants() {
  std::vector<Variant> Out;
  Out.push_back({"full", {}, {}});
  {
    Variant V{"no_split", {}, {}};
    V.Pipeline.DiagonalSplit = false;
    Out.push_back(V);
  }
  {
    Variant V{"no_workspace", {}, {}};
    V.Pipeline.Workspace = false;
    Out.push_back(V);
  }
  {
    Variant V{"no_concordize", {}, {}};
    V.Pipeline.Concordize = false;
    Out.push_back(V);
  }
  {
    Variant V{"no_blockmerge", {}, {}};
    V.Pipeline.ConsolidateBlocks = false;
    V.Pipeline.GroupAcrossBranches = false;
    V.Pipeline.SimplicialLut = false;
    Out.push_back(V);
  }
  {
    Variant V{"no_distributive", {}, {}};
    V.Pipeline.DistributiveGrouping = false;
    Out.push_back(V);
  }
  {
    Variant V{"no_cse", {}, {}};
    V.Pipeline.CommonAccessElimination = false;
    Out.push_back(V);
  }
  {
    Variant V{"no_boundlift", {}, {}};
    V.Exec.EnableBoundLifting = false;
    Out.push_back(V);
  }
  {
    // The plan interpreter alone (no fused micro-kernels).
    Variant V{"no_microkernels", {}, {}};
    V.Exec.Engines = {Engine::Interp};
    Out.push_back(V);
  }
  {
    // Fused nests without the register/cache-blocked output engine
    // (per-column fiber walks and rebinds instead of column panels).
    Variant V{"no_blocking", {}, {}};
    V.Exec.Engines = {Engine::Fused, Engine::Interp};
    Out.push_back(V);
  }
  {
    // The JIT-compiled whole-body engine first, standard fallback chain
    // behind it. Degrades to fused automatically when no host compiler
    // is available, so the variant always runs.
    Variant V{"engine_native", {}, {}};
    V.Exec.Engines = {Engine::Native, Engine::Fused, Engine::Interp};
    Out.push_back(V);
  }
  return Out;
}

/// Prints the plan-specialization outcome for one prepared executor
/// (the micro-kernel ablation's coverage metric: how many loop
/// subtrees run fused vs. interpreted).
void printSpecialization(const char *Workload, const char *Variant,
                         const Executor &E) {
  const MicroKernelStats &S = E.microKernelStats();
  std::printf("  specialization %-10s %-16s fused=%llu (innermost %llu) "
              "generic=%llu walkers=%llu co=%llu (nway %llu) lut=%llu "
              "prebind=%llu blocked=%llu (accum %llu)\n",
              Workload, Variant,
              static_cast<unsigned long long>(S.SpecializedLoops),
              static_cast<unsigned long long>(S.InnermostFused),
              static_cast<unsigned long long>(S.GenericLoops),
              static_cast<unsigned long long>(S.WalkersRegistered),
              static_cast<unsigned long long>(S.FusedCoWalkers),
              static_cast<unsigned long long>(S.FusedNWalkerLoops),
              static_cast<unsigned long long>(S.FusedLutFactors),
              static_cast<unsigned long long>(S.PrebindSlots),
              static_cast<unsigned long long>(S.BlockedLoops),
              static_cast<unsigned long long>(S.BlockedAccumLoops));
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  Rng R(20260618);

  std::vector<std::unique_ptr<Holder>> Holders;
  std::vector<Row> SsymvRows, MttkrpRows;

  // SSYMV workload: 8000x8000, ~64k nonzeros.
  auto HS = std::make_unique<Holder>();
  HS->Tensors.emplace("A", generateSymmetricTensor(2, 8000, 32000, R,
                                                   TensorFormat::csf(2)));
  HS->Tensors.emplace("x", generateDenseVector(8000, R));
  HS->Tensors.emplace("y", Tensor::dense({8000}));

  // MTTKRP workload: 60^3, ~30k nonzeros, rank 32.
  auto HM = std::make_unique<Holder>();
  HM->Tensors.emplace("A", generateSymmetricTensor(3, 60, 5000, R,
                                                   TensorFormat::csf(3)));
  HM->Tensors.emplace("B", generateDenseMatrix(60, 32, R));
  HM->Tensors.emplace("C", Tensor::dense({60, 32}));

  Einsum SsymvE = makeSsymv();
  Einsum MttkrpE = makeMttkrp(3);

  // Naive references.
  {
    CompileResult C = compileEinsum(SsymvE);
    Executor &N = HS->addExecutor(C.Naive);
    N.bind("A", &HS->tensor("A")).bind("x", &HS->tensor("x"))
        .bind("y", &HS->tensor("y"));
    N.prepare();
    Tensor *Y = &HS->tensor("y");
    registerRun("ablation/ssymv/naive", [Y] { Y->setAllValues(0); },
                [&N] { N.runBody(); });
  }
  {
    CompileResult C = compileEinsum(MttkrpE);
    Executor &N = HM->addExecutor(C.Naive);
    N.bind("A", &HM->tensor("A")).bind("B", &HM->tensor("B"))
        .bind("C", &HM->tensor("C"));
    N.prepare();
    Tensor *Out = &HM->tensor("C");
    registerRun("ablation/mttkrp3/naive", [Out] { Out->setAllValues(0); },
                [&N] { N.runBody(); });
  }

  for (const Variant &V : variants()) {
    {
      CompileResult C = compileEinsum(SsymvE, V.Pipeline);
      Holders.push_back(std::make_unique<Holder>());
      Holder &H = *Holders.back();
      H.Executors.push_back(
          std::make_unique<Executor>(C.Optimized, V.Exec));
      Executor &E = *H.Executors.back();
      E.bind("A", &HS->tensor("A")).bind("x", &HS->tensor("x"))
          .bind("y", &HS->tensor("y"));
      E.prepare();
      printSpecialization("ssymv", V.Name, E);
      Tensor *Y = &HS->tensor("y");
      std::string Name = std::string("ablation/ssymv/") + V.Name;
      registerRun(Name, [Y] { Y->setAllValues(0); },
                  [&E] { E.runBody(); });
      Row RowEntry;
      RowEntry.Label = std::string("ssymv ") + V.Name;
      RowEntry.Entries.push_back({"naive", "ablation/ssymv/naive"});
      RowEntry.Entries.push_back({"systec", Name});
      SsymvRows.push_back(RowEntry);
    }
    {
      CompileResult C = compileEinsum(MttkrpE, V.Pipeline);
      Holders.push_back(std::make_unique<Holder>());
      Holder &H = *Holders.back();
      H.Executors.push_back(
          std::make_unique<Executor>(C.Optimized, V.Exec));
      Executor &E = *H.Executors.back();
      E.bind("A", &HM->tensor("A")).bind("B", &HM->tensor("B"))
          .bind("C", &HM->tensor("C"));
      E.prepare();
      printSpecialization("mttkrp3", V.Name, E);
      Tensor *Out = &HM->tensor("C");
      std::string Name = std::string("ablation/mttkrp3/") + V.Name;
      registerRun(Name, [Out] { Out->setAllValues(0); },
                  [&E] { E.runBody(); });
      Row RowEntry;
      RowEntry.Label = std::string("mttkrp3 ") + V.Name;
      RowEntry.Entries.push_back({"naive", "ablation/mttkrp3/naive"});
      RowEntry.Entries.push_back({"systec", Name});
      MttkrpRows.push_back(RowEntry);
    }
  }
  Holders.push_back(std::move(HS));
  Holders.push_back(std::move(HM));

  CaptureReporter Rep;
  benchmark::RunSpecifiedBenchmarks(&Rep);
  printSpeedups(Rep, "Ablation: SSYMV (speedup vs naive per variant)",
                {"naive", "systec"}, SsymvRows);
  printSpeedups(Rep, "Ablation: MTTKRP-3d (speedup vs naive per variant)",
                {"naive", "systec"}, MttkrpRows);
  return 0;
}
