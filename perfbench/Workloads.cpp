//===- perfbench/Workloads.cpp --------------------------------*- C++ -*-===//

#include "Workloads.h"

#include "baselines/Baselines.h"
#include "data/Generators.h"
#include "kernels/Kernels.h"
#include "kernels/Oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <tuple>

using namespace systec;

namespace perfbench {

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// Generates one input set. \p Extent is the size of every mode; \p Rank
/// the dense factor width of ttm/mttkrp; \p NnzPerRow scales the number
/// of canonical (or, for ssyrk, stored) nonzeros with the extent.
std::shared_ptr<InputSet> makeSet(const std::string &Kernel, int64_t Extent,
                                  int64_t Rank, int64_t NnzPerRow, Rng &R) {
  auto S = std::make_shared<InputSet>();
  S->Kernel = Kernel;
  const int64_t N = Extent;
  auto SymA = [&](unsigned Order, double Fill) {
    S->Inputs.emplace("A", generateSymmetricTensor(Order, N, NnzPerRow * N, R,
                                                   TensorFormat::csf(Order),
                                                   Fill));
  };
  if (Kernel == "ssymv" || Kernel == "syprd") {
    S->E = Kernel == "ssymv" ? makeSsymv() : makeSyprd();
    SymA(2, 0.0);
    S->Inputs.emplace("x", generateDenseVector(N, R));
    S->OutDims = Kernel == "ssymv" ? std::vector<int64_t>{N}
                                   : std::vector<int64_t>{1};
  } else if (Kernel == "bellmanford") {
    S->E = makeBellmanFord();
    SymA(2, Inf);
    S->Inputs.emplace("d", generateDenseVector(N, R));
    S->OutDims = {N};
    S->OutInit = Inf;
  } else if (Kernel == "ssyrk") {
    S->E = makeSsyrk();
    S->Inputs.emplace("A", generateSparseMatrix(N, N, NnzPerRow * N, R,
                                                TensorFormat::csf(2)));
    S->OutDims = {N, N};
  } else if (Kernel == "ttm") {
    S->E = makeTtm();
    SymA(3, 0.0);
    S->Inputs.emplace("B", generateDenseMatrix(N, Rank, R));
    S->OutDims = {Rank, N, N};
  } else { // mttkrp3, mttkrp4, mttkrp5
    const unsigned Order = unsigned(Kernel.back() - '0');
    S->E = makeMttkrp(Order);
    SymA(Order, 0.0);
    S->Inputs.emplace("B", generateDenseMatrix(N, Rank, R));
    S->OutDims = {N, Rank};
  }
  return S;
}

/// A request over \p S's persistent inputs with a fresh output.
Request makeRequest(const std::shared_ptr<InputSet> &S, uint64_t Id,
                    const ExecOptions &O) {
  Request Rq;
  Rq.Id = Id;
  Rq.Set = S;
  Rq.Options = O;
  for (auto &[Name, T] : S->Inputs)
    Rq.Bindings[Name] = &T;
  auto Out = std::make_unique<Tensor>(Tensor::dense(S->OutDims, 0.0));
  Out->setAllValues(S->OutInit);
  Rq.Bindings[S->E.Output->tensorName()] = Out.get();
  Rq.Fresh.push_back(std::move(Out));
  return Rq;
}

/// A seeded draw over N choices in blocks: each block of N draws is a
/// random permutation, so every run has the same kernel composition
/// (which keeps its latency percentiles steady across seeds) while the
/// order stays random.
class ShuffledBlocks {
public:
  explicit ShuffledBlocks(size_t N) : Perm(N), At(N) {
    for (size_t I = 0; I < N; ++I)
      Perm[I] = I;
  }
  size_t next(Rng &R) {
    if (At == Perm.size()) {
      std::shuffle(Perm.begin(), Perm.end(), R.engine());
      At = 0;
    }
    return Perm[At++];
  }

private:
  std::vector<size_t> Perm;
  size_t At;
};

/// ssymv_solver: power iteration y = A x, x <- y / |y|, on one symmetric
/// A held across requests.
class SsymvSolver : public Workload {
public:
  explicit SsymvSolver(uint64_t Seed) {
    Rng R(Seed);
    Set = makeSet("ssymv", N, 0, 10, R);
    X = std::make_unique<Tensor>(Set->Inputs.at("x"));
    Set->Inputs.erase("x");
    Info = {"ssymv_solver", 1, 1, 1, false,
            "A sym CSC N=" + std::to_string(N) + ", " +
                std::to_string(Set->Inputs.at("A").storedCount()) +
                " stored nnz; x, y dense N"};
  }
  std::vector<Request> warmUp(unsigned) override {
    std::vector<Request> Out;
    Out.push_back(next());
    return Out;
  }
  Request next() override {
    Request Rq = makeRequest(Set, NextId++, ExecOptions());
    auto XCopy = std::make_unique<Tensor>(*X);
    Rq.Bindings["x"] = XCopy.get();
    Rq.Fresh.push_back(std::move(XCopy));
    return Rq;
  }
  void completed(const Request &Rq) override {
    const std::vector<double> &Y = Rq.output().vals();
    double Norm = 0;
    for (double V : Y)
      Norm += V * V;
    Norm = std::sqrt(Norm);
    std::vector<double> &XV = X->vals();
    for (size_t I = 0; I < XV.size(); ++I)
      XV[I] = Norm > 0 ? Y[I] / Norm : 1.0;
  }

private:
  static constexpr int64_t N = 20000;
  std::shared_ptr<InputSet> Set;
  std::unique_ptr<Tensor> X;
};

/// ssyrk_update: C = A A^T over a pool of same-shape unsymmetric A, a
/// fresh dense C per request, 4 threads per request.
class SsyrkUpdate : public Workload {
public:
  explicit SsyrkUpdate(uint64_t Seed) {
    Rng R(Seed);
    for (int P = 0; P < PoolSize; ++P)
      Pool.push_back(makeSet("ssyrk", N, 0, 6, R));
    Info = {"ssyrk_update", 1, 4, 1, false,
            "A unsym CSC N=" + std::to_string(N) + " ~6 nnz/row, pool of " +
                std::to_string(PoolSize) + "; C dense NxN"};
  }
  std::vector<Request> warmUp(unsigned) override {
    std::vector<Request> Out;
    Out.push_back(next());
    return Out;
  }
  Request next() override {
    ExecOptions O;
    O.Threads = 4;
    const uint64_t Id = NextId++;
    return makeRequest(Pool[Id % PoolSize], Id, O);
  }

private:
  static constexpr int64_t N = 1500;
  static constexpr int PoolSize = 4;
  std::vector<std::shared_ptr<InputSet>> Pool;
};

/// concurrent_mix: a seeded draw over the six paper kernels, several
/// same-structure input sets per kernel, 4 requests in flight.
class ConcurrentMix : public Workload {
public:
  explicit ConcurrentMix(uint64_t Seed) : Draw(Seed ^ 0x9E3779B97F4A7C15ull) {
    Rng R(Seed);
    for (const Shape &S : Shapes) {
      std::vector<std::shared_ptr<InputSet>> Sets;
      for (int I = 0; I < SetsPerKernel; ++I)
        Sets.push_back(makeSet(S.Kernel, S.Extent, S.Rank, S.NnzPerRow, R));
      BySet.push_back(std::move(Sets));
    }
    std::string Sizes;
    for (const Shape &S : Shapes)
      Sizes += std::string(Sizes.empty() ? "" : ", ") + S.Kernel + " n=" +
               std::to_string(S.Extent) +
               (S.Rank ? " r=" + std::to_string(S.Rank) : "");
    Info = {"concurrent_mix", 4, 1, 4, false,
            Sizes + "; " + std::to_string(SetsPerKernel) +
                " input sets per kernel"};
  }
  std::vector<Request> warmUp(unsigned) override {
    std::vector<Request> Out;
    for (auto &Sets : BySet)
      Out.push_back(makeRequest(Sets[0], NextId++, ExecOptions()));
    return Out;
  }
  Request next() override {
    auto &Sets = BySet[Order.next(Draw)];
    auto &Set = Sets[size_t(Draw.nextIndex(int64_t(Sets.size())))];
    return makeRequest(Set, NextId++, ExecOptions());
  }

private:
  struct Shape {
    const char *Kernel;
    int64_t Extent, Rank, NnzPerRow;
  };
  static constexpr Shape Shapes[] = {
      {"ssymv", 1200, 0, 10}, {"bellmanford", 1200, 0, 10},
      {"syprd", 1200, 0, 10}, {"ssyrk", 250, 0, 6},
      {"ttm", 40, 8, 10},     {"mttkrp3", 96, 8, 20}};
  static constexpr int SetsPerKernel = 3;
  Rng Draw;
  ShuffledBlocks Order{std::size(Shapes)};
  std::vector<std::vector<std::shared_ptr<InputSet>>> BySet;
};

/// cold_shapes: every request a (kernel, extent, rank) never seen
/// before in the process, on the native engine with a private .so
/// cache, so the plan cache, the .so cache and the in-process dlopen
/// registry all miss.
class ColdShapes : public Workload {
public:
  ColdShapes(uint64_t Seed, std::string SoDir)
      : Draw(Seed), SoDir(std::move(SoDir)) {
    std::string Sizes;
    for (const Menu &M : Menus) {
      Sizes += std::string(Sizes.empty() ? "" : ", ") + M.Kernel + " n=" +
               std::to_string(M.Lo) + ".." + std::to_string(M.Hi);
      Visits.push_back({Draw.nextDouble(), Draw.nextDouble(), 0});
    }
    Info = {"cold_shapes", 1, 1, 1, true,
            Sizes + "; ranks 2..8; engines={native}"};
  }
  std::vector<Request> warmUp(unsigned Rep) override {
    // ssymv extents above every measured range: never drawn below.
    Rng R(Rep);
    std::vector<Request> Out;
    Out.push_back(
        makeRequest(makeSet("ssymv", 1000 + Rep, 0, 4, R), NextId++, opts()));
    return Out;
  }
  /// Extents and ranks follow a seeded low-discrepancy sequence per
  /// kernel (offsets from the seed, golden-ratio steps), so any run covers
  /// each kernel's range evenly: compile time depends on the extents, and
  /// an even cover keeps the percentiles steady across seeds.
  Request next() override {
    const size_t K = Order.next(Draw);
    const Menu &M = Menus[K];
    Visit &V = Visits[K];
    for (int Tries = 0; Tries < 10000; ++Tries) {
      const double J = double(V.Count++);
      const int64_t N =
          M.Lo + int64_t(frac(V.U + J * 0.6180339887498949) *
                         double(M.Hi - M.Lo + 1));
      const int64_t Rank =
          M.MaxRank ? 2 + int64_t(frac(V.W + J * 0.4142135623730951) *
                                  double(M.MaxRank - 1))
                    : 0;
      if (Seen.insert({M.Kernel, N, Rank}).second)
        return makeRequest(makeSet(M.Kernel, N, Rank, 4, Draw), NextId++,
                           opts());
    }
    throw std::runtime_error(std::string("cold_shapes ran out of unseen ") +
                             M.Kernel + " shapes");
  }

private:
  struct Menu {
    const char *Kernel;
    int64_t Lo, Hi;
    int64_t MaxRank; ///< 0: the kernel has no dense factor
  };
  struct Visit {
    double U, W;
    uint64_t Count;
  };
  static double frac(double X) { return X - std::floor(X); }
  // Extents stay small: the point is the front end and the host
  // compiler, and oracleEval checks mttkrp4/5 by brute force. Every
  // kernel has at least 42 shapes, several times what a run draws.
  static constexpr Menu Menus[] = {
      {"ssymv", 32, 512, 0},  {"bellmanford", 32, 512, 0},
      {"syprd", 32, 512, 0},  {"ssyrk", 16, 128, 0},
      {"ttm", 6, 24, 8},      {"mttkrp3", 6, 32, 8},
      {"mttkrp4", 5, 12, 8},  {"mttkrp5", 4, 9, 8}};
  ExecOptions opts() const {
    ExecOptions O;
    O.Engines = {Engine::Native};
    O.NativeCacheDir = SoDir;
    return O;
  }
  Rng Draw;
  ShuffledBlocks Order{std::size(Menus)};
  std::vector<Visit> Visits;
  std::string SoDir;
  std::set<std::tuple<std::string, int64_t, int64_t>> Seen;
};

/// The reference output for \p R, from code that shares nothing with
/// the compiler or the executor.
Tensor reference(const Request &R) {
  const InputSet &S = *R.Set;
  auto In = [&](const char *Name) -> const Tensor & {
    return *R.Bindings.at(Name);
  };
  Tensor Ref = Tensor::dense(S.OutDims, 0.0);
  Ref.setAllValues(S.OutInit);
  if (S.Kernel == "ssymv")
    tacoSpmv(In("A"), In("x"), Ref);
  else if (S.Kernel == "bellmanford")
    tacoBellmanFord(In("A"), In("d"), Ref);
  else if (S.Kernel == "syprd")
    Ref.vals()[0] = tacoSyprd(In("A"), In("x"));
  else if (S.Kernel == "ssyrk")
    tacoSsyrk(In("A"), Ref);
  else if (S.Kernel == "ttm")
    tacoTtm(In("A"), In("B"), Ref);
  else if (S.Kernel == "mttkrp3")
    tacoMttkrp3(In("A"), In("B"), Ref);
  else
    Ref = oracleEval(S.E, {{"A", &In("A")}, {"B", &In("B")}});
  return Ref;
}

} // namespace

Tensor &Request::output() const {
  return *Bindings.at(Set->E.Output->tensorName());
}

KernelRequest Request::toKernelRequest() const {
  KernelRequest R;
  R.Label = Set->Kernel + "-" + std::to_string(Id);
  R.E = Set->E;
  R.Bindings = Bindings;
  R.Options = Options;
  return R;
}

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "ssymv_solver", "ssyrk_update", "concurrent_mix", "cold_shapes"};
  return Names;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed,
                                       const std::string &ScratchDir) {
  if (Name == "ssymv_solver")
    return std::make_unique<SsymvSolver>(Seed);
  if (Name == "ssyrk_update")
    return std::make_unique<SsyrkUpdate>(Seed);
  if (Name == "concurrent_mix")
    return std::make_unique<ConcurrentMix>(Seed);
  if (Name == "cold_shapes")
    return std::make_unique<ColdShapes>(Seed, ScratchDir);
  return nullptr;
}

bool checkOutput(const Request &R, std::string &Why) {
  const Tensor &Out = R.output();
  const Tensor Ref = reference(R);
  const std::vector<double> &O = Out.vals(), &X = Ref.vals();
  if (Out.dims() != Ref.dims() || O.size() != X.size()) {
    Why = "output shape differs from the reference";
    return false;
  }
  double MaxRef = 0, MaxErr = 0;
  for (size_t I = 0; I < X.size(); ++I) {
    if (std::isnan(O[I]) || std::isinf(O[I]) || std::isinf(X[I])) {
      if (O[I] != X[I]) {
        Why = "entry " + std::to_string(I) + " is " + std::to_string(O[I]) +
              ", reference " + std::to_string(X[I]);
        return false;
      }
      continue;
    }
    MaxRef = std::max(MaxRef, std::fabs(X[I]));
    MaxErr = std::max(MaxErr, std::fabs(O[I] - X[I]));
  }
  if (MaxErr > RelTol * MaxRef) {
    Why = "max error " + std::to_string(MaxErr) + " exceeds " +
          std::to_string(RelTol) + " x max|ref| " + std::to_string(MaxRef);
    return false;
  }
  return true;
}

} // namespace perfbench
