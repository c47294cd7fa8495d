//===- perfbench/Workloads.h - Seeded request workloads -------*- C++ -*-===//
///
/// \file
/// The four request workloads of the caller-side benchmark and the
/// reference checks their outputs are held to. A workload turns a seed
/// into input sets and then into an endless, deterministic sequence of
/// requests; the program under test only ever sees the generated
/// tensors. References come from src/baselines (hand-written TACO-style
/// loops) and, for mttkrp4/5, from the brute-force oracleEval: neither
/// shares code with the compiler or the executor.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "ir/Einsum.h"
#include "runtime/Executor.h"
#include "runtime/KernelService.h"
#include "support/Random.h"
#include "tensor/Tensor.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Max-norm relative tolerance every output is checked against:
/// max|out - ref| <= RelTol * max|ref| (infinite reference entries must
/// match exactly). Fold orders differ between the compiled kernels and
/// the references, so bit equality is not expected.
constexpr double RelTol = 1e-9;

/// One kernel with inputs that persist across the requests using it.
struct InputSet {
  std::string Kernel; ///< "ssymv", "bellmanford", ..., "mttkrp5"
  systec::Einsum E;
  std::map<std::string, systec::Tensor> Inputs;
  std::vector<int64_t> OutDims;
  double OutInit = 0.0;
};

/// One request: persistent inputs from an InputSet plus the tensors
/// made fresh for it (always the output; ssymv_solver's x as well).
struct Request {
  uint64_t Id = 0;
  std::shared_ptr<InputSet> Set;
  std::vector<std::unique_ptr<systec::Tensor>> Fresh;
  std::map<std::string, systec::Tensor *> Bindings;
  systec::ExecOptions Options;

  systec::Tensor &output() const;
  systec::KernelRequest toKernelRequest() const;
};

/// Static facts of a workload, printed with every result.
struct WorkloadInfo {
  std::string Name;
  unsigned Outstanding = 1; ///< closed-loop requests in flight
  unsigned Threads = 1;     ///< ExecOptions::Threads of every request
  unsigned Workers = 1;     ///< KernelService workers
  bool Native = false;      ///< requests ask for the native engine
  std::string Sizes;
};

class Workload {
public:
  virtual ~Workload() = default;
  const WorkloadInfo &info() const { return Info; }

  /// Requests that warm the plan cache (and, for cold_shapes, probe the
  /// host compiler) before anything is measured. \p Rep numbers the
  /// set-up repetition, so every repetition can get shapes of its own.
  virtual std::vector<Request> warmUp(unsigned Rep) = 0;
  /// The next request of the seeded sequence. Not thread-safe.
  virtual Request next() = 0;
  /// Caller-side reaction to a completed, checked request (the power
  /// iteration feeds y back as the next x). Not thread-safe.
  virtual void completed(const Request &) {}

protected:
  WorkloadInfo Info;
  uint64_t NextId = 0;
};

/// Every workload name. BENCHMARK.json gates all but ssymv_solver (see
/// README.md).
const std::vector<std::string> &workloadNames();

/// Builds workload \p Name with its inputs generated from \p Seed.
/// \p ScratchDir is the private directory cold_shapes keeps its native
/// .so cache in. Null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed,
                                       const std::string &ScratchDir);

/// Checks \p R's output against a reference computed from the same
/// bound inputs. On a mismatch returns false and sets \p Why.
bool checkOutput(const Request &R, std::string &Why);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
