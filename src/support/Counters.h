//===- support/Counters.h - Execution statistics --------------*- C++ -*-===//
///
/// \file
/// Global execution counters used to validate the paper's "reads only
/// 1/n! of the tensor" and "performs 1/m! of the computations" claims.
/// Counting is compiled in unconditionally but gated by a cheap flag so
/// benchmark timings can disable it.
///
/// The fields are atomics so the counts stay exact when the parallel
/// runtime executes plan nodes from several worker threads at once
/// (relaxed ordering would suffice semantically, but the convenience
/// operators ++/+= keep call sites identical to the scalar days and
/// ablation checks compare totals only after the kernel returns).
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_SUPPORT_COUNTERS_H
#define SYSTEC_SUPPORT_COUNTERS_H

#include <atomic>
#include <cstdint>

namespace systec {

/// A plain-value copy of the counters (atomics are not copyable). Also
/// used as the per-context delta block the runtime accumulates into and
/// flushes once per kernel run (see runtime/Plan.h).
struct CounterSnapshot {
  uint64_t SparseReads = 0;
  uint64_t Reductions = 0;
  uint64_t ScalarOps = 0;
  uint64_t OutputWrites = 0;
  uint64_t FusedBlockedPanels = 0;
  uint64_t FusedBlockedStores = 0;
};

/// Aggregate counters for one kernel execution.
struct ExecCounters {
  /// Nonzero elements read from sparse/structured input tensors.
  std::atomic<uint64_t> SparseReads{0};
  /// Scalar reductions performed into outputs or workspaces.
  std::atomic<uint64_t> Reductions{0};
  /// Elementwise scalar operations (multiplies/adds inside expressions).
  std::atomic<uint64_t> ScalarOps{0};
  /// Writes to output tensors (including replication copies).
  std::atomic<uint64_t> OutputWrites{0};
  /// Column panels executed by the blocked output engine and the
  /// streaming/writeback stores it actually issued. OutputWrites keeps
  /// the interpreter's per-element accounting (counter parity), so
  /// OutputWrites - FusedBlockedStores is the store traffic blocking
  /// removed on register-accumulated panels.
  std::atomic<uint64_t> FusedBlockedPanels{0};
  std::atomic<uint64_t> FusedBlockedStores{0};

  void reset() {
    SparseReads.store(0, std::memory_order_relaxed);
    Reductions.store(0, std::memory_order_relaxed);
    ScalarOps.store(0, std::memory_order_relaxed);
    OutputWrites.store(0, std::memory_order_relaxed);
    FusedBlockedPanels.store(0, std::memory_order_relaxed);
    FusedBlockedStores.store(0, std::memory_order_relaxed);
  }

  CounterSnapshot snapshot() const {
    return CounterSnapshot{
        SparseReads.load(std::memory_order_relaxed),
        Reductions.load(std::memory_order_relaxed),
        ScalarOps.load(std::memory_order_relaxed),
        OutputWrites.load(std::memory_order_relaxed),
        FusedBlockedPanels.load(std::memory_order_relaxed),
        FusedBlockedStores.load(std::memory_order_relaxed)};
  }
};

/// Whether the runtime updates counters. Defaults to on; benchmarks turn
/// it off around timed regions.
bool countersEnabled();
void setCountersEnabled(bool Enabled);

/// The process-wide counter sink.
ExecCounters &counters();

} // namespace systec

#endif // SYSTEC_SUPPORT_COUNTERS_H
