//===- runtime/EngineRegistry.h - Execution-engine selection --*- C++ -*-===//
///
/// \file
/// The engine-selection surface (ExecOptions::Engines). An execution
/// request names an ordered preference list of engines; one resolver
/// normalizes it into the effective engine set the plan compiler and
/// the JIT layer consume, and renders the canonical summary string used
/// by both execOptionsSummary and the PlanCache structural key.
///
/// Engine semantics:
///  - Interp   — the plan interpreter (runtime/Plan.cpp). Always
///               available; the implicit last resort of every list.
///  - Fused    — the micro-kernel specializer (runtime/MicroKernels.h):
///               plan subtrees matching known shapes run as fused loops
///               over raw level arrays. Per-loop: listing it makes
///               loops *eligible*; non-matching loops fall through to
///               Interp.
///  - Blocked  — the panel-blocked variant of the fused engines.
///               Requires Fused (the blocked engines are specializations
///               of the fused ones); a list naming Blocked without
///               Fused gets Fused inserted, with a clamp note.
///  - Native   — the JIT-compiled engine (src/jit/): the whole compiled
///               body emitted as one C++ TU, built into a cached .so,
///               and executed through a C ABI entry point. Whole-body:
///               it is consulted only as the *first* preference (there
///               is no per-loop native escalation); listed anywhere
///               else it is dropped with a clamp note. Falls back to
///               the rest of the list when no host compiler is
///               available, the plan contains an unemittable shape, or
///               compilation fails — each a typed Status recorded on
///               the executor, never an abort.
///
/// Order among Blocked/Fused/Interp is immaterial: membership toggles
/// the per-loop specialization (each loop independently runs the most
/// specialized engine whose shape matches), it does not rank them.
/// The list form exists so Native — the only whole-body engine — has a
/// place to be first, and so future engines have a home that is not
/// another boolean.
///
//===----------------------------------------------------------------------===//

#ifndef SYSTEC_RUNTIME_ENGINEREGISTRY_H
#define SYSTEC_RUNTIME_ENGINEREGISTRY_H

#include <cstdint>
#include <string>
#include <vector>

namespace systec {

/// One execution engine tier (see the file comment for semantics).
enum class Engine : uint8_t {
  Native,  ///< JIT-compiled whole-body .so (src/jit/)
  Blocked, ///< panel-blocked fused micro-kernels
  Fused,   ///< fused micro-kernels over raw level arrays
  Interp,  ///< the plan interpreter (always available)
};

/// Stable lowercase name ("native", "blocked", "fused", "interp").
const char *engineName(Engine E);

/// Parses an engineName back; false when \p Name is unknown.
bool parseEngine(const std::string &Name, Engine &Out);

/// The resolved, normalized engine configuration for one executor.
struct EngineResolution {
  /// Normalized preference order: deduplicated, Interp-terminated,
  /// Blocked implies Fused, Native only in front position.
  std::vector<Engine> Order;
  /// Whole-body native JIT requested (Order.front() == Native).
  bool UseNative = false;
  /// Per-loop specialization switches derived from membership — what
  /// the plan compiler consumes.
  bool UseBlocked = false;
  bool UseFused = false;
  /// Human-readable normalization notes ("engines: blocked without
  /// fused -> fused inserted", ...), appended to Executor clamp notes.
  std::vector<std::string> Notes;
};

/// Normalizes \p Requested into an EngineResolution. An empty request
/// means the default list blocked>fused>interp (Native is never
/// implied — it needs a host compiler and must be asked for by name).
EngineResolution resolveEngines(const std::vector<Engine> &Requested);

/// Canonical rendering of a normalized order ("native>fused>interp").
/// Deterministic for a given resolution, so it is usable in the
/// PlanCache structural key and execOptionsSummary.
std::string enginesSummary(const std::vector<Engine> &Order);

} // namespace systec

#endif // SYSTEC_RUNTIME_ENGINEREGISTRY_H
