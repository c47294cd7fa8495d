//===- runtime/PlanCache.cpp ----------------------------------*- C++ -*-===//

#include "runtime/PlanCache.h"

namespace systec {

std::string PlanCache::makeKey(const Einsum &E,
                               const std::map<std::string, Tensor *> &Bindings,
                               const ExecOptions &O) {
  std::string Key = E.str();
  // Declarations: format / fill / symmetry drive the symmetry pipeline
  // and the lowering, independent of what ends up bound.
  for (const auto &[Name, D] : E.Decls) {
    Key += ";decl " + Name + ":" + D.Format.str() + ":" +
           std::to_string(D.Fill) + ":" + D.Symmetry.str();
    if (D.IsOutput)
      Key += ":out";
  }
  // Operand structure: the compiled plan is specialized to each bound
  // tensor's format, dims, and fill (values are free to differ).
  for (const auto &[Name, T] : Bindings) {
    Key += ";bind " + Name + ":" + T->format().str() + ":[";
    for (int64_t D : T->dims())
      Key += std::to_string(D) + ",";
    Key += "]:" + std::to_string(T->fill());
  }
  // Structural options only — the per-request knobs (cancel, deadline,
  // tracing, validation, global flush) are adopted at rebind, and
  // NativeCacheDir is absent because the .so cache is content-hash
  // keyed, so the directory choice never changes the compiled plan.
  Key += ";opts " + structuralOptionsSummary(O);
  return Key;
}

std::unique_ptr<Executor> PlanCache::acquire(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    ++Misses;
    return nullptr;
  }
  ++Hits;
  std::unique_ptr<Executor> E = std::move(It->second->second);
  Lru.erase(It->second);
  Index.erase(It);
  return E;
}

void PlanCache::release(const std::string &Key, std::unique_ptr<Executor> E) {
  if (!E)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  if (Capacity == 0)
    return; // caching disabled; E is destroyed on scope exit
  auto It = Index.find(Key);
  if (It != Index.end()) {
    // A concurrent request compiled the same plan fresh; keep the one
    // released now (most recently exercised).
    Lru.erase(It->second);
    Index.erase(It);
  }
  Lru.emplace_front(Key, std::move(E));
  Index[Key] = Lru.begin();
  while (Lru.size() > Capacity) {
    Index.erase(Lru.back().first);
    Lru.pop_back();
    ++Evictions;
  }
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  Stats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Evictions = Evictions;
  S.Entries = Lru.size();
  return S;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Lru.clear();
  Index.clear();
}

} // namespace systec
