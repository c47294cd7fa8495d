//===- runtime/EngineRegistry.cpp - Engine-list resolution ----*- C++ -*-===//

#include "runtime/EngineRegistry.h"

#include <algorithm>

namespace systec {

const char *engineName(Engine E) {
  switch (E) {
  case Engine::Native:
    return "native";
  case Engine::Blocked:
    return "blocked";
  case Engine::Fused:
    return "fused";
  case Engine::Interp:
    return "interp";
  }
  return "unknown";
}

bool parseEngine(const std::string &Name, Engine &Out) {
  for (Engine E : {Engine::Native, Engine::Blocked, Engine::Fused,
                   Engine::Interp})
    if (Name == engineName(E)) {
      Out = E;
      return true;
    }
  return false;
}

EngineResolution resolveEngines(const std::vector<Engine> &Requested) {
  static const std::vector<Engine> Default = {Engine::Blocked, Engine::Fused,
                                              Engine::Interp};
  const std::vector<Engine> &List = Requested.empty() ? Default : Requested;
  EngineResolution R;
  auto Has = [&R](Engine E) {
    return std::find(R.Order.begin(), R.Order.end(), E) != R.Order.end();
  };
  for (Engine E : List) {
    if (Has(E))
      continue; // duplicate
    if (E == Engine::Native && !R.Order.empty()) {
      R.Notes.push_back("engines: native is whole-body and only "
                        "effective as the first preference -> dropped");
      continue;
    }
    R.Order.push_back(E);
  }
  if (Has(Engine::Blocked) && !Has(Engine::Fused)) {
    // Blocked engines are specializations of the fused ones; insert
    // the prerequisite right after Blocked.
    auto It = std::find(R.Order.begin(), R.Order.end(), Engine::Blocked);
    R.Order.insert(It + 1, Engine::Fused);
    R.Notes.push_back("engines: blocked without fused -> fused inserted");
  }
  if (!Has(Engine::Interp))
    R.Order.push_back(Engine::Interp);
  R.UseNative = R.Order.front() == Engine::Native;
  R.UseFused = Has(Engine::Fused);
  R.UseBlocked = Has(Engine::Blocked);
  return R;
}

std::string enginesSummary(const std::vector<Engine> &Order) {
  std::string S;
  for (Engine E : Order) {
    if (!S.empty())
      S += '>';
    S += engineName(E);
  }
  return S;
}

} // namespace systec
