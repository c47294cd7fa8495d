//===- perfbench/Spans.cpp ------------------------------------*- C++ -*-===//

#include "Spans.h"

#include "observability/Trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int RequestTrace::open(const std::string &Name, const std::string &Layer) {
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Request = Request;
  S.Parent = OpenStack.empty() ? -1 : OpenStack.back();
  S.StartNs = systec::obs::nowNs();
  Spans.push_back(std::move(S));
  OpenStack.push_back(int(Spans.size()) - 1);
  return OpenStack.back();
}

void RequestTrace::close(int Index) {
  Spans[size_t(Index)].EndNs = systec::obs::nowNs();
  if (!OpenStack.empty() && OpenStack.back() == Index)
    OpenStack.pop_back();
}

int RequestTrace::place(const std::string &Name, const std::string &Layer,
                        int Parent, uint64_t OffsetNs, uint64_t Ns,
                        bool Blocking) {
  const Span &P = Spans[size_t(Parent)];
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Request = Request;
  S.Parent = Parent;
  S.Blocking = Blocking;
  S.FromReport = true;
  S.StartNs = std::min(P.StartNs + OffsetNs, P.EndNs);
  S.EndNs = std::min(S.StartNs + Ns, P.EndNs);
  Spans.push_back(std::move(S));
  return int(Spans.size()) - 1;
}

std::map<std::string, double> RequestTrace::selfMsByLayer() const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0 && S.Blocking)
      ChildNs[size_t(S.Parent)] += S.durNs();
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    if (!Spans[I].Blocking)
      continue;
    const uint64_t D = Spans[I].durNs();
    const uint64_t Self = D > ChildNs[I] ? D - ChildNs[I] : 0;
    Out[Spans[I].Layer] += double(Self) / 1e6;
  }
  return Out;
}

double RequestTrace::spanMs(const std::string &Name) const {
  for (const Span &S : Spans)
    if (S.Name == Name)
      return double(S.durNs()) / 1e6;
  return 0.0;
}

void SpanStore::add(const RequestTrace &T) {
  std::lock_guard<std::mutex> Lock(Mu);
  All.insert(All.end(), T.spans().begin(), T.spans().end());
}

size_t SpanStore::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return All.size();
}

bool SpanStore::writeChromeJson(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mu);
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t T0 = UINT64_MAX;
  for (const Span &S : All)
    T0 = std::min(T0, S.StartNs);
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"parent\":%d,\"blocking\":%s,\"from_report\":%s}}\n",
                 I ? "," : "", S.Name.c_str(), S.Layer.c_str(),
                 (unsigned long long)S.Request, double(S.StartNs - T0) / 1e3,
                 double(S.durNs()) / 1e3, S.Parent,
                 S.Blocking ? "true" : "false",
                 S.FromReport ? "true" : "false");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench
