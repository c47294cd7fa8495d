//===- perfbench/Spans.h - Caller-side request spans ----------*- C++ -*-===//
///
/// \file
/// Spans the traced run records around its calls into the library. A
/// span has a name, the layer its self time is charged to, start and
/// end (steady-clock ns), its parent, and the request it belongs to.
/// Spans stay in memory and are written out as Chrome trace JSON when
/// the run ends.
///
/// Self time is a span's duration minus that of its blocking children.
/// Spans built from an ExecReport's phase durations are placed inside
/// their parent (the report gives durations, not start times); worker
/// activity spans are marked non-blocking, as they run beside the
/// caller's timeline rather than on it, and never reduce self time.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  std::string Layer;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int Parent = -1; ///< index into the request's spans; -1 for the root
  uint64_t Request = 0;
  bool Blocking = true;
  bool FromReport = false; ///< placed from an ExecReport duration

  uint64_t durNs() const { return EndNs - StartNs; }
};

/// The spans of one request, recorded on the thread that runs it.
class RequestTrace {
public:
  explicit RequestTrace(uint64_t Request) : Request(Request) {}

  /// Opens a span under the innermost open one; returns its index.
  int open(const std::string &Name, const std::string &Layer);
  void close(int Index);

  /// Adds a span of duration \p Ns from an ExecReport under \p Parent,
  /// starting \p OffsetNs into it (clipped to the parent's end).
  int place(const std::string &Name, const std::string &Layer, int Parent,
            uint64_t OffsetNs, uint64_t Ns, bool Blocking = true);

  /// Self time per layer, in milliseconds (layers with no span absent).
  std::map<std::string, double> selfMsByLayer() const;

  /// Duration of the first span named \p Name, in ms; 0 when absent.
  double spanMs(const std::string &Name) const;

  const std::vector<Span> &spans() const { return Spans; }

private:
  uint64_t Request;
  std::vector<Span> Spans;
  std::vector<int> OpenStack;
};

/// Every finished request's spans, kept until the run writes them out.
class SpanStore {
public:
  void add(const RequestTrace &T);
  /// Writes Chrome trace JSON ("X" events, one track per request).
  bool writeChromeJson(const std::string &Path) const;
  size_t size() const;

private:
  mutable std::mutex Mu;
  std::vector<Span> All;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
