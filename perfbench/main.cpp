//===- perfbench/main.cpp - Caller-side benchmark driver ------*- C++ -*-===//
///
/// \file
/// Drives one workload through the library's public entry points and
/// prints its metrics. Run through run.py, which builds this binary:
///
///   systec_perfbench --workload <name> --seed <n> --seconds <s>
///                    --trace <0|1> --scratch <dir>
///   systec_perfbench --selftest --scratch <dir>
///
/// --trace 0 measures end-to-end metrics: load comes from one generator
/// thread in a closed loop over KernelService::submit / wait, after a
/// set-up (inputs, service start, warm-up) repeated three times.
/// --trace 1 measures per-layer metrics: half the time through a replica
/// of KernelService::process built from PlanCache, compileEinsum and
/// Executor calls, with a span around each call; then half untraced
/// through the service (service-side statistics and the untraced median).
/// Every output is checked against a reference outside its timed
/// window. The last line of stdout is the JSON result.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "core/Compiler.h"
#include "runtime/PlanCache.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <sys/resource.h>
#include <sys/stat.h>
#include <thread>
#include <vector>

using namespace systec;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Nearest-rank percentile (P in [0,1]) of \p V; 0 for no samples.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(P * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double median(const std::vector<double> &V) { return percentile(V, 0.5); }

constexpr unsigned SetupRepetitions = 5;
/// An end-to-end run measures at least this many requests, so that at
/// least ten lie beyond its 90th percentile; it runs past --seconds when
/// requests are slow (cold_shapes).
constexpr size_t MinRequests = 100;
/// Requests at the start of the traced window whose counts are
/// reported: a fixed prefix of the seeded sequence, so the counts
/// repeat exactly for a seed however long the window runs.
constexpr size_t CountPrefix = 16;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SelfTest = false;
  std::string Scratch;
};

/// When to end a closed loop: after Seconds once MinRequests completed,
/// and never later than CapSeconds.
struct Limits {
  double Seconds = 0;
  uint64_t MinRequests = 0;
  double CapSeconds = 0;
};

/// Corrupts a completed output before its check (the self-test's way of
/// showing that a wrong output is counted); returns true if it did.
using Tamper = std::function<bool(Request &)>;

/// Blocks on RequestHandle::wait on behalf of the generator: one thread
/// per outstanding slot, so each completion is timestamped when it
/// happens whichever slot finishes first.
class Waiters {
public:
  struct Done {
    unsigned Slot;
    Clock::time_point At;
  };

  explicit Waiters(unsigned Slots) : Pending(Slots) {
    for (unsigned S = 0; S < Slots; ++S)
      Threads.emplace_back([this, S] { loop(S); });
  }
  ~Waiters() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stop = true;
    }
    PostCv.notify_all();
    for (std::thread &T : Threads)
      T.join();
  }
  Waiters(const Waiters &) = delete;
  Waiters &operator=(const Waiters &) = delete;

  void post(unsigned Slot, RequestHandle H) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Pending[Slot] = std::move(H);
    }
    PostCv.notify_all();
  }

  Done take() {
    std::unique_lock<std::mutex> Lock(Mu);
    DoneCv.wait(Lock, [&] { return !Completed.empty(); });
    Done D = Completed.front();
    Completed.pop_front();
    return D;
  }

private:
  void loop(unsigned S) {
    while (true) {
      RequestHandle H;
      {
        std::unique_lock<std::mutex> Lock(Mu);
        PostCv.wait(Lock, [&] { return Stop || Pending[S].has_value(); });
        if (!Pending[S])
          return;
        H = std::move(*Pending[S]);
        Pending[S].reset();
      }
      H.wait();
      const Clock::time_point At = Clock::now();
      {
        std::lock_guard<std::mutex> Lock(Mu);
        Completed.push_back({S, At});
      }
      DoneCv.notify_one();
    }
  }

  std::mutex Mu;
  std::condition_variable PostCv, DoneCv;
  std::vector<std::optional<RequestHandle>> Pending;
  std::deque<Done> Completed;
  bool Stop = false;
  std::vector<std::thread> Threads;
};

/// Warm workloads must never reach the JIT: no request may ask for the
/// native engine, and no report may carry a native compile.
bool jitPolicyOk(const WorkloadInfo &I, const Request &R,
                 const obs::ExecReport &Rep, std::string &Why) {
  if (I.Native)
    return true;
  if (std::find(R.Options.Engines.begin(), R.Options.Engines.end(),
                Engine::Native) != R.Options.Engines.end()) {
    Why = "warm workload request asked for the native engine";
    return false;
  }
  for (const obs::PhaseStat &P : Rep.Phases)
    if (P.Name == "native-compile") {
      Why = "warm workload request reported a native compile";
      return false;
    }
  return true;
}

struct LoopResult {
  std::vector<double> LatMs; ///< every completed request
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Tampered = 0;
  double BusyS = 0; ///< time with at least one request in flight
  std::vector<std::string> Failures;

  void fail(const std::string &Why) {
    ++Failed;
    if (Failures.size() < 5)
      Failures.push_back(Why);
  }
};

/// Checks a completed request: status, JIT policy, reference output.
bool verify(const WorkloadInfo &I, const Request &R, const Status &St,
            const obs::ExecReport &Rep, std::string &Why) {
  if (!St.ok()) {
    Why = St.str();
    return false;
  }
  return jitPolicyOk(I, R, Rep, Why) && checkOutput(R, Why);
}

/// The closed loop through KernelService: one generator thread keeps
/// Outstanding requests in flight.
LoopResult runServiceLoop(Workload &W, KernelService &Svc, const Limits &L,
                          const Tamper &T = nullptr) {
  const WorkloadInfo &I = W.info();
  const unsigned K = I.Outstanding;
  LoopResult Out;
  Waiters Wait(K);
  std::vector<std::optional<Request>> Slot(K);
  std::vector<RequestHandle> Handle(K);
  std::vector<Clock::time_point> SubmitAt(K);
  unsigned InFlight = 0;
  bool Stopping = false;
  Clock::time_point BusySince;
  const Clock::time_point Start = Clock::now();

  auto Refill = [&] {
    for (unsigned S = 0; S < K && !Stopping; ++S) {
      if (Slot[S])
        continue;
      Request R = W.next();
      const Clock::time_point T0 = Clock::now();
      Expected<RequestHandle> H = Svc.submit(R.toKernelRequest());
      ++Out.Attempted;
      if (!H.ok()) {
        Out.fail("submit: " + H.status().str());
        continue;
      }
      if (InFlight++ == 0)
        BusySince = T0;
      Slot[S] = std::move(R);
      SubmitAt[S] = T0;
      Handle[S] = *H;
      Wait.post(S, Handle[S]);
    }
  };

  Refill();
  while (InFlight) {
    const Waiters::Done D = Wait.take();
    if (--InFlight == 0)
      Out.BusyS += std::chrono::duration<double>(D.At - BusySince).count();
    Request R = std::move(*Slot[D.Slot]);
    Slot[D.Slot].reset();
    const RequestResult &Res = Handle[D.Slot].wait();
    Out.LatMs.push_back(msBetween(SubmitAt[D.Slot], D.At));
    if (T && T(R))
      ++Out.Tampered;
    std::string Why;
    if (verify(I, R, Res.St, Res.Report, Why))
      W.completed(R);
    else
      Out.fail(R.Set->Kernel + " request " + std::to_string(R.Id) + ": " +
               Why);
    Handle[D.Slot] = RequestHandle();
    const double E = secondsSince(Start);
    Stopping = (E >= L.Seconds && Out.LatMs.size() >= L.MinRequests) ||
               E >= L.CapSeconds;
    Refill();
  }
  return Out;
}

/// One workload with its service, after set-up.
struct Bench {
  std::unique_ptr<Workload> W;
  std::unique_ptr<KernelService> Svc;
  double SetupS = 0;
};

/// Set-up: input generation, service start, and warm-up requests (each
/// checked). Returns false with \p Err set when anything fails.
bool setUp(const Args &A, const std::string &SoDir, unsigned Rep, Bench &B,
           std::string &Err) {
  const Clock::time_point T0 = Clock::now();
  B.W = makeWorkload(A.Workload, A.Seed, SoDir);
  if (!B.W) {
    Err = "unknown workload '" + A.Workload + "'";
    return false;
  }
  ServiceOptions SO;
  SO.Workers = B.W->info().Workers;
  B.Svc = std::make_unique<KernelService>(SO);
  for (Request &R : B.W->warmUp(Rep)) {
    Expected<RequestHandle> H = B.Svc->submit(R.toKernelRequest());
    if (!H.ok()) {
      Err = "warm-up submit: " + H.status().str();
      return false;
    }
    const RequestResult &Res = H->wait();
    if (!verify(B.W->info(), R, Res.St, Res.Report, Err)) {
      Err = "warm-up " + R.Set->Kernel + ": " + Err;
      return false;
    }
    B.W->completed(R);
  }
  B.SetupS = secondsSince(T0);
  return true;
}

//===----------------------------------------------------------------------===//
// Traced replica of KernelService::process
//===----------------------------------------------------------------------===//

/// What one traced request measured.
struct TracedSample {
  uint64_t Id = 0;
  double LatMs = 0;
  std::map<std::string, double> SelfMs; ///< per layer
  std::map<std::string, double> Ms;     ///< per-request layer metrics
  bool Hit = false, RebindFailed = false;
  bool AskedNative = false, UsedNative = false;
  uint64_t Evictions = 0;
  CounterSnapshot Counters;
};

double nsToMs(uint64_t Ns) { return double(Ns) / 1e6; }

/// Runs \p R the way KernelService::process does, call for call, with a
/// span around each call (tryRun is issued as its two halves,
/// tryRunBody then tryRunEpilogue, which is how tryRun is defined).
/// Spans go to \p Store when non-null.
bool processTraced(PlanCache &Cache, Request &R, SpanStore *Store,
                   TracedSample &Out, obs::ExecReport &Rep,
                   std::string &Why) {
  RequestTrace T(R.Id);
  KernelRequest KR = R.toKernelRequest();
  const uint64_t Ev0 = Cache.stats().Evictions;
  bool Ok = true;
  int Front = -1, Body = -1, Epi = -1;

  const int Root = T.open(KR.Label, "unattributed");
  int S = T.open("plancache.key", "plancache");
  const std::string Key = PlanCache::makeKey(KR.E, KR.Bindings, KR.Options);
  T.close(S);
  ExecOptions RunOpts = KR.Options;
  RunOpts.GlobalCounterFlush = false;
  S = T.open("plancache.acquire", "plancache");
  std::unique_ptr<Executor> Ex = Cache.acquire(Key);
  T.close(S);
  if (Ex) {
    Front = T.open("executor.rebind", "executor");
    Status St = Ex->rebind(KR.Bindings, RunOpts);
    T.close(Front);
    if (St.ok()) {
      Out.Hit = true;
    } else {
      Out.RebindFailed = true;
      Ex.reset();
      Front = -1;
    }
  }
  if (!Ex) {
    S = T.open("core.compile", "core");
    CompileResult CR = compileEinsum(KR.E);
    T.close(S);
    S = T.open("executor.construct", "executor");
    Ex = std::make_unique<Executor>(std::move(CR.Optimized), RunOpts);
    for (const auto &[Name, Tn] : KR.Bindings)
      Ex->bind(Name, Tn);
    T.close(S);
    Front = T.open("executor.prepare", "executor");
    Status St = Ex->tryPrepare();
    T.close(Front);
    if (!St.ok()) {
      Why = St.str();
      Ok = false;
      Ex.reset();
    }
  }
  if (Ex) {
    Body = T.open("executor.run_body", "executor");
    Status St = Ex->tryRunBody(&Rep);
    T.close(Body);
    if (St.ok()) {
      Epi = T.open("executor.run_epilogue", "executor");
      St = Ex->tryRunEpilogue(&Rep);
      T.close(Epi);
    }
    if (!St.ok()) {
      Why = St.str();
      Ok = false;
    }
    Out.AskedNative = !Ex->engines().empty() &&
                      Ex->engines().front() == Engine::Native;
    Out.UsedNative = Ex->usesNativeEngine();
    S = T.open("plancache.release", "plancache");
    Cache.release(Key, std::move(Ex));
    T.close(S);
  }
  T.close(Root);
  Out.Evictions = Cache.stats().Evictions - Ev0;

  // The report's phases become child spans of the calls that ran them.
  auto Ph = [&](const char *Name) { return Rep.phaseNs(Name); };
  if (Front >= 0) {
    T.place("executor.materialize", "materialize", Front, 0,
            Ph("materialize"));
    if (!Out.Hit) {
      const int PC = T.place("executor.plan_compile", "plan", Front,
                             Ph("materialize"), Ph("plan-compile"));
      T.place("executor.specialize", "plan", PC,
              Ph("plan-compile") - std::min(Ph("plan-compile"),
                                            Ph("specialize")),
              Ph("specialize"));
      T.place("jit.native_compile", "jit", Front,
              Ph("materialize") + Ph("plan-compile"), Ph("native-compile"));
    }
  }
  uint64_t CallerWait = 0, Busy = 0, Tasks = 0;
  for (const obs::WorkerStat &W : Rep.Workers) {
    Busy += W.ExecNs;
    Tasks += W.Tasks;
    if (W.Name == "caller")
      CallerWait = W.WaitNs;
  }
  if (Body >= 0) {
    const uint64_t ExecNs = Ph("execute"), MergeNs = Ph("merge");
    const int X = T.place("executor.execute", "engine", Body, 0, ExecNs);
    T.place("pool.wait", "pool", X, 0, CallerWait);
    T.place("executor.merge", "merge", X, ExecNs - std::min(ExecNs, MergeNs),
            MergeNs);
    for (const obs::WorkerStat &W : Rep.Workers)
      if (W.Name != "caller")
        T.place("pool." + W.Name, "pool", X, 0, W.ExecNs + W.WaitNs,
                /*Blocking=*/false);
  }
  if (Epi >= 0)
    T.place("executor.epilogue", "epilogue", Epi, 0, Ph("epilogue"));

  Out.Id = R.Id;
  Out.LatMs = double(T.spans()[size_t(Root)].durNs()) / 1e6;
  Out.SelfMs = T.selfMsByLayer();
  Out.Counters = Rep.Counters;
  Out.Ms = {
      {"core.compile_ms", T.spanMs("core.compile")},
      {"executor.prepare_ms", T.spanMs("executor.prepare")},
      {"executor.plan_compile_ms", nsToMs(Out.Hit ? 0 : Ph("plan-compile"))},
      {"executor.specialize_ms", nsToMs(Out.Hit ? 0 : Ph("specialize"))},
      {"executor.rebind_ms", Out.Hit ? T.spanMs("executor.rebind") : 0.0},
      {"executor.materialize_ms", nsToMs(Ph("materialize"))},
      {"jit.native_compile_ms", nsToMs(Ph("native-compile"))},
      {"executor.execute_ms", nsToMs(Ph("execute"))},
      {"executor.merge_ms", nsToMs(Ph("merge"))},
      {"executor.epilogue_ms", nsToMs(Ph("epilogue"))},
      {"pool.wait_ms", nsToMs(CallerWait)},
      {"pool.busy_ms", nsToMs(Busy)},
      {"pool.tasks", double(Tasks)},
  };
  if (Store)
    Store->add(T);
  return Ok;
}

struct TracedResult {
  std::vector<TracedSample> Samples;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
};

/// The traced closed loop: Outstanding threads, each running the replica
/// on the next request of the seeded sequence and checking the output
/// outside the request's spans.
TracedResult runTracedLoop(Workload &W, PlanCache &Cache, const Limits &L,
                           SpanStore &Store) {
  const WorkloadInfo &I = W.info();
  TracedResult Out;
  std::mutex Mu; // guards W, Out, and Stopping
  bool Stopping = false;
  const Clock::time_point Start = Clock::now();
  auto Worker = [&] {
    while (true) {
      Request R;
      {
        std::lock_guard<std::mutex> Lock(Mu);
        if (Stopping)
          return;
        try {
          R = W.next();
        } catch (const std::exception &E) {
          ++Out.Attempted;
          ++Out.Failed;
          Out.Failures.push_back(E.what());
          Stopping = true;
          return;
        }
        ++Out.Attempted;
      }
      TracedSample S;
      obs::ExecReport Rep;
      std::string Why;
      const bool Ok = processTraced(Cache, R, &Store, S, Rep, Why) &&
                      jitPolicyOk(I, R, Rep, Why) && checkOutput(R, Why);
      std::lock_guard<std::mutex> Lock(Mu);
      if (Ok) {
        W.completed(R);
      } else {
        ++Out.Failed;
        if (Out.Failures.size() < 5)
          Out.Failures.push_back(R.Set->Kernel + " request " +
                                 std::to_string(R.Id) + ": " + Why);
      }
      Out.Samples.push_back(std::move(S));
      const double E = secondsSince(Start);
      Stopping = (E >= L.Seconds && Out.Samples.size() >= L.MinRequests) ||
                 E >= L.CapSeconds;
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned K = 0; K < I.Outstanding; ++K)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();
  std::sort(Out.Samples.begin(), Out.Samples.end(),
            [](const TracedSample &A, const TracedSample &B) {
              return A.Id < B.Id;
            });
  return Out;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note;
};

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

void printHeader(const Args &A, const WorkloadInfo &I) {
  std::printf("# workload {\"name\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
              "\"trace\":%d,\"outstanding\":%u,\"threads\":%u,"
              "\"service_workers\":%u,\"sizes\":\"%s\"}\n",
              I.Name.c_str(), (unsigned long long)A.Seed, A.Seconds,
              A.Trace ? 1 : 0, I.Outstanding, I.Threads, I.Workers,
              jsonEscape(I.Sizes).c_str());
  std::printf("# machine {\"nproc\":%u,\"cxx\":\"%s\"}\n",
              std::thread::hardware_concurrency(), PERFBENCH_CXX_ID);
}

void printFailures(const std::vector<std::string> &F) {
  for (const std::string &S : F)
    std::printf("# FAILED %s\n", S.c_str());
}

/// Prints each metric as "name value unit", then the JSON result line.
void printResult(const std::vector<Metric> &Ms, uint64_t Attempted,
                 uint64_t Failed) {
  for (const Metric &M : Ms)
    std::printf("%-28s %14.6f %-6s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
  std::string J = "{\"correct\": " + std::string(Failed ? "false" : "true") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Ms.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", Ms[I].Value);
    J += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

/// Per-request metric medians over \p Samples.
double sampleMedian(const std::vector<TracedSample> &Samples,
                    const std::function<double(const TracedSample &)> &F) {
  std::vector<double> V;
  V.reserve(Samples.size());
  for (const TracedSample &S : Samples)
    V.push_back(F(S));
  return median(V);
}

//===----------------------------------------------------------------------===//
// Modes
//===----------------------------------------------------------------------===//

int runEndToEnd(const Args &A, const std::string &SoDir) {
  std::vector<double> SetupS;
  Bench B;
  std::string Err;
  for (unsigned Rep = 0; Rep < SetupRepetitions; ++Rep) {
    B = Bench(); // tear the previous repetition down before timing
    if (!setUp(A, SoDir, Rep, B, Err)) {
      std::fprintf(stderr, "set-up failed: %s\n", Err.c_str());
      return 1;
    }
    SetupS.push_back(B.SetupS);
  }
  const WorkloadInfo &I = B.W->info();
  printHeader(A, I);
  const Limits L{A.Seconds, MinRequests, std::min(3 * A.Seconds, 75.0)};
  const LoopResult R = runServiceLoop(*B.W, *B.Svc, L);
  printFailures(R.Failures);
  const double N = double(R.LatMs.size());
  const std::string Samples = "(n=" + std::to_string(R.LatMs.size()) + ")";
  const double FailRatio = double(R.Failed) / double(R.Attempted);
  std::printf("%-28s %14.6f %-6s\n", "fail_ratio", FailRatio, "ratio");
  printResult(
      {{"req_p50_ms", percentile(R.LatMs, 0.5), "ms", Samples},
       {"req_p90_ms", percentile(R.LatMs, 0.9), "ms", Samples},
       {"throughput_rps", R.BusyS > 0 ? N / R.BusyS : 0.0, "1/s",
        "(busy " + std::to_string(R.BusyS) + " s)"},
       {"setup_s", median(SetupS), "s",
        "(median of " + std::to_string(SetupS.size()) + ")"},
       {"ok_ratio", 1.0 - FailRatio, "ratio", ""},
       {"peak_rss_mb", peakRssMb(), "MB", ""}},
      R.Attempted, R.Failed);
  return 0;
}

int runTraced(const Args &A, const std::string &SoDir) {
  Bench B;
  std::string Err;
  if (!setUp(A, SoDir, 0, B, Err)) {
    std::fprintf(stderr, "set-up failed: %s\n", Err.c_str());
    return 1;
  }
  const WorkloadInfo &I = B.W->info();
  printHeader(A, I);
  const double Half = A.Seconds / 2;
  const double Cap = 60;

  // Traced half first, so its count prefix starts at a fixed position of
  // the seeded sequence: the replica, with its own plan cache.
  PlanCache Cache(ServiceOptions().CacheCapacity);
  for (Request &R : B.W->warmUp(1)) {
    TracedSample S;
    obs::ExecReport Rep;
    if (!processTraced(Cache, R, nullptr, S, Rep, Err) ||
        !jitPolicyOk(I, R, Rep, Err) || !checkOutput(R, Err)) {
      std::fprintf(stderr, "traced warm-up failed: %s\n", Err.c_str());
      return 1;
    }
    B.W->completed(R);
  }
  SpanStore Store;
  const TracedResult T =
      runTracedLoop(*B.W, Cache, {Half, CountPrefix, Cap}, Store);

  // Untraced half, through the service: the reference median for the
  // tracing overhead and the service-side statistics.
  const KernelService::Stats S0 = B.Svc->stats();
  const LoopResult U =
      runServiceLoop(*B.W, *B.Svc, {Half, CountPrefix, Cap});
  const KernelService::Stats S1 = B.Svc->stats();
  const double Done = double(S1.LatencyNs.count() - S0.LatencyNs.count());
  const double SvcLatMs =
      Done ? nsToMs(S1.LatencyNs.total() - S0.LatencyNs.total()) / Done : 0;
  const double SvcQueueMs =
      Done ? nsToMs(S1.QueueNs.total() - S0.QueueNs.total()) / Done : 0;
  double ClientMeanMs = 0;
  for (double V : U.LatMs)
    ClientMeanMs += V;
  ClientMeanMs = U.LatMs.empty() ? 0 : ClientMeanMs / double(U.LatMs.size());
  const double GapMs = ClientMeanMs - SvcLatMs;
  const bool Agree = std::fabs(GapMs) <= std::max(0.25, 0.05 * ClientMeanMs);
  std::printf("# service cross-check: client mean %.4f ms, service mean "
              "%.4f ms (queue %.4f ms): %s\n",
              ClientMeanMs, SvcLatMs, SvcQueueMs,
              Agree ? "agree" : "DISAGREE beyond the queue wait");
  printFailures(U.Failures);
  printFailures(T.Failures);
  const std::string TracePath =
      A.Scratch + "/perfbench-trace-" + A.Workload + ".json";
  if (!Store.writeChromeJson(TracePath))
    std::fprintf(stderr, "cannot write %s\n", TracePath.c_str());
  std::printf("# %zu spans written to %s\n", Store.size(), TracePath.c_str());

  const std::vector<TracedSample> &Sm = T.Samples;
  const size_t P = std::min(CountPrefix, Sm.size());
  uint64_t Hits = 0, Asked = 0, Used = 0;
  for (const TracedSample &S : Sm) {
    Hits += S.Hit;
    Asked += S.AskedNative;
    Used += S.UsedNative;
  }
  uint64_t Misses = 0, Evictions = 0, RebindFailures = 0, Fallbacks = 0;
  CounterSnapshot C;
  for (size_t K = 0; K < P; ++K) {
    Misses += !Sm[K].Hit;
    Evictions += Sm[K].Evictions;
    RebindFailures += Sm[K].RebindFailed;
    Fallbacks += Sm[K].AskedNative && !Sm[K].UsedNative;
    obs::addCounters(C, Sm[K].Counters);
  }
  const double PD = P ? double(P) : 1.0;
  const std::string Prefix = "(first " + std::to_string(P) + " requests)";

  std::vector<Metric> Ms = {
      {"service.latency_ms", SvcLatMs, "ms", "(window mean)"},
      {"service.queue_ms", SvcQueueMs, "ms", "(window mean)"},
      {"service.client_gap_ms", GapMs, "ms", "(client mean - service mean)"},
      {"plancache.hit_ratio", Sm.empty() ? 0 : double(Hits) / double(Sm.size()),
       "ratio", "(traced window)"},
      {"plancache.misses", double(Misses), "count", Prefix},
      {"plancache.evictions", double(Evictions), "count", Prefix},
      {"plancache.rebind_failures", double(RebindFailures), "count", Prefix},
      {"jit.native_ratio", Asked ? double(Used) / double(Asked) : 0.0,
       "ratio", "(traced window)"},
      {"jit.fallbacks", double(Fallbacks), "count", Prefix},
  };
  for (const char *Name :
       {"core.compile_ms", "executor.prepare_ms", "executor.plan_compile_ms",
        "executor.specialize_ms", "executor.rebind_ms",
        "executor.materialize_ms", "jit.native_compile_ms",
        "executor.execute_ms", "executor.merge_ms", "executor.epilogue_ms",
        "pool.wait_ms", "pool.busy_ms", "pool.tasks"}) {
    const std::string N = Name;
    Ms.push_back({N,
                  sampleMedian(Sm, [&](const TracedSample &S) {
                    return S.Ms.at(N);
                  }),
                  N == "pool.tasks" ? "count" : "ms", "(median)"});
  }
  Ms.push_back({"kernel.sparse_reads", double(C.SparseReads) / PD, "count",
                Prefix});
  Ms.push_back({"kernel.flops", double(C.ScalarOps + C.Reductions) / PD,
                "count", Prefix});
  Ms.push_back({"kernel.output_writes", double(C.OutputWrites) / PD, "count",
                Prefix});
  // A sparse read moves a value and a coordinate; an output write a
  // value (8 bytes each).
  Ms.push_back({"kernel.bytes_computed",
                double(16 * C.SparseReads + 8 * C.OutputWrites) / PD, "B",
                Prefix});
  // Self times describe the median request: the mean per layer over the
  // requests between the 40th and 60th latency percentile. They sum to
  // that band's latency, which per-layer medians of a mixed workload
  // would not.
  std::vector<const TracedSample *> ByLat;
  for (const TracedSample &S : Sm)
    ByLat.push_back(&S);
  std::sort(ByLat.begin(), ByLat.end(),
            [](const TracedSample *A, const TracedSample *B) {
              return A->LatMs < B->LatMs;
            });
  const size_t Lo = ByLat.size() * 2 / 5;
  const size_t Hi = std::max(Lo + 1, (ByLat.size() * 3 + 4) / 5);
  double SelfSum = 0;
  for (const char *Layer :
       {"unattributed", "plancache", "core", "executor", "materialize", "plan",
        "jit", "engine", "pool", "merge", "epilogue"}) {
    double V = 0;
    for (size_t K = Lo; K < Hi && K < ByLat.size(); ++K) {
      auto It = ByLat[K]->SelfMs.find(Layer);
      V += It == ByLat[K]->SelfMs.end() ? 0.0 : It->second;
    }
    V /= double(Hi - Lo);
    SelfSum += V;
    Ms.push_back({std::string("self.") + Layer + "_ms", V, "ms",
                  "(median request)"});
  }
  std::vector<double> TracedLat;
  for (const TracedSample &S : Sm)
    TracedLat.push_back(S.LatMs);
  const double TracedP50 = median(TracedLat);
  const double UntracedP50 = median(U.LatMs);
  const double Overhead = TracedP50 - UntracedP50;
  Ms.push_back({"trace.self_sum_ms", SelfSum, "ms", "(median request)"});
  Ms.push_back({"trace.traced_p50_ms", TracedP50, "ms",
                "(n=" + std::to_string(TracedLat.size()) + ")"});
  Ms.push_back({"trace.untraced_p50_ms", UntracedP50, "ms",
                "(n=" + std::to_string(U.LatMs.size()) + ")"});
  Ms.push_back({"trace.overhead_ms", Overhead, "ms", "(traced - untraced)"});
  const bool Accounted = std::fabs(SelfSum - UntracedP50) <=
                         std::fabs(Overhead) + 0.1 * UntracedP50;
  std::printf("# accounting: self times sum to %.4f ms against untraced "
              "p50 %.4f ms (overhead %.4f ms): %s\n",
              SelfSum, UntracedP50, Overhead,
              Accounted ? "accounted" : "NOT accounted");
  const uint64_t Attempted = U.Attempted + T.Attempted;
  const uint64_t Failed = U.Failed + T.Failed;
  std::printf("%-28s %14.6f %-6s\n", "fail_ratio",
              double(Failed) / double(Attempted), "ratio");
  printResult(Ms, Attempted, Failed);
  return 0;
}

/// Shows that a corrupted output is counted as a failure: on every
/// workload, a short loop corrupts every third output before its check
/// and must count exactly those as failed.
int runSelfTest(const Args &A0, const std::string &SoDir) {
  int Bad = 0;
  for (const std::string &Name : workloadNames()) {
    Args A = A0;
    A.Workload = Name;
    Bench B;
    std::string Err;
    if (!setUp(A, SoDir, 0, B, Err)) {
      std::printf("selftest %s: set-up failed: %s\n", Name.c_str(),
                  Err.c_str());
      ++Bad;
      continue;
    }
    uint64_t Seen = 0;
    Tamper T = [&](Request &R) {
      if (Seen++ % 3 != 1)
        return false;
      std::vector<double> &V = R.output().vals();
      size_t At = 0;
      for (size_t K = 0; K < V.size(); ++K)
        if (std::isfinite(V[K]) &&
            (!std::isfinite(V[At]) || std::fabs(V[K]) > std::fabs(V[At])))
          At = K;
      V[At] += 1e-3 * (std::fabs(V[At]) + 1.0);
      return true;
    };
    const LoopResult R = runServiceLoop(*B.W, *B.Svc, {0, 6, 60}, T);
    const bool Ok = R.Tampered >= 1 && R.Failed == R.Tampered &&
                    R.Attempted == R.LatMs.size();
    std::printf("selftest %s: %llu requests, %llu corrupted, %llu counted "
                "failed: %s\n",
                Name.c_str(), (unsigned long long)R.Attempted,
                (unsigned long long)R.Tampered, (unsigned long long)R.Failed,
                Ok ? "ok" : "MISMATCH");
    Bad += !Ok;
  }
  return Bad ? 1 : 0;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    const std::string K = Argv[I];
    if (K == "--selftest") {
      A.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    const std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::stoull(V);
    else if (K == "--seconds")
      A.Seconds = std::stod(V);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--scratch")
      A.Scratch = V;
    else
      return false;
  }
  return !A.Scratch.empty() && (A.SelfTest || !A.Workload.empty());
}

/// A private 0700 directory for this run, removed when the run ends.
/// TMPDIR points into it, so neither the host compiler nor the JIT's
/// default cache location writes anywhere else.
class PrivateDir {
public:
  explicit PrivateDir(const std::string &Parent) {
    std::string Templ = Parent + "/run-XXXXXX";
    if (char *P = mkdtemp(Templ.data()))
      Path = P;
  }
  ~PrivateDir() {
    if (!Path.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(Path, EC);
    }
  }
  PrivateDir(const PrivateDir &) = delete;
  PrivateDir &operator=(const PrivateDir &) = delete;
  std::string Path;
};

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  try {
    if (!parseArgs(Argc, Argv, A)) {
      std::fprintf(stderr,
                   "usage: %s --workload <name> --seed <n> --seconds <s> "
                   "--trace <0|1> --scratch <dir>\n"
                   "       %s --selftest --scratch <dir>\n",
                   Argv[0], Argv[0]);
      return 2;
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "bad argument: %s\n", E.what());
    return 2;
  }
  const std::vector<std::string> &Names = workloadNames();
  if (!A.SelfTest &&
      std::find(Names.begin(), Names.end(), A.Workload) == Names.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }
  PrivateDir Dir(A.Scratch);
  if (Dir.Path.empty()) {
    std::fprintf(stderr, "cannot create a private directory in %s\n",
                 A.Scratch.c_str());
    return 1;
  }
  const std::string SoDir = Dir.Path + "/so";
  if (mkdir(SoDir.c_str(), 0700) != 0) {
    std::fprintf(stderr, "cannot create %s\n", SoDir.c_str());
    return 1;
  }
  setenv("TMPDIR", Dir.Path.c_str(), 1);
  unsetenv("SYSTEC_JIT_CACHE_DIR");
  try {
    if (A.SelfTest)
      return runSelfTest(A, SoDir);
    return A.Trace ? runTraced(A, SoDir) : runEndToEnd(A, SoDir);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
