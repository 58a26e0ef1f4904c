//===- perfbench/src/serve.cpp - serve_mixed workload ---------------------===//
///
/// Open-loop serving of the Fig. 13 net through serve::Server with default
/// ServeOptions: seeded Poisson arrivals at fixed absolute rates, priorities
/// 1:2:1 interactive/standard/bulk, each request timed from its due time.
/// One generator thread submits on schedule and polls the outstanding
/// futures in between, so completions are stamped within ~0.1 ms.
///
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "compiler/compiler.h"
#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

using namespace latte;

namespace perfbench {

namespace {

constexpr int kSetupReps = 5;
constexpr int kPoolSize = 64;
constexpr int kCheckedRows = 32;
constexpr double kWarmupSec = 1.0;
constexpr size_t kSaturationWindow = 64;

struct PhaseResult {
  int64_t Sent = 0;
  int64_t Failed = 0;         ///< shed at submit, or a non-Ok response
  int64_t WithinLimit = 0;    ///< Ok and no later than the latency limit
  int64_t BacklogAtEnd = 0;   ///< outstanding right after the last arrival
  std::vector<double> LatencyMs; ///< Ok requests, from due time
  std::vector<double> LateMs;    ///< how late each submit was issued
  std::vector<double> SubmitUs;  ///< duration of each submit call
  double WallSec = 0;
};

struct Pending {
  size_t Index;
  uint64_t DueNs;
  std::future<serve::Response> Fut;
};

/// Drives \p Sched against \p Srv. When \p Kept is given, the served row
/// of every schedule index it holds a key for is stored there.
PhaseResult openLoop(serve::Server &Srv, const std::vector<Tensor> &Pool,
                     const std::vector<Arrival> &Sched, double LimitMs,
                     Recorder &R, std::map<size_t, Tensor> *Kept = nullptr) {
  PhaseResult Res;
  std::vector<Pending> Out;
  const uint64_t Start = nowNs() + 1'000'000;
  const uint64_t LastDue =
      Sched.empty() ? Start : Start + uint64_t(Sched.back().DueNs);
  bool BacklogTaken = false;
  size_t Next = 0;
  auto Complete = [&](Pending &P, uint64_t Now) {
    serve::Response Resp = P.Fut.get();
    if (Resp.St != serve::Status::Ok) {
      ++Res.Failed;
      return;
    }
    double Ms = double(Now - P.DueNs) * 1e-6;
    Res.LatencyMs.push_back(Ms);
    Res.WithinLimit += Ms <= LimitMs;
    if (R.tracing())
      R.asyncSpan("serve.request", P.DueNs, Now, int64_t(P.Index));
    if (Kept && Kept->count(P.Index))
      (*Kept)[P.Index] = std::move(Resp.Output);
  };
  while (Next < Sched.size() || !Out.empty()) {
    uint64_t Now = nowNs();
    while (Next < Sched.size() && Now >= Start + uint64_t(Sched[Next].DueNs)) {
      const Arrival &A = Sched[Next];
      uint64_t Due = Start + uint64_t(A.DueNs);
      Tensor Item = Pool[size_t(A.PoolIndex)];
      serve::SubmitOptions SO;
      SO.Pri = static_cast<serve::Priority>(A.Priority);
      std::future<serve::Response> Fut;
      uint64_t S0 = nowNs();
      bool Admitted = Srv.submit(std::move(Item), &Fut, SO);
      uint64_t S1 = nowNs();
      ++Res.Sent;
      Res.LateMs.push_back(double(S0 - Due) * 1e-6);
      Res.SubmitUs.push_back(double(S1 - S0) * 1e-3);
      if (R.tracing())
        R.span("serve.submit", S0, S1, int64_t(Next));
      if (Admitted)
        Out.push_back(Pending{Next, Due, std::move(Fut)});
      else
        ++Res.Failed;
      ++Next;
      Now = nowNs();
    }
    if (!BacklogTaken && Next == Sched.size() && Now >= LastDue) {
      Res.BacklogAtEnd = int64_t(Out.size());
      BacklogTaken = true;
    }
    for (size_t I = 0; I < Out.size();) {
      if (Out[I].Fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        Complete(Out[I], nowNs());
        Out[I] = std::move(Out.back());
        Out.pop_back();
      } else {
        ++I;
      }
    }
    // Block briefly: on the oldest outstanding future when there is one
    // (so a completion wakes us at once), else until the next arrival.
    uint64_t Wait = 100'000;
    if (Next < Sched.size()) {
      uint64_t Due = Start + uint64_t(Sched[Next].DueNs);
      Now = nowNs();
      Wait = Due > Now ? std::min<uint64_t>(Wait, Due - Now) : 0;
    }
    if (Wait == 0)
      continue;
    if (!Out.empty())
      Out.front().Fut.wait_for(std::chrono::nanoseconds(Wait));
    else
      std::this_thread::sleep_for(std::chrono::nanoseconds(Wait));
  }
  Res.WallSec = double(nowNs() - Start) * 1e-9;
  return Res;
}

/// Per-layer serving counters over the interval between two snapshots.
void recordServeStats(Recorder &R, const serve::ServeStats &A,
                      const serve::ServeStats &B, int Replicas,
                      double WallSec) {
  int64_t Batches = B.Batches - A.Batches;
  double Busy = B.BusySec - A.BusySec;
  int64_t Full = B.FullFlushes - A.FullFlushes;
  int64_t Flushed = B.DeadlineFlushes - A.DeadlineFlushes;
  R.counter("serve.batch_exec_ms", Batches ? Busy / double(Batches) * 1e3 : 0);
  R.counter("serve.deadline_flush_share",
            Full + Flushed ? double(Flushed) / double(Full + Flushed) : 0);
  R.counter("serve.replica_busy_share", Busy / (Replicas * WallSec));
  double Items = 0, Slots = 0;
  for (const auto &[Size, Hist] : B.Fill)
    for (const auto &[Carried, Count] : Hist) {
      int64_t Before = 0;
      if (auto It = A.Fill.find(Size); It != A.Fill.end())
        if (auto J = It->second.find(Carried); J != It->second.end())
          Before = J->second;
      Items += double(Carried * (Count - Before));
      Slots += double(Size * (Count - Before));
    }
  R.counter("serve.fill_ratio", Slots > 0 ? Items / Slots : 0);
  R.counter("serve.shed", double(B.Shed - A.Shed));
  R.counter("serve.deadline_shed", double(B.DeadlineShed - A.DeadlineShed));
  R.counter("serve.deadline_missed",
            double(B.DeadlineMissed - A.DeadlineMissed));
}

void recordPhaseSamples(Recorder &R, const PhaseResult &P,
                        const std::string &Prefix) {
  for (double V : P.LatencyMs)
    R.sample(Prefix + "latency_ms", V);
  for (double V : P.LateMs)
    R.sample(Prefix + "late_ms", V);
  for (double V : P.SubmitUs)
    R.sample(Prefix + "submit_us", V);
}

/// Served rows must equal a batch-1 inference executor's output on the
/// same weights, bitwise.
void checkRows(Recorder &R, serve::Server &Srv, const models::ModelSpec &Spec,
               const std::vector<Tensor> &Pool,
               const std::vector<Arrival> &Sched,
               const std::map<size_t, Tensor> &Kept) {
  core::Net Net(1);
  models::buildLatte(Net, Spec, /*WithLoss=*/true);
  engine::Executor Ref(compiler::compileForward(Net, {}));
  Ref.shareParamsFrom(Srv.weightMaster());
  size_t Checked = 0;
  for (const auto &[Index, Row] : Kept) {
    if (Row.empty())
      continue; // not served Ok: already counted as failed
    ++Checked;
    Ref.setInput(Pool[size_t(Sched[Index].PoolIndex)]);
    timed(R, "engine.forward", [&] { Ref.forward(); }, int64_t(Index));
    Tensor Want = Ref.readBuffer(Ref.program().ProbBuffer);
    if (Row.numElements() != Want.numElements() ||
        std::memcmp(Row.data(), Want.data(),
                    sizeof(float) * size_t(Want.numElements())) != 0) {
      R.fail("served row of request " + std::to_string(Index) +
             " differs from the batch-1 inference executor");
      return;
    }
  }
  if (Checked == 0)
    R.fail("no sampled request was served");
}

/// Closed-loop saturation: keeps kSaturationWindow bulk requests in flight
/// for \p Seconds and returns the completion rate.
double saturatedRps(serve::Server &Srv, const std::vector<Tensor> &Pool,
                    double Seconds) {
  serve::SubmitOptions Bulk;
  Bulk.Pri = serve::Priority::Bulk;
  std::deque<std::future<serve::Response>> Out;
  int64_t Done = 0;
  size_t Next = 0;
  uint64_t Start = nowNs();
  uint64_t Until = Start + uint64_t(Seconds * 1e9);
  while (nowNs() < Until) {
    while (Out.size() < kSaturationWindow) {
      std::future<serve::Response> F;
      if (!Srv.submit(Pool[Next++ % Pool.size()], &F, Bulk))
        break;
      Out.push_back(std::move(F));
    }
    if (!Out.empty()) {
      Done += Out.front().get().St == serve::Status::Ok;
      Out.pop_front();
    }
  }
  double Sec = double(nowNs() - Start) * 1e-9;
  for (auto &F : Out)
    F.wait();
  return double(Done) / Sec;
}

/// The highest ladder rate at which >= 99% of the requests sent are served
/// within the latency limit with no growing backlog (no more requests
/// outstanding at the last arrival than the rate completes within the
/// limit). The ladder is scanned upwards and stops at the first miss.
double goodputRps(const Options &O, Recorder &R, serve::Server &Srv,
                  const std::vector<Tensor> &Pool) {
  double Goodput = 0;
  for (double Rate : O.Ladder) {
    std::vector<Arrival> Rung =
        poissonSchedule(O.Seed, "rung-" + std::to_string(int64_t(Rate)), Rate,
                        O.RungSec, kPoolSize);
    PhaseResult P = openLoop(Srv, Pool, Rung, O.LimitMs, R);
    double Share = P.Sent ? double(P.WithinLimit) / double(P.Sent) : 0;
    R.sample("ladder.rps", Rate);
    R.sample("ladder.within_limit_share", Share);
    if (Share < 0.99 || double(P.BacklogAtEnd) > Rate * O.LimitMs * 1e-3)
      break;
    Goodput = Rate;
  }
  return Goodput;
}

} // namespace

models::ModelSpec serveSpec() { return models::vggFirstThreeLayers(0.25); }

void runServe(const Options &O, Recorder &R) {
  models::ModelSpec Spec = serveSpec();
  const bool Traced = R.tracing();
  std::vector<Tensor> Pool = inputPool(Spec, O.Seed, kPoolSize);
  serve::ServeOptions SO; // defaults: 2 replicas, batch sizes 1/4/16
  SO.ParamSeed = streamSeed(O.Seed, "params");
  compiler::CompileOptions CO; // the default full stack, JIT off

  // Set up kSetupReps times from a cleared ProgramCache: construction until
  // every shape class is installed. The last server is measured.
  std::unique_ptr<serve::Server> Srv;
  compiler::ProgramCache::Stats CacheStats;
  for (int Rep = 0; Rep < kSetupReps; ++Rep) {
    Srv.reset();
    compiler::ProgramCache::instance().clear();
    uint64_t T0 = nowNs();
    Srv = std::make_unique<serve::Server>(Spec, CO, SO);
    bool Ready = Srv->waitAllClassesReady(std::chrono::seconds(120));
    uint64_t T1 = nowNs();
    if (!Ready)
      R.fail("shape classes still cold after 120 s");
    if (R.tracing())
      R.span("serve.setup", T0, T1);
    R.sample("setup_s", double(T1 - T0) * 1e-9);
    CacheStats = compiler::ProgramCache::instance().stats();
  }
  serve::Server &S = *Srv;
  R.counter("serve.all_ready_s", S.allReadySec());
  R.counter("compiler.program_cache_compiles", double(CacheStats.Compiles));
  R.counter("compiler.program_cache_coalesced", double(CacheStats.Coalesced));
  R.counter("compiler.arena_mb", double(S.replicaArenaBytes()) / 1e6);
  const compiler::Program &Prog = S.program(S.maxBatch());
  R.counter("compiler.tasks", double(Prog.ForwardTasks.size()));
  R.counter("compiler.gemm_ensembles",
            double(Prog.Report.MatchedGemmEnsembles.size()));
  R.counter("compiler.interpreted_ensembles",
            double(Prog.Report.InterpretedEnsembles.size()));
  int64_t Fused = 0;
  for (const auto &G : Prog.Report.FusionGroups)
    Fused += G.size() > 1;
  R.counter("compiler.fusion_groups", double(Fused));
  // The server compiles inside its constructor and compile threads; time
  // one compile of the largest shape class from outside.
  {
    core::Net Net(S.maxBatch());
    models::buildLatte(Net, Spec, /*WithLoss=*/true);
    timed(R, "compiler.compile",
          [&] { (void)compiler::compileForward(Net, CO); });
  }
  S.start();

  // Warm-up at the nominal rate, then the measured nominal phase. The
  // nominal schedule's sampled rows are checked bitwise at the end.
  R.setTracing(false);
  openLoop(S, Pool,
           poissonSchedule(O.Seed, "warmup", O.NominalRps, kWarmupSec,
                           kPoolSize),
           O.LimitMs, R);

  // Untraced: the nominal phase, then saturation, half the time each.
  // Traced: the nominal phase untraced and again traced (a quarter each),
  // then the goodput ladder.
  double NominalSec = Traced ? O.Seconds / 4 : O.Seconds / 2;
  std::vector<Arrival> Nominal =
      poissonSchedule(O.Seed, "nominal", O.NominalRps, NominalSec, kPoolSize);
  std::map<size_t, Tensor> Kept; // sampled rows, checked at the end
  size_t Wanted = std::min<size_t>(kCheckedRows, Nominal.size());
  for (Rng Pick(streamSeed(O.Seed, "checked-rows")); Kept.size() < Wanted;)
    Kept[size_t(Pick.uniformInt(int64_t(Nominal.size())))] = Tensor();
  serve::ServeStats Before = S.stats();
  PhaseResult Nom = openLoop(S, Pool, Nominal, O.LimitMs, R, &Kept);
  serve::ServeStats After = S.stats();
  R.attempted(Nom.Sent);
  R.failed(Nom.Failed);

  if (!Traced) {
    recordPhaseSamples(R, Nom, "");
    recordServeStats(R, Before, After, SO.Replicas, Nom.WallSec);
    R.counter("saturated_rps", saturatedRps(S, Pool, O.Seconds / 2));
  } else {
    recordPhaseSamples(R, Nom, "untraced.");
    R.setTracing(Traced);
    std::vector<Arrival> Again = poissonSchedule(
        O.Seed, "nominal-traced", O.NominalRps, NominalSec, kPoolSize);
    serve::ServeStats B0 = S.stats();
    PhaseResult Tr = openLoop(S, Pool, Again, O.LimitMs, R);
    serve::ServeStats B1 = S.stats();
    recordPhaseSamples(R, Tr, "");
    recordServeStats(R, B0, B1, SO.Replicas, Tr.WallSec);
    R.attempted(Tr.Sent);
    R.failed(Tr.Failed);
    R.setTracing(false);
    R.counter("serve.goodput_rps", goodputRps(O, R, S, Pool));
  }
  R.counter("peak_rss_mb", peakRssMb());
  S.stop();
  R.setTracing(Traced);

  if (Traced)
    runProbes(O, R);
  checkRows(R, S, Spec, Pool, Nominal, Kept);
}

} // namespace perfbench
