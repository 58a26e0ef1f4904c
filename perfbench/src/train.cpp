//===- perfbench/src/train.cpp - train_cnn and train_seq workloads --------===//
///
/// Closed-loop SGD training: each step draws a fresh seeded batch (outside
/// the timed region), then times forward + backward + Solver::step. Fresh
/// batches are deliberate: re-training one fixed batch drives the loss to
/// zero within seconds and changes the program's speed (see README.md).
///
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "compiler/compiler.h"
#include "compiler/program_cache.h"
#include "engine/executor.h"
#include "jit/jit_backend.h"
#include "solvers/solvers.h"
#include "support/profile.h"
#include "verify/lattice.h"

#include <cmath>
#include <memory>

using namespace latte;

namespace perfbench {

namespace {

constexpr int kSetupReps = 3;
constexpr double kWarmupSec = 1.0;

solvers::SolverParameters solverParams() {
  solvers::SolverParameters P;
  P.Lr = solvers::LRPolicy::fixed(0.001);
  P.Momentum = solvers::MomPolicy::fixed(0.9);
  return P;
}

compiler::CompileOptions trainOptions() {
  compiler::CompileOptions CO; // the default full stack
  CO.Jit = true;
  return CO;
}

struct Trainer {
  std::unique_ptr<engine::Executor> Ex;
  std::unique_ptr<solvers::SgdSolver> Solver;
};

/// Net build + compile + executor/JIT build + initParams, from an empty
/// JIT cache directory and a cleared ProgramCache.
Trainer setUp(const Options &O, Recorder &R, const models::ModelSpec &Spec,
              int64_t BatchSize, int Rep, bool Profile) {
  useEmptyJitDir(O.JitRoot, "setup-" + std::to_string(Rep));
  compiler::ProgramCache::instance().clear();
  jit::Stats J0 = jit::stats();
  engine::ExecOptions EO;
  EO.Profile = Profile;
  Trainer T;
  uint64_t Start = nowNs();
  std::unique_ptr<core::Net> Net;
  timed(R, "models.build", [&] {
    Net = std::make_unique<core::Net>(BatchSize);
    models::buildLatte(*Net, Spec, /*WithLoss=*/true);
  });
  compiler::Program Prog;
  timed(R, "compiler.compile",
        [&] { Prog = compiler::compile(*Net, trainOptions()); });
  timed(R, "engine.executor_build", [&] {
    T.Ex = std::make_unique<engine::Executor>(std::move(Prog), EO);
  });
  timed(R, "engine.init_params",
        [&] { T.Ex->initParams(streamSeed(O.Seed, "params")); });
  uint64_t End = nowNs();
  if (R.tracing())
    R.span("setup", Start, End);
  R.sample("setup_s", double(End - Start) * 1e-9);

  jit::Stats J1 = jit::stats();
  R.counter("jit.compiles", double(J1.Compiles - J0.Compiles));
  R.counter("jit.disk_cache_hits",
            double(J1.DiskCacheHits - J0.DiskCacheHits));
  if (J1.Compiles == J0.Compiles || J1.DiskCacheHits != J0.DiskCacheHits ||
      J1.MemCacheHits != J0.MemCacheHits)
    R.fail("setup was not cold: JIT compiles " +
           std::to_string(J1.Compiles - J0.Compiles) + ", disk hits " +
           std::to_string(J1.DiskCacheHits - J0.DiskCacheHits) +
           ", memory hits " +
           std::to_string(J1.MemCacheHits - J0.MemCacheHits));
  T.Solver = std::make_unique<solvers::SgdSolver>(solverParams());
  return T;
}

void recordProgram(Recorder &R, const engine::Executor &Ex) {
  const compiler::Program &P = Ex.program();
  R.counter("compiler.arena_mb", double(P.Plan.ArenaBytes) / 1e6);
  R.counter("compiler.tasks",
            double(P.ForwardTasks.size() + P.BackwardTasks.size()));
  R.counter("compiler.gemm_ensembles",
            double(P.Report.MatchedGemmEnsembles.size()));
  R.counter("compiler.interpreted_ensembles",
            double(P.Report.InterpretedEnsembles.size()));
  int64_t Fused = 0;
  for (const auto &G : P.Report.FusionGroups)
    Fused += G.size() > 1;
  R.counter("compiler.fusion_groups", double(Fused));
  R.counter("jit.tasks", Ex.jitTaskCount());
  R.counter("jit.fallback_tasks", Ex.jitFallbackCount());
}

void feed(engine::Executor &Ex, const Batch &B) {
  Ex.setInput(B.Data);
  Ex.setLabels(B.Labels);
}

/// |ref - got| <= AbsTol + RelTol * max(|ref|, |got|), the lattice oracle's
/// agreement rule. Returns "" or a description of the first mismatch.
std::string compareBuffer(const std::string &Name, const Tensor &Ref,
                          const Tensor &Got) {
  verify::LatticeOptions Tol;
  if (Ref.numElements() != Got.numElements())
    return Name + ": element counts differ";
  for (int64_t I = 0; I < Ref.numElements(); ++I) {
    float A = Ref.at(I), B = Got.at(I);
    float Lim = Tol.AbsTol + Tol.RelTol * std::max(std::fabs(A), std::fabs(B));
    if (!(std::fabs(A - B) <= Lim))
      return Name + "[" + std::to_string(I) + "]: reference " +
             std::to_string(A) + ", optimized " + std::to_string(B);
  }
  return "";
}

/// The first \p Steps steps of a fresh optimized executor against the fully
/// unoptimized interpreter (lattice mask 0): loss, every parameter
/// gradient, and every parameter after the update.
void checkAgainstInterpreter(const Options &O, Recorder &R,
                             const models::ModelSpec &Spec, int64_t BatchSize,
                             int64_t Steps) {
  core::Net Net(BatchSize);
  models::buildLatte(Net, Spec, /*WithLoss=*/true);
  compiler::CompileOptions RefOpts = verify::optionsForMask(0);
  RefOpts.VerifyEach = false;
  engine::ExecOptions RefExec;
  RefExec.VectorKernels = false;
  RefExec.Parallel = false;
  RefExec.Deterministic = true;
  engine::Executor Ref(compiler::compile(Net, RefOpts), RefExec);
  engine::Executor Got(compiler::compile(Net, trainOptions()));
  if (!Got.jitActive() || Got.jitFallbackCount() != 0) {
    R.fail("checked executor did not run fully through the JIT");
    return;
  }
  uint64_t ParamSeed = streamSeed(O.Seed, "params");
  Ref.initParams(ParamSeed);
  Got.initParams(ParamSeed);
  solvers::SgdSolver RefSolver(solverParams()), GotSolver(solverParams());
  for (int64_t Step = 0; Step < Steps; ++Step) {
    Batch B = trainBatch(Spec, BatchSize, O.Seed, Step);
    feed(Ref, B);
    feed(Got, B);
    Ref.forward();
    Got.forward();
    std::string Why;
    if (!Ref.program().LossBuffer.empty())
      Why = compareBuffer(Ref.program().LossBuffer,
                          Ref.readBuffer(Ref.program().LossBuffer),
                          Got.readBuffer(Got.program().LossBuffer));
    Ref.backward();
    Got.backward();
    for (const compiler::ParamBinding &P : Ref.program().Params)
      if (Why.empty())
        Why = compareBuffer(P.Grad, Ref.readBuffer(P.Grad),
                            Got.readBuffer(P.Grad));
    RefSolver.step(Ref, Step);
    GotSolver.step(Got, Step);
    for (const compiler::ParamBinding &P : Ref.program().Params)
      if (Why.empty())
        Why = compareBuffer(P.Param, Ref.readBuffer(P.Param),
                            Got.readBuffer(P.Param));
    if (!Why.empty()) {
      R.fail("step " + std::to_string(Step) +
             " differs from the unoptimized interpreter: " + Why);
      return;
    }
  }
}

} // namespace

models::ModelSpec trainSpec(const std::string &Workload, int64_t *BatchSize) {
  if (Workload == "train_cnn") {
    *BatchSize = 4;
    return models::vggFirstThreeLayers(0.25);
  }
  *BatchSize = 16;
  return models::attentionClassifier(16, 64, 64, 10);
}

void runTrain(const Options &O, Recorder &R) {
  int64_t BatchSize = 0;
  models::ModelSpec Spec = trainSpec(O.Workload, &BatchSize);
  const bool Traced = R.tracing();

  // Set up kSetupReps times from cold; the last trainer is measured.
  Trainer T;
  for (int Rep = 0; Rep < kSetupReps; ++Rep) {
    T = Trainer(); // drop the previous module so the registry is cold too
    T = setUp(O, R, Spec, BatchSize, Rep, /*Profile=*/Traced);
  }
  engine::Executor &Ex = *T.Ex;
  recordProgram(R, Ex);
  if (!Ex.jitActive() || Ex.jitFallbackCount() != 0)
    R.fail("JIT not fully active: active=" + std::to_string(Ex.jitActive()) +
           " fallback tasks=" + std::to_string(Ex.jitFallbackCount()) +
           " (" + Ex.jitDiagnostic() + ")");

  // Warm up, then measure. A traced run measures twice: untraced (profile
  // globally off) and traced, for trace.overhead_pct.
  int64_t Step = 0;
  // Records each step into sample series \p Series ("" = warm-up, unrecorded).
  auto RunPhase = [&](double Seconds, const std::string &Series) {
    uint64_t Until = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
    while (nowNs() < Until) {
      Batch B = trainBatch(Spec, BatchSize, O.Seed, Step);
      feed(Ex, B);
      uint64_t T0 = nowNs();
      Ex.forward();
      uint64_t T1 = nowNs();
      Ex.backward();
      uint64_t T2 = nowNs();
      T.Solver->step(Ex, Step);
      uint64_t T3 = nowNs();
      double Loss = Ex.lossValue();
      if (!Series.empty()) {
        R.sample(Series, double(T3 - T0) * 1e-6);
        R.attempted(1);
        if (!std::isfinite(Loss))
          R.failed(1);
        if (R.tracing()) {
          R.span("step", T0, T3, Step);
          R.span("engine.forward", T0, T1, Step);
          R.span("engine.backward", T1, T2, Step);
          R.span("solvers.step", T2, T3, Step);
        }
      }
      ++Step;
    }
  };
  R.setTracing(false);
  prof::Profiler::get().setEnabled(false);
  RunPhase(kWarmupSec, "");
  if (!Traced) {
    RunPhase(O.Seconds, "step_ms");
  } else {
    RunPhase(O.Seconds / 2, "untraced.step_ms");
    R.setTracing(true);
    prof::Profiler::get().reset();
    prof::Profiler::get().setEnabled(true);
    RunPhase(O.Seconds / 2, "step_ms");
    prof::Profiler::get().setEnabled(false);
    R.addEngineTaskSpans();
  }
  R.counter("items_per_step", double(BatchSize));
  R.counter("peak_rss_mb", peakRssMb());

  if (Traced)
    runProbes(O, R);
  // The mask-0 interpreter needs ~20 s per train_cnn step on one core, so
  // that workload checks one step; train_seq checks two.
  checkAgainstInterpreter(O, R, Spec, BatchSize,
                          O.Workload == "train_cnn" ? 1 : 2);
}

} // namespace perfbench
