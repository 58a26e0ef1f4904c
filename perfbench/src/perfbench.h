//===- perfbench/src/perfbench.h - Repository benchmark binary -*- C++ -*-===//
///
/// \file
/// Shared pieces of latte_perfbench, the binary behind perfbench/run.py:
/// the command line, the seeded input generators, and the Recorder that
/// collects raw samples, counters and benchmark-side spans into the JSON
/// report run.py turns into metrics. Every span is recorded here, around
/// calls into the library's public functions; the library itself is not
/// instrumented beyond its existing per-task profile.
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_PERFBENCH_PERFBENCH_H
#define LATTE_PERFBENCH_PERFBENCH_H

#include "models/models.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/tensor.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Out;     ///< report path (JSON)
  std::string JitRoot; ///< parent of the per-setup empty JIT cache dirs
  bool Digest = false; ///< print the seeded-input digest and exit
  // serve_mixed: fixed absolute rates (never a fraction of a measured peak).
  double NominalRps = 0;       ///< rate of the latency phase
  std::vector<double> Ladder;  ///< goodput ladder, ascending
  double LimitMs = 0;          ///< per-request latency limit for goodput
  double RungSec = 1;          ///< length of one ladder rung
};

/// Derives an independent stream seed from the workload seed and a tag, so
/// that each phase's inputs depend only on (seed, tag).
uint64_t streamSeed(uint64_t Seed, const std::string &Tag);

/// One training batch: inputs and integer class labels.
struct Batch {
  latte::Tensor Data;
  latte::Tensor Labels;
};

/// The training batch of step \p Step: a pure function of (seed, step).
Batch trainBatch(const latte::models::ModelSpec &Spec, int64_t BatchSize,
                 uint64_t Seed, int64_t Step);

/// One scheduled request of an open-loop phase.
struct Arrival {
  int64_t DueNs = 0; ///< offset from the phase start
  int Priority = 1;  ///< serve::Priority value (0 interactive .. 2 bulk)
  int PoolIndex = 0; ///< which input of the pool it carries
};

/// Poisson arrivals at \p RatePerSec for \p Seconds, priorities drawn
/// 1:2:1 interactive/standard/bulk: a pure function of (seed, tag).
std::vector<Arrival> poissonSchedule(uint64_t Seed, const std::string &Tag,
                                     double RatePerSec, double Seconds,
                                     int PoolSize);

/// The serving input pool: \p Size seeded items of \p Spec's input shape.
std::vector<latte::Tensor> inputPool(const latte::models::ModelSpec &Spec,
                                     uint64_t Seed, int Size);

/// Monotonic nanoseconds on the profiler's clock (the engine's per-task
/// spans use the same epoch, so both kinds line up in one trace).
uint64_t nowNs();

/// Peak resident set of this process so far, in MB.
double peakRssMb();

/// Raw results of one run: samples (run.py takes medians/percentiles),
/// counters, correctness verdict, and — in traced runs — spans.
class Recorder {
public:
  explicit Recorder(bool Trace) : Tracing(Trace) {}

  bool tracing() const { return Tracing; }
  /// Spans are kept only while tracing is on (see setTracing).
  void setTracing(bool On) { Tracing = On; }

  void sample(const std::string &Series, double Value) {
    Samples[Series].push_back(Value);
  }
  void counter(const std::string &Name, double Value) {
    Counters[Name] = Value;
  }
  /// A complete span on the orchestrating thread; \p Id groups spans of
  /// one step or request (-1 = none).
  void span(const std::string &Name, uint64_t StartNs, uint64_t EndNs,
            int64_t Id = -1);
  /// An asynchronous (overlapping) span, e.g. a request from due time to
  /// response.
  void asyncSpan(const std::string &Name, uint64_t StartNs, uint64_t EndNs,
                 int64_t Id);
  /// Appends the engine profiler's per-task spans recorded so far.
  void addEngineTaskSpans();

  void fail(const std::string &Why);
  bool correct() const { return Errors.empty(); }

  void attempted(int64_t N) { Attempted += N; }
  void failed(int64_t N) { Failed += N; }

  latte::json::Value toJson(const Options &O) const;

private:
  bool Tracing;
  std::map<std::string, std::vector<double>> Samples;
  std::map<std::string, double> Counters;
  latte::json::Value Spans = latte::json::Value::array();
  std::vector<std::string> Errors;
  int64_t Attempted = 0;
  int64_t Failed = 0;
};

/// Runs \p Fn, recorded as span \p Name when tracing.
template <typename F>
void timed(Recorder &R, const std::string &Name, F &&Fn, int64_t Id = -1) {
  uint64_t T0 = nowNs();
  Fn();
  if (R.tracing())
    R.span(Name, T0, nowNs(), Id);
}

/// Points LATTE_JIT_DIR at a fresh empty directory under \p Root (the JIT
/// backend resolves it on every compile), so the next executor build is a
/// cold JIT compile.
void useEmptyJitDir(const std::string &Root, const std::string &Name);

// --- workloads and probes ---------------------------------------------------

void runTrain(const Options &O, Recorder &R);
void runServe(const Options &O, Recorder &R);

/// Per-layer probes independent of the workload's own path: kernels::sgemm
/// on the Fig. 13 conv shapes and the Caffe baseline's step on the Fig. 13
/// net (a drift control).
void runProbes(const Options &O, Recorder &R);

/// Training nets of the workloads, and the serving net.
latte::models::ModelSpec trainSpec(const std::string &Workload,
                                   int64_t *BatchSize);
latte::models::ModelSpec serveSpec();

/// Digest of every seeded input the workload would use for \p Seed, for
/// the self-tests (same seed -> same digest).
uint64_t inputDigest(const std::string &Workload, uint64_t Seed);

} // namespace perfbench

#endif // LATTE_PERFBENCH_PERFBENCH_H
