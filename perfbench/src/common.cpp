//===- perfbench/src/common.cpp - Seeded inputs and the Recorder ----------===//

#include "perfbench.h"

#include "support/profile.h"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

using namespace latte;

namespace perfbench {

uint64_t streamSeed(uint64_t Seed, const std::string &Tag) {
  // FNV-1a over the tag, mixed with the seed through one splitmix64 round.
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Tag) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  uint64_t Z = Seed + H + 0x9e3779b97f4a7c15ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

Batch trainBatch(const models::ModelSpec &Spec, int64_t BatchSize,
                 uint64_t Seed, int64_t Step) {
  Rng R(streamSeed(Seed, "train-batch-" + std::to_string(Step)));
  Batch B{Tensor(Spec.InputDims.withPrefix(BatchSize)),
          Tensor(Shape{BatchSize, 1})};
  R.fillGaussian(B.Data, 0.0f, 1.0f);
  for (int64_t I = 0; I < BatchSize; ++I)
    B.Labels.at(I) = static_cast<float>(R.uniformInt(Spec.NumClasses));
  return B;
}

std::vector<Arrival> poissonSchedule(uint64_t Seed, const std::string &Tag,
                                     double RatePerSec, double Seconds,
                                     int PoolSize) {
  Rng R(streamSeed(Seed, "arrivals-" + Tag));
  std::vector<Arrival> Out;
  double T = 0;
  while (true) {
    T += -std::log(1.0 - R.uniform()) / RatePerSec;
    if (T >= Seconds)
      break;
    Arrival A;
    A.DueNs = static_cast<int64_t>(T * 1e9);
    int64_t P = R.uniformInt(4); // 1:2:1 interactive/standard/bulk
    A.Priority = P == 0 ? 0 : (P == 3 ? 2 : 1);
    A.PoolIndex = static_cast<int>(R.uniformInt(PoolSize));
    Out.push_back(A);
  }
  return Out;
}

std::vector<Tensor> inputPool(const models::ModelSpec &Spec, uint64_t Seed,
                              int Size) {
  std::vector<Tensor> Pool;
  for (int I = 0; I < Size; ++I) {
    Tensor T(Spec.InputDims);
    Rng R(streamSeed(Seed, "pool-" + std::to_string(I)));
    R.fillGaussian(T, 0.0f, 1.0f);
    Pool.push_back(std::move(T));
  }
  return Pool;
}

uint64_t nowNs() { return prof::Profiler::nowNs(); }

double peakRssMb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
  // the launching process's peak when that was larger.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0; // kB
  return 0;
}

static uint64_t mixBytes(uint64_t H, const void *Data, size_t N) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < N; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

static uint64_t mixTensor(uint64_t H, const Tensor &T) {
  return mixBytes(H, T.data(), sizeof(float) * size_t(T.numElements()));
}

uint64_t inputDigest(const std::string &Workload, uint64_t Seed) {
  uint64_t H = 0xcbf29ce484222325ull;
  if (Workload != "serve_mixed") {
    int64_t BatchSize = 0;
    models::ModelSpec Spec = trainSpec(Workload, &BatchSize);
    for (int64_t Step = 0; Step < 8; ++Step) {
      Batch B = trainBatch(Spec, BatchSize, Seed, Step);
      H = mixTensor(mixTensor(H, B.Data), B.Labels);
    }
    return H;
  }
  for (const Tensor &T : inputPool(serveSpec(), Seed, 8))
    H = mixTensor(H, T);
  for (const Arrival &A : poissonSchedule(Seed, "nominal", 200.0, 2.0, 8))
    H = mixBytes(H, &A, sizeof A);
  return H;
}

void useEmptyJitDir(const std::string &Root, const std::string &Name) {
  std::filesystem::path Dir = std::filesystem::path(Root) / Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  setenv("LATTE_JIT_DIR", Dir.c_str(), /*overwrite=*/1);
}

static json::Value spanJson(const std::string &Name, const char *Ph,
                            uint64_t StartNs, uint64_t DurNs, int64_t Id,
                            int Tid) {
  json::Value S = json::Value::object();
  S.set("name", Name);
  S.set("ph", Ph);
  S.set("ts", double(StartNs) * 1e-3);
  S.set("dur", double(DurNs) * 1e-3);
  S.set("tid", Tid);
  if (Id >= 0)
    S.set("id", Id);
  return S;
}

void Recorder::span(const std::string &Name, uint64_t StartNs, uint64_t EndNs,
                    int64_t Id) {
  Spans.push(spanJson(Name, "X", StartNs, EndNs - StartNs, Id, 0));
}

void Recorder::asyncSpan(const std::string &Name, uint64_t StartNs,
                         uint64_t EndNs, int64_t Id) {
  Spans.push(spanJson(Name, "async", StartNs, EndNs - StartNs, Id, 0));
}

void Recorder::addEngineTaskSpans() {
  // Engine task spans carry the profiler's dense thread ids; the
  // benchmark's own spans sit on lane 0, the orchestrating thread, which
  // is also the profiler's first registered thread here.
  for (const prof::Span &S : prof::Profiler::get().spans())
    Spans.push(spanJson("engine.task:" + S.Name, "X", S.StartNs, S.DurNs,
                        -1, static_cast<int>(S.ThreadId)));
}

void Recorder::fail(const std::string &Why) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", Why.c_str());
  Errors.push_back(Why);
}

json::Value Recorder::toJson(const Options &O) const {
  json::Value Doc = json::Value::object();
  Doc.set("workload", O.Workload);
  Doc.set("seed", O.Seed);
  Doc.set("correct", correct());
  json::Value Errs = json::Value::array();
  for (const std::string &E : Errors)
    Errs.push(E);
  Doc.set("errors", std::move(Errs));
  Doc.set("attempted", Attempted);
  Doc.set("failed", Failed);
  json::Value S = json::Value::object();
  for (const auto &[Name, Values] : Samples) {
    json::Value Arr = json::Value::array();
    for (double V : Values)
      Arr.push(V);
    S.set(Name, std::move(Arr));
  }
  Doc.set("samples", std::move(S));
  json::Value C = json::Value::object();
  for (const auto &[Name, Value] : Counters)
    C.set(Name, Value);
  Doc.set("counters", std::move(C));
  Doc.set("spans", Spans);
  return Doc;
}

} // namespace perfbench
