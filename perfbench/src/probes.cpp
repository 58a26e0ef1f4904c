//===- perfbench/src/probes.cpp - Workload-independent layer probes -------===//
///
/// Traced runs only. kernels::sgemm on the Fig. 13 net's conv shapes as
/// the compiled program calls them (3x3 conv, 3 -> 64 channels on 56x56,
/// tiled 8 rows at a time), and the Caffe baseline's fwd+bwd step on the
/// same net at batch 4 — a drift control that no Latte change should move.
///
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "baselines/caffe/caffe.h"
#include "kernels/gemm.h"

#include <vector>

using namespace latte;

namespace perfbench {

namespace {

constexpr int kWarmupCalls = 5;
constexpr int kTimedCalls = 50;
constexpr int kCaffeSteps = 20;

struct GemmShape {
  const char *Name;
  bool TransA, TransB;
  int64_t M, N, K, LdA, LdB, LdC;
  bool Accumulate;
};

// Spatial extent 56*56 = 3136, window K = 3*3*3 = 27, 64 filters.
constexpr GemmShape kShapes[] = {
    // Forward: W[64x27] * col[27 x 8 rows of 56], row stride 3136.
    {"conv_fwd", false, false, 64, 448, 27, 27, 3136, 3136, false},
    // Weight gradient: gOut[64x3136] * col^T[3136x27], accumulated.
    {"conv_wgrad", false, true, 64, 27, 3136, 3136, 3136, 27, true},
};

std::vector<float> seeded(size_t N, uint64_t Seed) {
  Rng R(Seed);
  std::vector<float> V(N);
  for (float &X : V)
    X = static_cast<float>(R.uniform(-1.0, 1.0));
  return V;
}

} // namespace

void runProbes(const Options &O, Recorder &R) {
  for (const GemmShape &G : kShapes) {
    size_t ASize = size_t(G.TransA ? G.K * G.LdA : G.M * G.LdA);
    size_t BSize = size_t(G.TransB ? G.N * G.LdB : G.K * G.LdB);
    std::vector<float> A = seeded(ASize, streamSeed(O.Seed, "gemm-a"));
    std::vector<float> B = seeded(BSize, streamSeed(O.Seed, "gemm-b"));
    std::vector<float> C(size_t(G.M * G.LdC), 0.0f);
    auto Call = [&] {
      kernels::sgemm(G.TransA, G.TransB, G.M, G.N, G.K, A.data(), G.LdA,
                     B.data(), G.LdB, C.data(), G.LdC, G.Accumulate);
    };
    for (int I = 0; I < kWarmupCalls; ++I)
      Call();
    std::string Span = std::string("kernels.sgemm.") + G.Name;
    for (int I = 0; I < kTimedCalls; ++I)
      timed(R, Span, Call, I);
    R.counter(std::string("kernels.sgemm_flops.") + G.Name,
              2.0 * double(G.M) * double(G.N) * double(G.K));
  }

  caffe::CaffeNet Net(4);
  models::buildCaffe(Net, serveSpec(), /*WithLoss=*/true);
  Net.setup(streamSeed(O.Seed, "caffe-params"));
  Rng Data(streamSeed(O.Seed, "caffe-data"));
  Data.fillGaussian(Net.inputBlob().Data, 0.0f, 1.0f);
  for (int64_t I = 0; I < 4; ++I)
    Net.labelBlob().Data.at(I) = float(I);
  for (int I = 0; I < 2 + kCaffeSteps; ++I) {
    auto Step = [&] {
      Net.forward();
      Net.backward();
    };
    if (I < 2)
      Step();
    else
      timed(R, "baselines.caffe_step", Step, I);
  }
}

} // namespace perfbench
