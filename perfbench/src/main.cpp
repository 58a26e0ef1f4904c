//===- perfbench/src/main.cpp - latte_perfbench entry point ---------------===//
///
///   latte_perfbench --workload train_cnn|train_seq|serve_mixed --seed N
///                   --seconds S --trace 0|1 --out report.json
///                   --jit-root DIR [--nominal-rps R --ladder r1,r2,...
///                   --limit-ms L --rung-sec T]
///   latte_perfbench --digest --workload W --seed N
///
/// Writes the raw report run.py turns into metrics. Exits 1 when a
/// correctness check failed (the report still records why), 2 on bad
/// arguments. perfbench/run.py is the supported way to run it.
///
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr, "latte_perfbench: %s (see perfbench/run.py)\n", Why);
  std::exit(2);
}

std::vector<double> parseList(const std::string &S) {
  std::vector<double> Out;
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    Out.push_back(std::atof(S.substr(Pos, Comma - Pos).c_str()));
    Pos = Comma + 1;
  }
  return Out;
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--digest") {
      O.Digest = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--out")
      O.Out = V;
    else if (A == "--jit-root")
      O.JitRoot = V;
    else if (A == "--nominal-rps")
      O.NominalRps = std::atof(V.c_str());
    else if (A == "--ladder")
      O.Ladder = parseList(V);
    else if (A == "--limit-ms")
      O.LimitMs = std::atof(V.c_str());
    else if (A == "--rung-sec")
      O.RungSec = std::atof(V.c_str());
    else
      usage(("unknown argument " + A).c_str());
  }
  if (O.Workload != "train_cnn" && O.Workload != "train_seq" &&
      O.Workload != "serve_mixed")
    usage("unknown workload");
  if (O.Digest)
    return O;
  if (O.Seconds <= 0 || O.Out.empty() || O.JitRoot.empty())
    usage("--seconds, --out and --jit-root are required");
  if (O.Workload == "serve_mixed" &&
      (O.NominalRps <= 0 || O.Ladder.empty() || O.LimitMs <= 0 ||
       O.RungSec <= 0))
    usage("serve_mixed needs --nominal-rps, --ladder, --limit-ms, --rung-sec");
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  if (O.Digest) {
    std::printf("%016llx\n",
                static_cast<unsigned long long>(inputDigest(O.Workload, O.Seed)));
    return 0;
  }
  Recorder R(O.Trace);
  if (O.Workload == "serve_mixed")
    runServe(O, R);
  else
    runTrain(O, R);
  std::ofstream(O.Out) << R.toJson(O).dump() << "\n";
  return R.correct() ? 0 : 1;
}
