// Engineering micro-benchmarks (google-benchmark): the solver and engine
// kernels underlying the paper-reproduction benches, including the
// SparseLU-vs-dense-oracle MNA ablation called out in DESIGN.md.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ahdl/blocks.h"
#include "ahdl/system.h"
#include "bjtgen/generator.h"
#include "bjtgen/ringosc.h"
#include "celldb/database.h"
#include "celldb/seed.h"
#include "obs/bench.h"
#include "obs/cli.h"
#include "spice/analysis.h"
#include "spice/circuit.h"
#include "spice/csr.h"
#include "spice/diode.h"
#include "spice/passive.h"
#include "spice/sources.h"
#include "spice/solution.h"
#include "spice/sparse_lu.h"
#include "spice/stamp.h"
#include "support/dense_oracle.h"
#include "util/fft.h"
#include "util/json.h"
#include "util/numeric.h"
#include "util/table.h"
#include "util/units.h"

namespace sp = ahfic::spice;
namespace ah = ahfic::ahdl;
namespace bg = ahfic::bjtgen;
namespace cd = ahfic::celldb;
namespace oracle = ahfic::oracle;
namespace u = ahfic::util;

namespace {

/// An MNA-like random system: strong diagonal, ~5 off-diagonals per
/// row. Returns the dense matrix, and the same values on a CsrPattern.
void fillSystem(int n, oracle::DenseMatrix<double>& a, sp::CsrPattern& pat,
                std::vector<double>& vals, std::vector<double>& b) {
  u::Rng rng(static_cast<std::uint64_t>(n));
  a = oracle::DenseMatrix<double>(n, n);
  b.assign(static_cast<size_t>(n), 0.0);
  std::vector<std::pair<int, int>> entries;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double v = 0.0;
      if (i == j)
        v = 10.0 + rng.uniform();
      else if (rng.uniform() < 5.0 / n)
        v = rng.uniform(-1, 1);
      if (v != 0.0) {
        a.at(i, j) = v;
        entries.emplace_back(i, j);
      }
    }
    b[static_cast<size_t>(i)] = rng.uniform(-1, 1);
  }
  pat.build(n, std::move(entries));
  vals.assign(pat.nonzeros(), 0.0);
  for (int i = 0; i < n; ++i)
    for (int p = pat.rowPtr()[static_cast<size_t>(i)];
         p < pat.rowPtr()[static_cast<size_t>(i) + 1]; ++p)
      vals[static_cast<size_t>(p)] =
          a.at(i, pat.colIdx()[static_cast<size_t>(p)]);
}

void BM_DenseLuSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  oracle::DenseMatrix<double> a;
  sp::CsrPattern pat;
  std::vector<double> vals, b;
  fillSystem(n, a, pat, vals, b);
  for (auto _ : state) {
    auto aCopy = a;
    std::vector<int> perm;
    aCopy.luFactor(perm);
    std::vector<double> x;
    aCopy.luSolve(perm, b, x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_DenseLuSolve)->Arg(16)->Arg(64)->Arg(128);

void BM_SparseLuRefactorSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  oracle::DenseMatrix<double> a;
  sp::CsrPattern pat;
  std::vector<double> vals, b;
  fillSystem(n, a, pat, vals, b);
  sp::SparseLU<double> lu;
  lu.analyze(pat);
  lu.factor(vals);
  std::vector<double> x;
  for (auto _ : state) {
    lu.factor(vals);
    lu.solve(b, x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_SparseLuRefactorSolve)->Arg(16)->Arg(64)->Arg(128);

void BM_SpiceOperatingPoint(benchmark::State& state) {
  // The Fig. 11 ring oscillator's DC solve (~100 unknowns, 20 BJTs).
  const auto gen = bg::ModelGenerator::withDefaultTechnology();
  bg::RingOscillatorSpec spec;
  spec.diffPairModel = gen.generate("N1.2-12D");
  spec.followerModel = gen.generate("N1.2-6D");
  for (auto _ : state) {
    sp::Circuit ckt;
    bg::buildRingOscillator(ckt, spec);
    sp::Analyzer an(ckt);
    auto x = an.op();
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_SpiceOperatingPoint);

void BM_SpiceTransientRcStep(benchmark::State& state) {
  for (auto _ : state) {
    sp::Circuit ckt;
    const int in = ckt.node("in"), out = ckt.node("out");
    ckt.add<sp::VSource>("V1", in, 0,
                         std::make_unique<sp::PulseWaveform>(
                             0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 2.0));
    ckt.add<sp::Resistor>("R1", in, out, 1e3);
    ckt.add<sp::Capacitor>("C1", out, 0, 1e-9);
    sp::Analyzer an(ckt);
    auto tr = an.transient(5e-6, 10e-9);
    benchmark::DoNotOptimize(tr);
  }
}
BENCHMARK(BM_SpiceTransientRcStep);

void BM_AhdlStepThroughput(benchmark::State& state) {
  ah::System sys;
  sys.add<ah::SineSource>({}, {"rf"}, "src", 100e6, 1.0);
  sys.add<ah::SineSource>({}, {"lo"}, "lo", 145e6, 1.0);
  sys.add<ah::Mixer>({"rf", "lo"}, {"mix"}, "m", 2.0);
  sys.add<ah::FilterBlock>({"mix"}, {"out"}, "f",
                           ah::FilterBlock::Kind::kLowpass, 3, 80e6);
  sys.probe("out");
  for (auto _ : state) {
    auto res = sys.run(10e-6, 2e9);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_AhdlStepThroughput);

void BM_CellDbSearch(benchmark::State& state) {
  cd::CellDatabase db;
  cd::seedExampleLibrary(db);
  for (auto _ : state) {
    auto hits = db.search("gain");
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_CellDbSearch);

void BM_Fft4096(benchmark::State& state) {
  u::Rng rng(1);
  std::vector<double> sig(4096);
  for (auto& x : sig) x = rng.normal();
  for (auto _ : state) {
    auto spec = u::amplitudeSpectrum(sig, 1e9);
    benchmark::DoNotOptimize(spec);
  }
}
BENCHMARK(BM_Fft4096);

// ---------------------------------------------------------------------------
// Solver ablation (`--solver-json FILE`): the structure-caching SparseLU
// against the dense-LU oracle (tests/support/dense_oracle.h), at both the
// kernel level (MNA-like random systems) and the circuit level (diode-RC
// ladders through the full Analyzer, checked against the oracle's
// operating point). Emits the "ahfic-bench-solver-v1" document consumed
// by the CI solver-ablation smoke job and the perf-regression gate.

double nowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Mean ns per call, with one warmup call and a rep count sized so the
/// measured window is ~20 ms (capped for the expensive dense sizes).
template <typename F>
double timeOp(F&& f, double targetNs = 2e7, int maxReps = 400) {
  f();
  double t0 = nowNs();
  f();
  const double once = std::max(nowNs() - t0, 1.0);
  const int reps = std::clamp(static_cast<int>(targetNs / once), 1, maxReps);
  t0 = nowNs();
  for (int k = 0; k < reps; ++k) f();
  return (nowNs() - t0) / reps;
}

/// Solver-only ablation on one MNA-like system of size n: per-iteration
/// cost as a Newton loop pays it (the dense oracle re-copies its matrix
/// every iteration because elimination is destructive; SparseLU
/// refactors in place).
struct SolverKernelResult {
  int n = 0;
  size_t nnz = 0;
  size_t nnzLU = 0;        ///< L+U nonzeros after ordering (fill-in)
  double denseNs = 0.0;    ///< copy + luFactor + luSolve (oracle)
  double sparseSetupNs = 0.0;    ///< analyze + first (pivoting) factor
  double sparseRefactorNs = 0.0; ///< pattern-reusing numeric factor
  double sparseSolveNs = 0.0;    ///< one substitution pass
  double sparseNs() const { return sparseRefactorNs + sparseSolveNs; }
  double speedupVsDense() const {
    return sparseNs() > 0.0 ? denseNs / sparseNs() : 0.0;
  }
};

SolverKernelResult solverKernel(int n) {
  SolverKernelResult r;
  r.n = n;
  oracle::DenseMatrix<double> a;
  sp::CsrPattern pat;
  std::vector<double> vals, b;
  fillSystem(n, a, pat, vals, b);
  r.nnz = pat.nonzeros();

  r.denseNs = timeOp([&] {
    auto aCopy = a;
    std::vector<int> perm;
    aCopy.luFactor(perm);
    std::vector<double> x;
    aCopy.luSolve(perm, b, x);
    benchmark::DoNotOptimize(x);
  });

  sp::SparseLU<double> lu;
  r.sparseSetupNs = timeOp([&] {
    lu.analyze(pat);
    lu.factor(vals);
  });
  r.sparseRefactorNs = timeOp([&] { lu.factor(vals); });
  std::vector<double> x;
  r.sparseSolveNs = timeOp([&] {
    lu.solve(b, x);
    benchmark::DoNotOptimize(x);
  });
  r.nnzLU = lu.stats().nnzL + lu.stats().nnzU;
  return r;
}

/// Circuit-level run: a diode-RC ladder through the full Analyzer. Wall
/// time covers assemble + factor + solve + device evaluation — what a
/// user actually waits for.
struct CircuitBackendResult {
  double wallNs = 0.0;
  long newtonIterations = 0;
  double maxAbsDiffVsDense = 0.0;
  long fullFactors = 0;
  long refactors = 0;
  long patternInserts = 0;
  double nsPerIteration() const {
    return newtonIterations > 0 ? wallNs / static_cast<double>(
                                               newtonIterations)
                                : 0.0;
  }
};

void buildDiodeLadder(sp::Circuit& ckt, int stages) {
  const int in = ckt.node("in");
  ckt.add<sp::VSource>("V1", in, 0,
                       std::make_unique<sp::SinWaveform>(1.0, 0.5, 1e6),
                       1.0);
  sp::DiodeModel dm;
  dm.is = 1e-14;
  dm.cj0 = 1e-12;
  dm.rs = 10.0;
  int prev = in;
  for (int k = 0; k < stages; ++k) {
    const int nd = ckt.node("n" + std::to_string(k));
    ckt.add<sp::Resistor>("R" + std::to_string(k), prev, nd, 1e3);
    ckt.add<sp::Capacitor>("C" + std::to_string(k), nd, 0, 1e-12);
    if (k % 3 == 0)
      ckt.add<sp::Diode>("D" + std::to_string(k), ckt, nd, 0, dm);
    prev = nd;
  }
}

CircuitBackendResult runCircuit(int stages, int* unknowns) {
  // Reference: the dense oracle's operating point of a twin ladder.
  sp::Circuit ref;
  buildDiodeLadder(ref, stages);
  const std::vector<double> refOp = oracle::DenseEngine(ref).op();

  sp::Circuit ckt;
  buildDiodeLadder(ckt, stages);
  sp::Analyzer an(ckt);
  *unknowns = an.unknownCount();

  CircuitBackendResult r;
  const auto x = an.op();
  for (size_t i = 0; i < refOp.size() && i < x.size(); ++i)
    r.maxAbsDiffVsDense =
        std::max(r.maxAbsDiffVsDense, std::abs(x[i] - refOp[i]));

  const double t0 = nowNs();
  const auto tr = an.transient(5e-7, 1e-8);
  r.wallNs = nowNs() - t0;
  benchmark::DoNotOptimize(tr);
  r.newtonIterations = an.stats().newtonIterations;
  r.fullFactors = an.stats().sparseFullFactors;
  r.refactors = an.stats().sparseRefactors;
  r.patternInserts = an.stats().sparsePatternInserts;
  return r;
}

/// Per-Newton device-evaluation cost of the ladder: one full device-list
/// load pass at the converged DC operating point, through a discarding
/// stamper — the junction math, limiting checks and virtual dispatch the
/// Newton loop pays every iteration before any matrix work. Reported
/// separately because the engine's assemble timing folds this together
/// with the value scatter and RHS assembly.
double measureDeviceEvalNs(int stages) {
  sp::Circuit ckt;
  buildDiodeLadder(ckt, stages);
  sp::Analyzer an(ckt);
  const std::vector<double> xOp = an.op();
  const sp::Solution x(&xOp);

  int stateCount = 0;
  for (const auto& dev : ckt.devices()) stateCount += dev->stateCount();
  std::vector<double> st(static_cast<size_t>(stateCount), 0.0);
  std::vector<double> stPrev(static_cast<size_t>(stateCount), 0.0);
  std::vector<double> dstPrev(static_cast<size_t>(stateCount), 0.0);
  bool limited = false;
  sp::LoadContext ctx;
  ctx.state = &st;
  ctx.prevState = &stPrev;
  ctx.prevDstate = &dstPrev;
  ctx.limited = &limited;
  sp::StateOnlyStamper sink;
  return timeOp([&] {
    for (const auto& dev : ckt.devices()) dev->load(sink, x, ctx);
    limited = false;
  });
}

u::JsonValue circuitJson(const CircuitBackendResult& r) {
  u::JsonValue v = u::JsonValue::object();
  v.set("wallNs", r.wallNs);
  v.set("newtonIterations", static_cast<double>(r.newtonIterations));
  v.set("nsPerIteration", r.nsPerIteration());
  v.set("maxAbsDiffVsDense", r.maxAbsDiffVsDense);
  v.set("fullFactors", static_cast<double>(r.fullFactors));
  v.set("refactors", static_cast<double>(r.refactors));
  v.set("patternInserts", static_cast<double>(r.patternInserts));
  return v;
}

int runSolverAblation(const std::string& outPath) {
  u::JsonValue doc = u::JsonValue::object();
  doc.set("schema", "ahfic-bench-solver-v1");

  std::cout << "== Solver ablation: SparseLU vs the dense-LU oracle ==\n"
            << "(per-iteration cost as the Newton loop pays it; the dense\n"
            << " oracle re-copies its destructive matrix each iteration,\n"
            << " SparseLU refactors its cached pattern)\n\n";

  u::Table kt({"n", "nnz", "nnz(L+U)", "dense [ns]", "refactor+solve [ns]",
               "vs dense"});
  u::JsonValue kernels = u::JsonValue::array();
  for (int n : {16, 64, 256, 1024}) {
    const auto r = solverKernel(n);
    kt.addRow({std::to_string(r.n), std::to_string(r.nnz),
               std::to_string(r.nnzLU), u::fixed(r.denseNs, 0),
               u::fixed(r.sparseNs(), 0),
               u::fixed(r.speedupVsDense(), 1) + "x"});
    u::JsonValue k = u::JsonValue::object();
    k.set("n", static_cast<double>(r.n));
    k.set("nnz", static_cast<double>(r.nnz));
    k.set("nnzLU", static_cast<double>(r.nnzLU));
    k.set("denseNs", r.denseNs);
    k.set("sparseSetupNs", r.sparseSetupNs);
    k.set("sparseRefactorNs", r.sparseRefactorNs);
    k.set("sparseSolveNs", r.sparseSolveNs);
    k.set("sparseNs", r.sparseNs());
    k.set("speedupVsDense", r.speedupVsDense());
    kernels.push(std::move(k));
  }
  doc.set("kernel", std::move(kernels));
  kt.print(std::cout);
  std::cout << "\n";

  u::Table ct({"circuit", "unknowns", "wall [ms]", "iters", "ns/iter",
               "dev-eval [ns/iter]", "solver vs dense", "max |dV| vs dense"});
  u::JsonValue circuits = u::JsonValue::array();
  for (int stages : {10, 60, 250}) {
    int unknowns = 0;
    const auto sparse = runCircuit(stages, &unknowns);
    // Solver-only comparison at this circuit's exact unknown count, so
    // the kernel-level speedup is attributable to the bench circuit.
    const auto solverOnly = solverKernel(unknowns);
    const double deviceEvalNs = measureDeviceEvalNs(stages);

    const std::string name = "diode_rc_ladder_" + std::to_string(stages);
    ct.addRow({name, std::to_string(unknowns),
               u::fixed(sparse.wallNs * 1e-6, 2),
               std::to_string(sparse.newtonIterations),
               u::fixed(sparse.nsPerIteration(), 0),
               u::fixed(deviceEvalNs, 0),
               u::fixed(solverOnly.speedupVsDense(), 1) + "x",
               u::formatEngineering(sparse.maxAbsDiffVsDense, 2)});

    u::JsonValue c = u::JsonValue::object();
    c.set("name", name);
    c.set("stages", static_cast<double>(stages));
    c.set("unknowns", static_cast<double>(unknowns));
    c.set("deviceEvalNs", deviceEvalNs);
    u::JsonValue backends = u::JsonValue::object();
    backends.set("sparse", circuitJson(sparse));
    c.set("backends", std::move(backends));
    u::JsonValue so = u::JsonValue::object();
    so.set("denseNs", solverOnly.denseNs);
    so.set("sparseNs", solverOnly.sparseNs());
    so.set("nnz", static_cast<double>(solverOnly.nnz));
    so.set("nnzLU", static_cast<double>(solverOnly.nnzLU));
    so.set("speedupVsDense", solverOnly.speedupVsDense());
    c.set("solverOnly", std::move(so));
    circuits.push(std::move(c));
  }
  doc.set("circuits", std::move(circuits));
  ct.print(std::cout);
  std::cout << "\n";

  ahfic::obs::writeBenchFile(outPath, "solver_ablation", std::move(doc),
                             ahfic::obs::benchTimestampUtc());
  std::cout << "wrote " << outPath << "\n";
  return 0;
}

}  // namespace

// Expanded BENCHMARK_MAIN(): the obs flags are stripped before
// google-benchmark parses the remainder, so `--trace`/`--metrics` compose
// with `--benchmark_filter=...` etc.
int main(int argc, char** argv) {
  ahfic::obs::CliOptions obsOpts;
  std::string solverJson;
  std::vector<char*> rest = {argv[0]};
  for (int k = 1; k < argc; ++k) {
    if (obsOpts.consume(argc, argv, k)) continue;
    if (std::strcmp(argv[k], "--solver-json") == 0 && k + 1 < argc) {
      solverJson = argv[++k];
      continue;
    }
    rest.push_back(argv[k]);
  }
  obsOpts.begin();

  if (!solverJson.empty()) {
    const int rc = runSolverAblation(solverJson);
    obsOpts.finish(std::cout);
    return rc;
  }

  int restArgc = static_cast<int>(rest.size());
  benchmark::Initialize(&restArgc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(restArgc, rest.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  obsOpts.finish(std::cout);
  return 0;
}
