#include "ahdl/system.h"

#include <algorithm>
#include <cstddef>
#include <typeinfo>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace ahfic::ahdl {

const std::vector<double>& SimResult::trace(const std::string& signal) const {
  auto it = traces.find(signal);
  if (it == traces.end())
    throw Error("SimResult: signal '" + signal + "' was not probed");
  return it->second;
}

int System::signal(const std::string& name) {
  auto it = signalIds_.find(name);
  if (it != signalIds_.end()) return it->second;
  const int id = static_cast<int>(signalNames_.size());
  signalNames_.push_back(name);
  signalIds_[name] = id;
  return id;
}

int System::findSignal(const std::string& name) const {
  auto it = signalIds_.find(name);
  return it == signalIds_.end() ? -1 : it->second;
}

const std::string& System::signalName(int id) const {
  if (id < 0 || id >= signalCount())
    throw Error("System::signalName: bad id " + std::to_string(id));
  return signalNames_[static_cast<size_t>(id)];
}

Block& System::addBlock(std::unique_ptr<Block> block,
                        const std::vector<std::string>& inputs,
                        const std::vector<std::string>& outputs) {
  if (!block) throw Error("System::addBlock: null block");
  if (static_cast<int>(inputs.size()) != block->inputCount())
    throw Error("block '" + block->name() + "' expects " +
                std::to_string(block->inputCount()) + " inputs, got " +
                std::to_string(inputs.size()));
  if (static_cast<int>(outputs.size()) != block->outputCount())
    throw Error("block '" + block->name() + "' expects " +
                std::to_string(block->outputCount()) + " outputs, got " +
                std::to_string(outputs.size()));
  Binding b;
  b.block = std::move(block);
  for (const auto& s : inputs) b.in.push_back(signal(s));
  for (const auto& s : outputs) b.out.push_back(signal(s));
  blocks_.push_back(std::move(b));
  return *blocks_.back().block;
}

std::vector<System::BlockView> System::blockViews() const {
  std::vector<BlockView> views;
  views.reserve(blocks_.size());
  for (const auto& b : blocks_)
    views.push_back(BlockView{b.block.get(), &b.in, &b.out});
  return views;
}

void System::probe(const std::string& signal) {
  if (std::find(probes_.begin(), probes_.end(), signal) == probes_.end())
    probes_.push_back(signal);
}

SimResult System::run(double tstop, double sampleRate, double recordFrom) {
  System* self = this;
  return std::move(
      runLanes(std::span<System* const>(&self, 1), tstop, sampleRate,
               recordFrom)
          .front());
}

void Block::stepFrame(std::span<const double* const> in,
                      std::span<double* const> out,
                      std::span<const double> t) {
  std::vector<double> x(in.size()), y(out.size());
  for (size_t k = 0; k < t.size(); ++k) {
    for (size_t p = 0; p < in.size(); ++p) x[p] = in[p][k];
    step(x, y, t[k]);
    for (size_t p = 0; p < out.size(); ++p) out[p][k] = y[p];
  }
}

void Block::stepLanes(std::span<Block* const> lanes,
                      std::span<const FrameIo> io,
                      std::span<const double> t) {
  for (size_t l = 0; l < lanes.size(); ++l)
    lanes[l]->stepFrame(io[l].in, io[l].out, t);
}

namespace {

/// Samples per frame: long enough to amortise one call per block, short
/// enough that a frame of every signal stays in cache.
constexpr size_t kFrame = 256;

/// Blocks [first, last]: a per-sample segment steps them sample by
/// sample, otherwise it is one block run a frame at a time.
struct Segment {
  size_t first = 0, last = 0;
  bool perSample = false;
};

/// The static schedule of one topology.
struct Schedule {
  std::vector<Segment> segments;
  /// Per input port, block by block: the port reads the previous sample
  /// (no writer of its signal is declared before the block).
  std::vector<char> delayed;
};

Schedule compileSchedule(const std::vector<System::BlockView>& blocks,
                         size_t nSignals) {
  const size_t nBlocks = blocks.size();
  std::vector<size_t> firstWriter(nSignals, nBlocks), lastWriter(nSignals);
  std::vector<int> writes(nSignals, 0);
  for (size_t b = 0; b < nBlocks; ++b)
    for (int s : *blocks[b].outputs) {
      const auto id = static_cast<size_t>(s);
      firstWriter[id] = std::min(firstWriter[id], b);
      lastWriter[id] = b;
      ++writes[id];
    }
  // reach[b] >= b: block b opens a per-sample segment that must run
  // through block reach[b] — the last writer of a signal b reads with the
  // unit delay, or the last of a signal's several writers.
  std::vector<std::ptrdiff_t> reach(nBlocks, -1);
  auto extend = [&](size_t b, size_t last) {
    reach[b] = std::max(reach[b], static_cast<std::ptrdiff_t>(last));
  };
  Schedule sched;
  for (size_t b = 0; b < nBlocks; ++b)
    for (int s : *blocks[b].inputs) {
      const auto id = static_cast<size_t>(s);
      if (writes[id] > 0 && lastWriter[id] >= b) extend(b, lastWriter[id]);
      sched.delayed.push_back(writes[id] > 0 && firstWriter[id] >= b);
    }
  for (size_t id = 0; id < nSignals; ++id)
    if (writes[id] > 1) extend(firstWriter[id], lastWriter[id]);

  for (size_t b = 0; b < nBlocks;) {
    if (reach[b] < static_cast<std::ptrdiff_t>(b)) {
      sched.segments.push_back({b, b, false});
      ++b;
      continue;
    }
    auto last = static_cast<size_t>(reach[b]);
    for (size_t j = b; j <= last; ++j)  // overlapping segments merge
      if (reach[j] > static_cast<std::ptrdiff_t>(last))
        last = static_cast<size_t>(reach[j]);
    sched.segments.push_back({b, last, true});
    b = last + 1;
  }
  return sched;
}

void requireSameTopology(std::span<System* const> lanes) {
  const System& ref = *lanes[0];
  const auto refViews = ref.blockViews();
  for (size_t l = 1; l < lanes.size(); ++l) {
    const System& sys = *lanes[l];
    const std::string lane = "runLanes: lane " + std::to_string(l);
    for (size_t j = 0; j < l; ++j)
      if (lanes[j] == &sys)
        throw Error(lane + " repeats lane " + std::to_string(j));
    bool same = sys.blockCount() == ref.blockCount() &&
                sys.signalCount() == ref.signalCount() &&
                sys.probes() == ref.probes();
    for (int s = 0; same && s < ref.signalCount(); ++s)
      same = sys.signalName(s) == ref.signalName(s);
    if (!same)
      throw Error(lane + " differs from lane 0 in blocks, signals or probes");
    const auto views = sys.blockViews();
    for (size_t b = 0; b < views.size(); ++b) {
      const auto& x = refViews[b];
      const auto& y = views[b];
      if (typeid(*x.block) != typeid(*y.block) || *x.inputs != *y.inputs ||
          *x.outputs != *y.outputs)
        throw Error(lane + " differs from lane 0 at block '" +
                    x.block->name() + "'");
    }
  }
}

}  // namespace

std::vector<SimResult> runLanes(std::span<System* const> lanes,
                                double tstop, double sampleRate,
                                double recordFrom) {
  if (lanes.empty()) throw Error("runLanes: no lanes");
  if (tstop <= 0.0 || sampleRate <= 0.0)
    throw Error("System::run: tstop and sampleRate must be > 0");
  requireSameTopology(lanes);
  const System& ref = *lanes[0];
  std::vector<int> probeIds;
  for (const auto& p : ref.probes()) {
    const int id = ref.findSignal(p);
    if (id < 0)
      throw Error("System::run: probed signal '" + p + "' does not exist");
    probeIds.push_back(id);
  }

  static const obs::Counter runs = obs::counter("ahdl.runs");
  static const obs::Counter blockEvals = obs::counter("ahdl.block_evals");
  const size_t nLanes = lanes.size();
  runs.add(static_cast<long long>(nLanes));
  obs::ScopedSpan span("ahdl.run", "ahdl");

  for (System* sys : lanes)
    for (auto& b : sys->blocks_) b.block->prepare(sampleRate);

  const auto views = ref.blockViews();
  const Schedule sched =
      compileSchedule(views, static_cast<size_t>(ref.signalCount()));

  // One frame buffer per signal and lane; unwritten signals stay 0. Port
  // pointers are fixed for the run: every frame starts at index 0.
  const auto nSignals = static_cast<size_t>(ref.signalCount());
  std::vector<double> frames(nLanes * nSignals * kFrame, 0.0);
  auto frameOf = [&](size_t lane, int s) {
    return frames.data() +
           (lane * nSignals + static_cast<size_t>(s)) * kFrame;
  };
  // Lane blocks and port pointers, block-major: entry b * nLanes + l.
  const size_t nBlocks = views.size();
  std::vector<size_t> inOffset(nBlocks + 1, 0), outOffset(nBlocks + 1, 0);
  for (size_t b = 0; b < nBlocks; ++b) {
    inOffset[b + 1] = inOffset[b] + views[b].inputs->size();
    outOffset[b + 1] = outOffset[b] + views[b].outputs->size();
  }
  std::vector<const double*> inPtr(nLanes * inOffset[nBlocks]);
  std::vector<double*> outPtr(nLanes * outOffset[nBlocks]);
  std::vector<Block*> laneBlocks(nBlocks * nLanes);
  std::vector<Block::FrameIo> laneIo(nBlocks * nLanes);
  for (size_t b = 0; b < nBlocks; ++b)
    for (size_t l = 0; l < nLanes; ++l) {
      const auto& bind = lanes[l]->blocks_[b];
      const double** in = inPtr.data() + l * inOffset[nBlocks] + inOffset[b];
      double** out = outPtr.data() + l * outOffset[nBlocks] + outOffset[b];
      for (size_t p = 0; p < bind.in.size(); ++p)
        in[p] = frameOf(l, bind.in[p]);
      for (size_t p = 0; p < bind.out.size(); ++p)
        out[p] = frameOf(l, bind.out[p]);
      laneBlocks[b * nLanes + l] = bind.block.get();
      laneIo[b * nLanes + l] = {{in, bind.in.size()},
                                {out, bind.out.size()}};
    }
  // Per-sample segments step through one I/O buffer pair sized for the
  // widest block.
  size_t maxIn = 0, maxOut = 0;
  for (const auto& v : views) {
    maxIn = std::max(maxIn, v.inputs->size());
    maxOut = std::max(maxOut, v.outputs->size());
  }
  std::vector<double> inBuf(maxIn), outBuf(maxOut);

  // Recorded samples are the suffix with t >= recordFrom (t is monotone
  // in k), so every recording is reserved at its exact length.
  const auto n = static_cast<size_t>(tstop * sampleRate);
  const double dt = 1.0 / sampleRate;
  size_t firstRecorded = 0;
  while (firstRecorded < n &&
         !(static_cast<double>(firstRecorded) * dt >= recordFrom))
    ++firstRecorded;
  std::vector<double> t(kFrame);
  struct Recorder {
    const double* frame;
    std::vector<double>* samples;
  };
  std::vector<Recorder> recorders;
  std::vector<SimResult> results(nLanes);
  for (size_t l = 0; l < nLanes; ++l) {
    results[l].sampleRate = sampleRate;
    recorders.push_back({t.data(), &results[l].time});
    for (size_t i = 0; i < probeIds.size(); ++i)
      recorders.push_back(
          {frameOf(l, probeIds[i]), &results[l].traces[ref.probes()[i]]});
  }
  for (const Recorder& r : recorders) r.samples->reserve(n - firstRecorded);

  for (size_t k0 = 0; k0 < n; k0 += kFrame) {
    const size_t len = std::min(kFrame, n - k0);
    for (size_t k = 0; k < len; ++k)
      t[k] = static_cast<double>(k0 + k) * dt;
    const std::span<const double> frameT(t.data(), len);
    for (const Segment& seg : sched.segments) {
      if (!seg.perSample) {
        const size_t at = seg.first * nLanes;
        laneBlocks[at]->stepLanes({laneBlocks.data() + at, nLanes},
                                  {laneIo.data() + at, nLanes}, frameT);
        continue;
      }
      for (size_t k = 0; k < len; ++k) {
        const size_t prev = k == 0 ? kFrame - 1 : k - 1;
        for (size_t b = seg.first; b <= seg.last; ++b) {
          const char* delayed = sched.delayed.data() + inOffset[b];
          for (size_t l = 0; l < nLanes; ++l) {
            const Block::FrameIo& io = laneIo[b * nLanes + l];
            for (size_t p = 0; p < io.in.size(); ++p)
              inBuf[p] = io.in[p][delayed[p] ? prev : k];
            laneBlocks[b * nLanes + l]->step(
                std::span<const double>(inBuf.data(), io.in.size()),
                std::span<double>(outBuf.data(), io.out.size()), t[k]);
            for (size_t p = 0; p < io.out.size(); ++p)
              io.out[p][k] = outBuf[p];
          }
        }
      }
    }
    if (k0 + len > firstRecorded) {
      const size_t from = std::max(k0, firstRecorded) - k0;
      for (const Recorder& r : recorders)
        r.samples->insert(r.samples->end(), r.frame + from, r.frame + len);
    }
  }
  // Flushed once: per-sample counter writes would dominate small blocks.
  blockEvals.add(static_cast<long long>(n) *
                 static_cast<long long>(nBlocks * nLanes));
  span.note("samples", static_cast<double>(n));
  span.note("lanes", static_cast<double>(nLanes));
  return results;
}

}  // namespace ahfic::ahdl
