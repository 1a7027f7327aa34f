#include "ahdl/system.h"

#include <algorithm>
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
  if (tstop <= 0.0 || sampleRate <= 0.0)
    throw Error("System::run: tstop and sampleRate must be > 0");
  // Probe ids and trace pointers resolved once (map nodes are stable).
  SimResult result;
  result.sampleRate = sampleRate;
  std::vector<std::pair<size_t, std::vector<double>*>> recorders;
  for (const auto& p : probes_) {
    const int id = findSignal(p);
    if (id < 0)
      throw Error("System::run: probed signal '" + p + "' does not exist");
    recorders.emplace_back(static_cast<size_t>(id), &result.traces[p]);
  }

  static const obs::Counter runs = obs::counter("ahdl.runs");
  static const obs::Counter blockEvals = obs::counter("ahdl.block_evals");
  runs.add();
  obs::ScopedSpan span("ahdl.run", "ahdl");

  for (auto& b : blocks_) b.block->prepare(sampleRate);

  const auto n = static_cast<size_t>(tstop * sampleRate);
  std::vector<double> values(static_cast<size_t>(signalCount()), 0.0);
  // One I/O buffer pair sized for the widest block; each block sees a
  // span of its own arity.
  size_t maxIn = 0, maxOut = 0;
  for (const auto& b : blocks_) {
    maxIn = std::max(maxIn, b.in.size());
    maxOut = std::max(maxOut, b.out.size());
  }
  std::vector<double> inBuf(maxIn), outBuf(maxOut);

  const double dt = 1.0 / sampleRate;
  for (size_t k = 0; k < n; ++k) {
    const double t = static_cast<double>(k) * dt;
    for (auto& b : blocks_) {
      for (size_t i = 0; i < b.in.size(); ++i)
        inBuf[i] = values[static_cast<size_t>(b.in[i])];
      b.block->step(std::span<const double>(inBuf.data(), b.in.size()),
                    std::span<double>(outBuf.data(), b.out.size()), t);
      for (size_t i = 0; i < b.out.size(); ++i)
        values[static_cast<size_t>(b.out[i])] = outBuf[i];
    }
    if (t >= recordFrom) {
      result.time.push_back(t);
      for (const auto& [id, trace] : recorders) trace->push_back(values[id]);
    }
  }
  // Flushed once: per-sample counter writes would dominate small blocks.
  blockEvals.add(static_cast<long long>(n) *
                 static_cast<long long>(blocks_.size()));
  span.note("samples", static_cast<double>(n));
  return result;
}

}  // namespace ahfic::ahdl
