#pragma once
// Behavioural (AHDL) simulation engine.
//
// Models the paper's Sec. 2 methodology: every function block of an analog
// system is described behaviourally and the whole chain is simulated at a
// fixed sample rate far above the highest carrier. Blocks form a dataflow
// graph over named signals; blocks execute in declaration order each step,
// so a signal read before its producer has run this step carries the
// previous step's value (an implicit unit delay, which is also how
// feedback loops are closed).
//
// A run compiles the block list into a static schedule that keeps exactly
// those semantics. A block that reads a signal written by itself or by a
// later-declared block opens a per-sample segment reaching that producer;
// overlapping segments merge, and a signal with several writers puts all
// of them in one. Inside a segment the blocks step sample by sample in
// declaration order. Every other block computes a whole frame of samples
// per call (Block::stepFrame), which is bit-identical because all its
// inputs are complete for the frame before it runs.
//
// runLanes() runs several systems of the same topology (lanes) through
// one schedule: each frame-scheduled block steps all lanes in one call
// (Block::stepLanes), so sources with equal parameters compute their
// waveform once. System::run is the one-lane call.

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace ahfic::ahdl {

/// A behavioural block: nIn input samples -> nOut output samples per step.
class Block {
 public:
  Block(std::string name, int nIn, int nOut)
      : name_(std::move(name)), nIn_(nIn), nOut_(nOut) {}
  virtual ~Block() = default;

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  const std::string& name() const { return name_; }
  int inputCount() const { return nIn_; }
  int outputCount() const { return nOut_; }

  /// Called once before a run with the sample rate [Hz]; blocks size their
  /// internal state (delay lines, filter registers) here.
  virtual void prepare(double sampleRate) { (void)sampleRate; }

  /// Computes one output sample per output port at time `t`.
  virtual void step(std::span<const double> in, std::span<double> out,
                    double t) = 0;

  /// Computes one frame: `in[p]` and `out[p]` point at port p's samples
  /// for the frame's sample times `t` (t.size() samples). The engine
  /// never lets an output alias an input or another output here. The
  /// default loops step() over the samples.
  virtual void stepFrame(std::span<const double* const> in,
                         std::span<double* const> out,
                         std::span<const double> t);

  /// One lane's port pointers for stepLanes.
  struct FrameIo {
    std::span<const double* const> in;
    std::span<double* const> out;
  };

  /// Steps this block's counterparts in several lanes over one frame:
  /// `lanes[l]` (same dynamic type as this; lanes[0] is this) with the
  /// ports `io[l]`. The default runs each lane's stepFrame; sources
  /// override it to compute what lanes with equal parameters share once.
  virtual void stepLanes(std::span<Block* const> lanes,
                         std::span<const FrameIo> io,
                         std::span<const double> t);

  /// True for blocks whose output depends on past samples (delay lines,
  /// filter registers, accumulated phase, hysteresis). Memoryless blocks
  /// inside a feedback loop rely entirely on the engine's implicit
  /// one-sample declaration-order delay — the lint pass flags such loops.
  virtual bool hasMemory() const { return false; }

 protected:
  /// Allows variable-arity blocks (e.g. adders) to fix their input count
  /// at construction.
  void setInputCount(int n) { nIn_ = n; }

 private:
  std::string name_;
  int nIn_;
  int nOut_;
};

/// Recorded waveforms of a run.
struct SimResult {
  double sampleRate = 0.0;
  std::vector<double> time;
  std::map<std::string, std::vector<double>> traces;

  /// Trace for `signal`; throws ahfic::Error when it was not probed.
  const std::vector<double>& trace(const std::string& signal) const;
};

/// The block graph plus named signals.
class System {
 public:
  System() = default;

  /// Returns the signal index for `name`, creating it if needed.
  int signal(const std::string& name);
  /// Index or -1 (const lookup).
  int findSignal(const std::string& name) const;
  int signalCount() const { return static_cast<int>(signalNames_.size()); }
  const std::string& signalName(int id) const;

  /// Adds a block reading `inputs` and writing `outputs` (signal names;
  /// created on demand). Arity must match the block. Returns the block.
  Block& addBlock(std::unique_ptr<Block> block,
                  const std::vector<std::string>& inputs,
                  const std::vector<std::string>& outputs);

  /// Typed convenience wrapper over addBlock.
  template <typename T, typename... Args>
  T& add(const std::vector<std::string>& inputs,
         const std::vector<std::string>& outputs, Args&&... args) {
    auto blk = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *blk;
    addBlock(std::move(blk), inputs, outputs);
    return ref;
  }

  /// Marks a signal for recording.
  void probe(const std::string& signal);

  size_t blockCount() const { return blocks_.size(); }

  /// Read-only view of one block and its signal wiring, for inspection
  /// passes (lint) that must see the dataflow graph.
  struct BlockView {
    const Block* block = nullptr;
    const std::vector<int>* inputs = nullptr;
    const std::vector<int>* outputs = nullptr;
  };
  std::vector<BlockView> blockViews() const;

  const std::vector<std::string>& probes() const { return probes_; }

  /// Simulates [0, tstop) at `sampleRate`, recording probed signals.
  /// `recordFrom` discards earlier samples (filter settling). The
  /// one-lane call of runLanes.
  SimResult run(double tstop, double sampleRate, double recordFrom = 0.0);

 private:
  friend std::vector<SimResult> runLanes(std::span<System* const> lanes,
                                         double tstop, double sampleRate,
                                         double recordFrom);

  struct Binding {
    std::unique_ptr<Block> block;
    std::vector<int> in;
    std::vector<int> out;
  };
  std::vector<std::string> signalNames_;
  std::map<std::string, int> signalIds_;
  std::vector<Binding> blocks_;
  std::vector<std::string> probes_;
};

/// Simulates several systems as lanes of one pass and returns one result
/// per lane, each bit-identical to that system's own run(). Throws
/// ahfic::Error unless the lanes are distinct systems whose block types,
/// wiring and probes match.
std::vector<SimResult> runLanes(std::span<System* const> lanes,
                                double tstop, double sampleRate,
                                double recordFrom = 0.0);

}  // namespace ahfic::ahdl
