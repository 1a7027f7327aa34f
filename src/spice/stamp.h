#pragma once
// Stamping interfaces through which devices contribute to the MNA system.
//
// `Stamper` (real, DC/transient) and `AcStamper` (complex, AC) hide the
// stamp target (the CSR value array, a pattern recorder, an RHS-only
// pass) and perform the unknown-id -> row mapping, dropping any
// contribution that involves ground (id 0).
//
// Besides the virtual addA/addRhs, every stamper carries a plain
// StampTarget naming the arrays it writes, so the SlotWriter a device
// wraps around it can write them directly. A CSR target adds the slot
// protocol: each device keeps one StampLayout per layout key (DC or
// transient for load(), one for loadAc()), because every device's stamp
// call sequence is a function of its static parameters and that key
// alone. The first load per (pattern epoch, key) records the slot of
// every matrix position, resolving each through the pattern; every later
// load replays the recorded slots straight into the value array — no
// binary search, no virtual call. The replay is length-checked: a load
// that runs past the recording resolves the rest through the pattern,
// and a load that runs past or ends short of it leaves the layout to be
// recorded again.

#include <complex>
#include <cstdint>
#include <utility>
#include <vector>

#include "spice/csr.h"

namespace ahfic::spice {

/// Sentinel slots used by the slot protocol below.
inline constexpr int kStampSlotGround = -1;  ///< touches ground; dropped
inline constexpr int kStampSlotMiss = -2;    ///< not in the pattern (yet)

/// One device's recorded stamp sequence for one layout key: the matrix
/// slot of every addA in call order. Valid for replay only when
/// `complete` and recorded against the pattern revision `epoch`; a
/// SlotWriter maintains it, so devices never invalidate it themselves.
struct StampLayout {
  std::uint64_t epoch = 0;
  bool complete = false;
  std::vector<int> slots;
};

/// What a stamper writes, for SlotWriter's direct path. A CSR target
/// names its pattern, value array and RHS; an RHS-only target names its
/// RHS alone (matrix writes vanish); a target naming neither gets every
/// call through the virtual addA/addRhs.
template <typename V>
struct StampTarget {
  const CsrPattern* pattern = nullptr;
  std::vector<V>* vals = nullptr;
  std::vector<V>* rhs = nullptr;
};

/// Real-valued stamping target for DC and transient loads.
class Stamper {
 public:
  virtual ~Stamper() = default;

  /// Adds `v` to matrix entry (row of `idRow`, column of `idCol`).
  virtual void addA(int idRow, int idCol, double v) = 0;
  /// Adds `v` to the right-hand side at `idRow`.
  virtual void addRhs(int idRow, double v) = 0;

  const StampTarget<double>& target() const { return target_; }

  /// Conductance `g` between unknowns `a` and `b` (two-terminal element).
  void addConductance(int a, int b, double g) {
    addA(a, a, g);
    addA(b, b, g);
    addA(a, b, -g);
    addA(b, a, -g);
  }

  /// Transconductance: current g*(v(cp)-v(cn)) flowing from `a` to `b`
  /// (out of a, into b... specifically: into node a is -g*vc, into b +g*vc).
  void addTransconductance(int a, int b, int cp, int cn, double g) {
    addA(a, cp, g);
    addA(a, cn, -g);
    addA(b, cp, -g);
    addA(b, cn, g);
  }

  /// Independent current `i` flowing *into* unknown `id`'s node.
  void addCurrent(int id, double i) { addRhs(id, i); }

  /// Companion-model stamp for a nonlinear branch from `a` to `b` carrying
  /// current i(v) with v = v(a)-v(b): conductance g = di/dv and equivalent
  /// source ieq = i(v*) - g*v*.
  void addNonlinearBranch(int a, int b, double g, double ieq) {
    addConductance(a, b, g);
    addRhs(a, -ieq);
    addRhs(b, ieq);
  }

 protected:
  StampTarget<double> target_;
};

/// Complex-valued stamping target for AC small-signal loads.
class AcStamper {
 public:
  virtual ~AcStamper() = default;

  virtual void addA(int idRow, int idCol, std::complex<double> v) = 0;
  virtual void addRhs(int idRow, std::complex<double> v) = 0;

  const StampTarget<std::complex<double>>& target() const { return target_; }

  void addAdmittance(int a, int b, std::complex<double> y) {
    addA(a, a, y);
    addA(b, b, y);
    addA(a, b, -y);
    addA(b, a, -y);
  }

  void addTransadmittance(int a, int b, int cp, int cn,
                          std::complex<double> y) {
    addA(a, cp, y);
    addA(a, cn, -y);
    addA(b, cp, -y);
    addA(b, cn, y);
  }

 protected:
  StampTarget<std::complex<double>> target_;
};

/// CSR-backed stamper (real or complex): values land in a slot-ordered
/// array parallel to the pattern's colIdx(). Positions missing from the
/// pattern are collected into `pending` (as 0-based matrix coordinates)
/// instead of being written; the engine grows the pattern and re-stamps,
/// so no contribution is ever silently lost.
template <typename Base, typename V>
class CsrStamperT final : public Base {
 public:
  CsrStamperT(const CsrPattern& pat, std::vector<V>& vals,
              std::vector<V>& rhs,
              std::vector<std::pair<int, int>>* pending = nullptr)
      : pat_(pat), vals_(vals), rhs_(rhs), pending_(pending) {
    this->target_.pattern = &pat;
    this->target_.vals = &vals;
    this->target_.rhs = &rhs;
  }

  void addA(int r, int c, V v) override {
    if (r <= 0 || c <= 0) return;
    const int slot = pat_.slot(r - 1, c - 1);
    if (slot < 0) {
      if (pending_ != nullptr) pending_->emplace_back(r - 1, c - 1);
      return;
    }
    vals_[static_cast<size_t>(slot)] += v;
  }
  void addRhs(int r, V v) override {
    if (r > 0) rhs_[static_cast<size_t>(r - 1)] += v;
  }

 private:
  const CsrPattern& pat_;
  std::vector<V>& vals_;
  std::vector<V>& rhs_;
  std::vector<std::pair<int, int>>* pending_;
};

using CsrStamper = CsrStamperT<Stamper, double>;
using CsrAcStamper = CsrStamperT<AcStamper, std::complex<double>>;

/// Device-side front end over any stamper. Constructed at the top of a
/// device's load()/loadAc() around the stamper it was handed and the
/// device's StampLayout for the load's layout key. Against a CSR target
/// it replays the layout's recorded slots inline (or records them, out of
/// line, on the first load per pattern epoch); against an RHS-only target
/// it writes the RHS directly and drops the matrix inline; any other
/// target gets the virtual calls. Mirrors the convenience helpers of
/// Stamper/AcStamper so device bodies read the same as before.
template <typename S, typename V>
class SlotWriterT {
 public:
  SlotWriterT(S& s, StampLayout& layout) : s_(s), layout_(layout) {
    const StampTarget<V>& t = s.target();
    if (t.rhs == nullptr) {
      mode_ = Mode::kForward;
      return;
    }
    rhs_ = t.rhs->data();
    if (t.pattern != nullptr) {
      vals_ = t.vals->data();
      pattern_ = t.pattern;
      const std::uint64_t e = pattern_->epoch();
      if (layout_.complete && layout_.epoch == e) {
        mode_ = Mode::kReplay;
        slots_ = layout_.slots.data();
        len_ = layout_.slots.size();
      } else {
        mode_ = Mode::kRecord;
        layout_.epoch = e;
        layout_.complete = false;
        layout_.slots.clear();
      }
    }
  }
  ~SlotWriterT() {
    // A replay that ended short of the recording, or ran past it, leaves
    // the layout to be recorded afresh by the next load.
    if (mode_ == Mode::kRecord)
      layout_.complete = !overran_;
    else if (mode_ == Mode::kReplay && cursor_ != len_)
      layout_.complete = false;
  }
  SlotWriterT(const SlotWriterT&) = delete;
  SlotWriterT& operator=(const SlotWriterT&) = delete;

  void addA(int r, int c, V v) {
    if (cursor_ < len_) {  // replay: len_ is 0 in every other mode
      const int slot = slots_[cursor_++];
      if (slot >= 0)
        vals_[slot] += v;
      else if (slot == kStampSlotMiss)
        s_.addA(r, c, v);  // keeps feeding `pending` until the pattern grows
      return;
    }
    if (mode_ == Mode::kForward)
      s_.addA(r, c, v);
    else if (mode_ != Mode::kRhsOnly)
      recordA(r, c, v);
  }
  void addRhs(int r, V v) {
    if (rhs_ == nullptr)
      s_.addRhs(r, v);
    else if (r > 0)
      rhs_[r - 1] += v;
  }

  // Stamper-style helpers (real path).
  void addConductance(int a, int b, V g) {
    addA(a, a, g);
    addA(b, b, g);
    addA(a, b, -g);
    addA(b, a, -g);
  }
  void addTransconductance(int a, int b, int cp, int cn, V g) {
    addA(a, cp, g);
    addA(a, cn, -g);
    addA(b, cp, -g);
    addA(b, cn, g);
  }
  void addCurrent(int id, V i) { addRhs(id, i); }
  void addNonlinearBranch(int a, int b, V g, V ieq) {
    addConductance(a, b, g);
    addRhs(a, -ieq);
    addRhs(b, ieq);
  }

  // AcStamper-style helpers (complex path).
  void addAdmittance(int a, int b, V y) { addConductance(a, b, y); }
  void addTransadmittance(int a, int b, int cp, int cn, V y) {
    addTransconductance(a, b, cp, cn, y);
  }

 private:
  enum class Mode {
    kRhsOnly,  ///< RHS-only target: matrix writes vanish
    kForward,  ///< no direct arrays: every call goes through `s_`
    kReplay,   ///< CSR, layout recorded: inline slot replay
    kRecord,   ///< CSR, layout being (re)recorded through the pattern
  };

  /// The recording path, kept out of line: resolves (r, c) through the
  /// pattern, appends its slot to the layout and stamps it.
  [[gnu::noinline]] void recordA(int r, int c, V v) {
    if (mode_ == Mode::kReplay) {
      // Ran past the recording: resolve the rest of this load through
      // the pattern, and leave the layout incomplete.
      mode_ = Mode::kRecord;
      len_ = 0;
      overran_ = true;
    }
    int slot = kStampSlotGround;
    if (r > 0 && c > 0) {
      slot = pattern_->slot(r - 1, c - 1);
      if (slot < 0) slot = kStampSlotMiss;
    }
    layout_.slots.push_back(slot);
    if (slot >= 0)
      vals_[slot] += v;
    else if (slot == kStampSlotMiss)
      s_.addA(r, c, v);
  }

  S& s_;
  StampLayout& layout_;
  const CsrPattern* pattern_ = nullptr;
  V* vals_ = nullptr;
  V* rhs_ = nullptr;
  const int* slots_ = nullptr;
  size_t cursor_ = 0;
  size_t len_ = 0;
  Mode mode_ = Mode::kRhsOnly;
  bool overran_ = false;
};

using SlotWriter = SlotWriterT<Stamper, double>;
using AcSlotWriter = SlotWriterT<AcStamper, std::complex<double>>;

/// Structure-discovery stamper: records every non-ground matrix position
/// (0-based) a load touches and ignores values/RHS. The engine runs the
/// device list through this once per topology to prime the CsrPattern.
template <typename Base, typename V>
class PatternStamperT final : public Base {
 public:
  explicit PatternStamperT(std::vector<std::pair<int, int>>& out)
      : out_(out) {}
  void addA(int r, int c, V) override {
    if (r > 0 && c > 0) out_.emplace_back(r - 1, c - 1);
  }
  void addRhs(int, V) override {}

 private:
  std::vector<std::pair<int, int>>& out_;
};

using PatternStamper = PatternStamperT<Stamper, double>;
using AcPatternStamper = PatternStamperT<AcStamper, std::complex<double>>;

/// RHS-only stamper: matrix writes vanish, RHS writes land. Used for the
/// per-iteration pass over reactive linear devices whose matrix stamps
/// live in the cached static baseline but whose companion RHS (and
/// charge-state recording via LoadContext::integrate) depends on the
/// candidate solution.
class RhsOnlyStamper final : public Stamper {
 public:
  explicit RhsOnlyStamper(std::vector<double>& rhs) : rhs_(rhs) {
    target_.rhs = &rhs;
  }
  void addA(int, int, double) override {}
  void addRhs(int r, double v) override {
    if (r > 0) rhs_[static_cast<size_t>(r - 1)] += v;
  }

 private:
  std::vector<double>& rhs_;
};

/// Stamper that discards everything; used when a load is run only for
/// its side effects (charge-state recording into LoadContext::state).
class StateOnlyStamper final : public Stamper {
 public:
  void addA(int, int, double) override {}
  void addRhs(int, double) override {}
};

}  // namespace ahfic::spice
