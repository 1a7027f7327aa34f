#pragma once
// Dense reference solver: the correctness oracle for the sparse engine.
//
// The simulator itself runs every analysis on the structure-caching CSR
// SparseLU (spice/sparse_lu.h). This header keeps the textbook
// alternative — a dense LU with partial pivoting, dense stampers and a
// plain dense MNA Newton loop over a circuit's devices — so tests and
// bench_micro can check the sparse results against an independent
// solve. It is test support, not part of the library: nothing under
// src/ includes it.

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "spice/analysis.h"
#include "spice/circuit.h"
#include "spice/device.h"
#include "spice/solution.h"
#include "spice/sparse_lu.h"  // pivotMag
#include "spice/stamp.h"
#include "util/error.h"

namespace ahfic::oracle {

/// Dense row-major matrix with an in-place LU.
template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int rows, int cols)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  T& at(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  const T& at(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// In-place LU factorisation with partial pivoting. Returns false if
  /// the matrix is numerically singular.
  bool luFactor(std::vector<int>& perm) {
    if (rows_ != cols_) throw Error("luFactor: matrix must be square");
    const int n = rows_;
    perm.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
    for (int k = 0; k < n; ++k) {
      int p = k;
      double best = spice::pivotMag(at(k, k));
      for (int i = k + 1; i < n; ++i) {
        const double m = spice::pivotMag(at(i, k));
        if (m > best) {
          best = m;
          p = i;
        }
      }
      if (best < 1e-300) return false;
      if (p != k) {
        for (int c = 0; c < n; ++c) std::swap(at(k, c), at(p, c));
        std::swap(perm[static_cast<size_t>(k)], perm[static_cast<size_t>(p)]);
      }
      const T pivot = at(k, k);
      for (int i = k + 1; i < n; ++i) {
        const T m = at(i, k) / pivot;
        at(i, k) = m;
        if (m != T{}) {
          for (int c = k + 1; c < n; ++c) at(i, c) -= m * at(k, c);
        }
      }
    }
    return true;
  }

  /// Solves L U x = P b using factors produced by luFactor.
  void luSolve(const std::vector<int>& perm, const std::vector<T>& b,
               std::vector<T>& x) const {
    const int n = rows_;
    x.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
      x[static_cast<size_t>(i)] =
          b[static_cast<size_t>(perm[static_cast<size_t>(i)])];
    for (int i = 1; i < n; ++i) {
      T s = x[static_cast<size_t>(i)];
      for (int j = 0; j < i; ++j) s -= at(i, j) * x[static_cast<size_t>(j)];
      x[static_cast<size_t>(i)] = s;
    }
    for (int i = n - 1; i >= 0; --i) {
      T s = x[static_cast<size_t>(i)];
      for (int j = i + 1; j < n; ++j)
        s -= at(i, j) * x[static_cast<size_t>(j)];
      x[static_cast<size_t>(i)] = s / at(i, i);
    }
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<T> data_;
};

/// One-shot dense solve: returns x with A x = b. Throws ahfic::Error on
/// singular A.
template <typename T>
std::vector<T> solveDense(DenseMatrix<T> a, std::vector<T> b) {
  std::vector<int> perm;
  if (!a.luFactor(perm)) throw Error("solveDense: singular matrix");
  std::vector<T> x;
  a.luSolve(perm, b, x);
  return x;
}

/// Dense stamp target (real or complex), unknown id -> row id - 1.
template <typename Base, typename V>
class DenseStamperT final : public Base {
 public:
  DenseStamperT(DenseMatrix<V>& a, std::vector<V>& rhs) : a_(a), rhs_(rhs) {}
  void addA(int r, int c, V v) override {
    if (r > 0 && c > 0) a_.at(r - 1, c - 1) += v;
  }
  void addRhs(int r, V v) override {
    if (r > 0) rhs_[static_cast<size_t>(r - 1)] += v;
  }

 private:
  DenseMatrix<V>& a_;
  std::vector<V>& rhs_;
};

using DenseStamper = DenseStamperT<spice::Stamper, double>;
using DenseAcStamper =
    DenseStamperT<spice::AcStamper, std::complex<double>>;

/// Plain dense MNA engine over a circuit's devices, following the
/// Analyzer's formulation (unknown layout, Newton convergence test,
/// damped-trapezoidal integration) with every linear solve done by the
/// dense LU above. No homotopy and no step control: op() is plain Newton
/// from zero, and transient() replays a time grid the caller supplies
/// (normally the accepted points of an Analyzer run).
class DenseEngine {
 public:
  explicit DenseEngine(spice::Circuit& ckt, spice::AnalysisOptions opts = {})
      : ckt_(ckt), opts_(opts) {
    // Same layout walk as Analyzer::buildLayout.
    int nextBranch = ckt_.nodeCount();
    int nextState = 0;
    for (const auto& dev : ckt_.devices()) {
      if (dev->branchCount() > 0) {
        dev->assignBranchBase(nextBranch);
        nextBranch += dev->branchCount();
      }
      if (dev->stateCount() > 0) {
        dev->assignStateBase(nextState);
        nextState += dev->stateCount();
      }
      nonlinear_ = nonlinear_ || dev->isNonlinear();
    }
    n_ = nextBranch - 1;
    state_.assign(static_cast<size_t>(nextState), 0.0);
    statePrev_ = state_;
    dstatePrev_ = state_;
  }

  /// DC operating point by plain Newton from zero; records charge states
  /// as the first transient step expects them.
  std::vector<double> op() {
    spice::LoadContext ctx = context(spice::AnalysisMode::kDcOp);
    std::vector<double> x(static_cast<size_t>(n_), 0.0);
    if (!newton(x, ctx)) throw Error("DenseEngine: op did not converge");
    spice::StateOnlyStamper sink;
    const spice::Solution sx(&x);
    for (const auto& dev : ckt_.devices()) dev->load(sink, sx, ctx);
    statePrev_ = state_;
    std::fill(dstatePrev_.begin(), dstatePrev_.end(), 0.0);
    return x;
  }

  /// Transient over `times` (times[0] == 0): the op, then one Newton
  /// solve per later point. The first step is backward Euler, later
  /// steps damped trapezoidal, as in Analyzer::transient.
  std::vector<std::vector<double>> transient(const std::vector<double>& times) {
    std::vector<std::vector<double>> out{op()};
    spice::LoadContext ctx = context(spice::AnalysisMode::kTransient);
    const bool trap = opts_.method == spice::IntegMethod::kTrapezoidal;
    const double d = std::clamp(opts_.trapDamping, 0.0, 1.0);
    for (size_t k = 1; k < times.size(); ++k) {
      const double h = times[k] - times[k - 1];
      const bool useTrap = trap && k > 1;
      ctx.time = times[k];
      ctx.c0 = (useTrap ? 2.0 / (1.0 + d) : 1.0) / h;
      ctx.trapFactor = useTrap ? (1.0 - d) / (1.0 + d) : 0.0;
      std::vector<double> x = out.back();
      if (!newton(x, ctx))
        throw Error("DenseEngine: transient step did not converge");
      for (size_t i = 0; i < state_.size(); ++i)
        dstatePrev_[i] = ctx.c0 * (state_[i] - statePrev_[i]) -
                         ctx.trapFactor * dstatePrev_[i];
      statePrev_ = state_;
      out.push_back(std::move(x));
    }
    return out;
  }

  /// The complex MNA system at `f` linearised about `op`, factored.
  struct AcSystem {
    DenseMatrix<std::complex<double>> a;
    std::vector<std::complex<double>> rhs;
    std::vector<int> perm;
    std::vector<std::complex<double>> solve(
        const std::vector<std::complex<double>>& b) const {
      std::vector<std::complex<double>> x;
      a.luSolve(perm, b, x);
      return x;
    }
  };
  AcSystem acSystem(const std::vector<double>& op, double f) const {
    AcSystem sys{DenseMatrix<std::complex<double>>(n_, n_),
                 std::vector<std::complex<double>>(static_cast<size_t>(n_)),
                 {}};
    DenseAcStamper st(sys.a, sys.rhs);
    const spice::Solution sop(&op);
    for (const auto& dev : ckt_.devices())
      dev->loadAc(st, sop, 2.0 * 3.14159265358979323846 * f);
    if (!sys.a.luFactor(sys.perm))
      throw Error("DenseEngine: singular AC system");
    return sys;
  }

  /// AC response at `f` to the circuit's own AC sources.
  std::vector<std::complex<double>> ac(const std::vector<double>& op,
                                       double f) const {
    const AcSystem sys = acSystem(op, f);
    return sys.solve(sys.rhs);
  }

 private:
  spice::LoadContext context(spice::AnalysisMode mode) {
    spice::LoadContext ctx;
    ctx.mode = mode;
    ctx.gmin = opts_.gmin;
    ctx.state = &state_;
    ctx.prevState = &statePrev_;
    ctx.prevDstate = &dstatePrev_;
    return ctx;
  }

  /// Newton with the Analyzer's convergence test; x is guess and result.
  bool newton(std::vector<double>& x, spice::LoadContext& ctx) {
    {
      const spice::Solution sx(&x);
      for (const auto& dev : ckt_.devices()) dev->beginSolve(sx);
    }
    for (int iter = 0; iter < opts_.maxNewtonIters; ++iter) {
      DenseMatrix<double> a(n_, n_);
      std::vector<double> rhs(static_cast<size_t>(n_), 0.0);
      bool limited = false;
      ctx.limited = &limited;
      DenseStamper st(a, rhs);
      const spice::Solution sx(&x);
      for (const auto& dev : ckt_.devices()) dev->load(st, sx, ctx);
      ctx.limited = nullptr;
      std::vector<int> perm;
      if (!a.luFactor(perm)) return false;
      std::vector<double> xNew;
      a.luSolve(perm, rhs, xNew);
      bool converged = !limited;
      for (int i = 0; i < n_ && converged; ++i) {
        const double oldV = x[static_cast<size_t>(i)];
        const double newV = xNew[static_cast<size_t>(i)];
        const double tol =
            ((i + 1) < ckt_.nodeCount() ? opts_.vntol : opts_.abstol) +
            opts_.reltol * std::max(std::fabs(oldV), std::fabs(newV));
        converged = std::fabs(newV - oldV) <= tol;
      }
      x = std::move(xNew);
      if (converged && (iter > 0 || !nonlinear_)) return true;
    }
    return false;
  }

  spice::Circuit& ckt_;
  spice::AnalysisOptions opts_;
  int n_ = 0;
  bool nonlinear_ = false;
  std::vector<double> state_, statePrev_, dstatePrev_;
};

}  // namespace ahfic::oracle
