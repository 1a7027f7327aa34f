#pragma once
// Shared p-n junction physics: exponential current with overflow-safe
// linear continuation, SPICE's pnjlim Newton damping, and depletion
// charge/capacitance with the standard FC linearisation above fc*vj.

#include <cmath>

namespace ahfic::spice {

/// Junction current and conductance: i = isat*(exp(v/vte)-1), linearly
/// continued above `vcrit`-ish voltages to avoid overflow (SPICE style:
/// exponential is evaluated exactly up to an explim; beyond, first-order
/// Taylor continuation keeps i and di/dv continuous).
struct JunctionIV {
  double i;
  double g;  ///< di/dv
};

inline JunctionIV junctionIV(double v, double isat, double vte) {
  constexpr double kMaxExpArg = 80.0;  // exp(80) ~ 5.5e34, still finite
  const double arg = v / vte;
  if (arg > kMaxExpArg) {
    const double e = std::exp(kMaxExpArg);
    const double g = isat * e / vte;
    const double i = isat * (e - 1.0) + g * (v - kMaxExpArg * vte);
    return {i, g};
  }
  if (arg < -kMaxExpArg) {
    // Deep reverse: i -> -isat, tiny slope to keep the Jacobian regular.
    return {-isat, isat / vte * std::exp(-kMaxExpArg)};
  }
  const double e = std::exp(arg);
  return {isat * (e - 1.0), isat * e / vte};
}

/// SPICE pnjlim: limits the Newton update of a junction voltage so the
/// exponential does not explode. `vnew` is the raw update, `vold` the
/// previous iterate, `vt` the (emission-scaled) thermal voltage and
/// `vcrit` = vte*ln(vte/(sqrt(2)*isat)).
inline double pnjlim(double vnew, double vold, double vte, double vcrit) {
  if (vnew > vcrit && std::fabs(vnew - vold) > 2.0 * vte) {
    if (vold > 0.0) {
      const double arg = 1.0 + (vnew - vold) / vte;
      if (arg > 0.0)
        vnew = vold + vte * std::log(arg);
      else
        vnew = vcrit;
    } else {
      vnew = vte * std::log(vnew / vte);
    }
  }
  return vnew;
}

/// Critical voltage for pnjlim.
inline double junctionVcrit(double isat, double vte) {
  return vte * std::log(vte / (1.4142135623730951 * isat));
}

/// Depletion charge and capacitance for a step/graded junction:
///   c(v) = cj0 / (1 - v/vj)^m            for v <  fc*vj
/// linearised (SPICE) above fc*vj so charge and capacitance stay smooth.
struct DepletionQC {
  double q;
  double c;
};

/// Card constants of the linear continuation above fc*vj. They depend
/// on (vj, m, fc) alone, so a device can compute them once per instance.
struct DepletionCoeffs {
  double f1;  ///< vj/(1-m) * (1 - (1-fc)^(1-m))
  double f2;  ///< (1-fc)^-(1+m)
};

inline DepletionCoeffs depletionCoeffs(double vj, double m, double fc) {
  return {vj / (1.0 - m) * (1.0 - std::pow(1.0 - fc, 1.0 - m)),
          std::pow(1.0 - fc, -(1.0 + m))};
}

/// Depletion charge and capacitance below fc*vj, from the two powers of
/// a = 1 - v/vj: `aNegM` = a^-m and `a1mM` = a^(1-m).
inline DepletionQC depletionBelow(double cj0, double vj, double m,
                                  double aNegM, double a1mM) {
  return {cj0 * vj / (1.0 - m) * (1.0 - a1mM), cj0 * aNegM};
}

/// Linear continuation: c(v) = cj0/(1-fc)^(1+m) * (1 - fc(1+m) + m v/vj)
inline DepletionQC depletionAbove(double v, double cj0, double vj, double m,
                                  double fc, const DepletionCoeffs& k) {
  const double vf = fc * vj;
  const double f3 = 1.0 - fc * (1.0 + m);
  const double c = cj0 * k.f2 * (f3 + m * v / vj);
  const double q =
      cj0 * (k.f1 + k.f2 * (f3 * (v - vf) + 0.5 * m / vj * (v * v - vf * vf)));
  return {q, c};
}

/// Depletion charge and capacitance with precomputed continuation
/// constants `k` (= depletionCoeffs(vj, m, fc)).
inline DepletionQC depletionQC(double v, double cj0, double vj, double m,
                               double fc, const DepletionCoeffs& k) {
  if (cj0 <= 0.0) return {0.0, 0.0};
  if (v < fc * vj) {
    const double a = 1.0 - v / vj;
    return depletionBelow(cj0, vj, m, std::pow(a, -m), std::pow(a, 1.0 - m));
  }
  return depletionAbove(v, cj0, vj, m, fc, k);
}

}  // namespace ahfic::spice
