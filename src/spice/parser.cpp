#include "spice/parser.h"

#include <cctype>
#include <map>
#include <memory>

#include "spice/bjt.h"
#include "spice/diode.h"
#include "spice/mosfet.h"
#include "spice/passive.h"
#include "spice/sources.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/units.h"

namespace ahfic::spice {

namespace util = ahfic::util;

namespace {

double num(const std::string& tok, int line, const char* what) {
  auto v = util::parseSpiceNumber(tok);
  if (!v)
    throw ParseError(std::string("bad number '") + tok + "' for " + what,
                     line);
  return *v;
}

/// Logical lines: joins '+' continuations, strips comments and blanks.
struct LogicalLine {
  std::string text;
  int line;  // 1-based line of the first physical line
};

std::vector<LogicalLine> logicalLines(const std::string& text,
                                      int lineOffset) {
  std::vector<LogicalLine> out;
  int lineNo = lineOffset;
  std::string cur;
  int curLine = 0;
  size_t pos = 0;
  auto flush = [&]() {
    const auto trimmed = util::trim(cur);
    if (!trimmed.empty()) out.push_back({std::string(trimmed), curLine});
    cur.clear();
  };
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string raw = (eol == std::string::npos)
                          ? text.substr(pos)
                          : text.substr(pos, eol - pos);
    ++lineNo;
    // Strip comments: leading '*' kills the line; '$' and ';' end it.
    std::string_view sv = util::trim(raw);
    if (!sv.empty() && sv.front() == '*') sv = {};
    std::string line(sv);
    for (char stop : {'$', ';'}) {
      const size_t p = line.find(stop);
      if (p != std::string::npos) line.resize(p);
    }
    if (!line.empty() && line.front() == '+') {
      cur += ' ';
      cur += line.substr(1);
    } else {
      flush();
      cur = line;
      curLine = lineNo;
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  flush();
  return out;
}

/// Rewrites "SIN(a b c)" split across tokens into a single token list:
/// returns function name and the numbers inside the parentheses, consuming
/// tokens from `toks` starting at `i`.
bool parseSourceFn(const std::vector<std::string>& toks, size_t& i,
                   std::string& fn, std::vector<std::string>& args) {
  // Re-join remaining tokens, then scan FN ( ... ).
  std::string rest;
  for (size_t k = i; k < toks.size(); ++k) {
    if (k > i) rest += ' ';
    rest += toks[k];
  }
  const size_t open = rest.find('(');
  if (open == std::string::npos) return false;
  const size_t close = rest.rfind(')');
  if (close == std::string::npos || close < open) return false;
  fn = util::toUpper(std::string(util::trim(rest.substr(0, open))));
  const std::string inner = rest.substr(open + 1, close - open - 1);
  args = util::split(inner, " \t,");
  i = toks.size();  // consumed everything
  return true;
}

std::unique_ptr<Waveform> buildWaveform(const std::string& fn,
                                        const std::vector<std::string>& a,
                                        int line) {
  auto at = [&](size_t k, double dflt) {
    return k < a.size() ? num(a[k], line, fn.c_str()) : dflt;
  };
  if (fn == "SIN") {
    if (a.size() < 3) throw ParseError("SIN needs VO VA FREQ", line);
    return std::make_unique<SinWaveform>(at(0, 0), at(1, 0), at(2, 1),
                                         at(3, 0), at(4, 0));
  }
  if (fn == "PULSE") {
    if (a.size() < 7)
      throw ParseError("PULSE needs V1 V2 TD TR TF PW PER", line);
    return std::make_unique<PulseWaveform>(at(0, 0), at(1, 0), at(2, 0),
                                           at(3, 0), at(4, 0), at(5, 0),
                                           at(6, 0));
  }
  if (fn == "PWL") {
    if (a.size() < 4 || a.size() % 2 != 0)
      throw ParseError("PWL needs pairs t1 v1 t2 v2 ...", line);
    std::vector<std::pair<double, double>> pts;
    for (size_t k = 0; k + 1 < a.size(); k += 2)
      pts.emplace_back(num(a[k], line, "PWL time"),
                       num(a[k + 1], line, "PWL value"));
    return std::make_unique<PwlWaveform>(std::move(pts));
  }
  if (fn == "SFFM") {
    if (a.size() < 5)
      throw ParseError("SFFM needs VO VA FC MDI FS", line);
    return std::make_unique<SffmWaveform>(at(0, 0), at(1, 0), at(2, 1),
                                          at(3, 0), at(4, 1));
  }
  if (fn == "AM") {
    if (a.size() < 4) throw ParseError("AM needs SA OC FM FC [TD]", line);
    return std::make_unique<AmWaveform>(at(0, 1), at(1, 0), at(2, 1),
                                        at(3, 1), at(4, 0));
  }
  if (fn == "EXP") {
    if (a.size() < 6)
      throw ParseError("EXP needs V1 V2 TD1 TAU1 TD2 TAU2", line);
    return std::make_unique<ExpWaveform>(at(0, 0), at(1, 0), at(2, 0),
                                         at(3, 1e-9), at(4, 0), at(5, 1e-9));
  }
  throw ParseError("unknown source function '" + fn + "'", line);
}

/// Parses "[DC v] [AC mag [phase]] [FN(...)]" after the two source nodes.
struct SourceSpec {
  std::unique_ptr<Waveform> wave;
  double acMag = 0.0;
  double acPhase = 0.0;
};

SourceSpec parseSourceSpec(const std::vector<std::string>& toks, size_t i,
                           int line) {
  SourceSpec spec;
  double dc = 0.0;
  bool haveDc = false;
  while (i < toks.size()) {
    const std::string up = util::toUpper(toks[i]);
    if (up == "DC") {
      if (i + 1 >= toks.size()) throw ParseError("DC needs a value", line);
      dc = num(toks[i + 1], line, "DC value");
      haveDc = true;
      i += 2;
    } else if (up == "AC") {
      if (i + 1 >= toks.size()) throw ParseError("AC needs a value", line);
      spec.acMag = num(toks[i + 1], line, "AC magnitude");
      i += 2;
      if (i < toks.size()) {
        if (auto v = util::parseSpiceNumber(toks[i])) {
          spec.acPhase = *v;
          ++i;
        }
      }
    } else if (up.find('(') != std::string::npos || up == "SIN" ||
               up == "PULSE" || up == "PWL" || up == "EXP" ||
               up == "SFFM" || up == "AM") {
      std::string fn;
      std::vector<std::string> args;
      size_t j = i;
      if (!parseSourceFn(toks, j, fn, args))
        throw ParseError("malformed source function near '" + toks[i] + "'", line);
      spec.wave = buildWaveform(fn, args, line);
      i = j;
    } else {
      // Bare number: DC value shorthand.
      dc = num(toks[i], line, "source value");
      haveDc = true;
      ++i;
    }
  }
  if (!spec.wave)
    spec.wave = std::make_unique<DcWaveform>(haveDc ? dc : 0.0);
  return spec;
}

std::map<std::string, double> parseModelParams(const std::string& text,
                                               int line) {
  // Strip optional parentheses, then read key=value pairs.
  std::string inner = text;
  const size_t open = inner.find('(');
  if (open != std::string::npos) {
    const size_t close = inner.rfind(')');
    inner = inner.substr(open + 1,
                         close == std::string::npos ? std::string::npos
                                                    : close - open - 1);
  }
  // Normalise "key = value" spacing.
  inner = util::replaceAll(inner, "=", " = ");
  const auto toks = util::split(inner, " \t,");
  std::map<std::string, double> params;
  size_t k = 0;
  while (k < toks.size()) {
    if (k + 1 >= toks.size() || toks[k + 1] != "=")
      throw ParseError("malformed model parameter near '" + toks[k] + "'",
                       line);
    if (k + 2 >= toks.size())
      throw ParseError("model parameter '" + toks[k] + "' missing value",
                       line);
    params[util::toLower(toks[k])] = num(toks[k + 2], line, toks[k].c_str());
    k += 3;
  }
  return params;
}

BjtModel buildBjtModel(const std::map<std::string, double>& p, bool pnp,
                       int line) {
  BjtModel m;
  m.pnp = pnp;
  for (const auto& [key, v] : p) {
    if (key == "is") m.is = v;
    else if (key == "bf") m.bf = v;
    else if (key == "br") m.br = v;
    else if (key == "nf") m.nf = v;
    else if (key == "nr") m.nr = v;
    else if (key == "vaf") m.vaf = v;
    else if (key == "var") m.var = v;
    else if (key == "ikf") m.ikf = v;
    else if (key == "ikr") m.ikr = v;
    else if (key == "ise") m.ise = v;
    else if (key == "ne") m.ne = v;
    else if (key == "isc") m.isc = v;
    else if (key == "nc") m.nc = v;
    else if (key == "rb") m.rb = v;
    else if (key == "irb") m.irb = v;
    else if (key == "rbm") m.rbm = v;
    else if (key == "re") m.re = v;
    else if (key == "rc") m.rc = v;
    else if (key == "cje") m.cje = v;
    else if (key == "vje") m.vje = v;
    else if (key == "mje") m.mje = v;
    else if (key == "cjc") m.cjc = v;
    else if (key == "vjc") m.vjc = v;
    else if (key == "mjc") m.mjc = v;
    else if (key == "xcjc") m.xcjc = v;
    else if (key == "cjs") m.cjs = v;
    else if (key == "vjs") m.vjs = v;
    else if (key == "mjs") m.mjs = v;
    else if (key == "fc") m.fc = v;
    else if (key == "tf") m.tf = v;
    else if (key == "xtf") m.xtf = v;
    else if (key == "vtf") m.vtf = v;
    else if (key == "itf") m.itf = v;
    else if (key == "tr") m.tr = v;
    else if (key == "eg") m.eg = v;
    else if (key == "xti") m.xti = v;
    else if (key == "xtb") m.xtb = v;
    else
      throw ParseError("unknown BJT model parameter '" + key + "'", line);
  }
  return m;
}

DiodeModel buildDiodeModel(const std::map<std::string, double>& p,
                           int line) {
  DiodeModel m;
  for (const auto& [key, v] : p) {
    if (key == "is") m.is = v;
    else if (key == "n") m.n = v;
    else if (key == "rs") m.rs = v;
    else if (key == "cjo" || key == "cj0") m.cj0 = v;
    else if (key == "vj") m.vj = v;
    else if (key == "m") m.m = v;
    else if (key == "tt") m.tt = v;
    else if (key == "fc") m.fc = v;
    else if (key == "bv") m.bv = v;
    else if (key == "ibv") m.ibv = v;
    else if (key == "eg") m.eg = v;
    else if (key == "xti") m.xti = v;
    else
      throw ParseError("unknown diode model parameter '" + key + "'", line);
  }
  return m;
}

/// Deferred semiconductor instantiation: Q/D/M cards may reference
/// .MODEL cards that appear later in the deck, so they are collected
/// (with already-resolved node ids) and instantiated after all models are
/// known.
struct PendingBjt {
  std::string name;
  int c, b, e, subs;
  std::string model;
  double area;
  int line;
};
struct PendingDiode {
  std::string name;
  int a, c;
  std::string model;
  double area;
  int line;
};
struct PendingMos {
  std::string name;
  int d, g, s, b;
  std::string model;
  double w, l;
  int line;
};

MosModel buildMosModel(const std::map<std::string, double>& p, bool pmos,
                       int line) {
  MosModel m;
  m.pmos = pmos;
  for (const auto& [key, v] : p) {
    if (key == "vto" || key == "vt0") m.vto = v;
    else if (key == "kp") m.kp = v;
    else if (key == "gamma") m.gamma = v;
    else if (key == "phi") m.phi = v;
    else if (key == "lambda") m.lambda = v;
    else if (key == "rd") m.rd = v;
    else if (key == "rs") m.rs = v;
    else if (key == "cgso") m.cgso = v;
    else if (key == "cgdo") m.cgdo = v;
    else if (key == "cgbo") m.cgbo = v;
    else if (key == "cox") m.cox = v;
    else if (key == "cbd") m.cbd = v;
    else if (key == "cbs") m.cbs = v;
    else
      throw ParseError("unknown MOS model parameter '" + key + "'", line);
  }
  return m;
}

/// A stored subcircuit definition.
struct SubcktDef {
  std::vector<std::string> ports;  // lower-cased
  std::vector<LogicalLine> body;
};

/// Name scope of a subcircuit expansion.
struct Scope {
  std::string prefix;                        // "" at top level
  std::map<std::string, std::string> ports;  // lower(local) -> global name
};

/// The full deck parser: collects subcircuit definitions, then processes
/// element cards with hierarchical name resolution, then instantiates
/// deferred semiconductor devices.
class DeckParser {
 public:
  explicit DeckParser(Circuit& ckt) : ckt_(ckt) {}

  std::vector<AnalysisRequest> run(const std::string& text,
                                   int lineOffset) {
    const auto all = logicalLines(text, lineOffset);

    // Pass 1: extract .SUBCKT ... .ENDS definitions.
    std::vector<LogicalLine> main;
    const SubcktDef* open = nullptr;
    std::string openName;
    SubcktDef def;
    (void)open;
    bool inDef = false;
    for (const auto& ll : all) {
      const auto toks = util::tokenize(ll.text);
      if (toks.empty()) continue;
      const std::string first = util::toUpper(toks[0]);
      if (first == ".SUBCKT") {
        if (inDef)
          throw ParseError("nested .SUBCKT definitions are not supported",
                           ll.line);
        if (toks.size() < 3)
          throw ParseError(".SUBCKT needs a name and at least one port",
                           ll.line);
        inDef = true;
        openName = util::toLower(toks[1]);
        def = SubcktDef{};
        for (size_t k = 2; k < toks.size(); ++k)
          def.ports.push_back(util::toLower(toks[k]));
        continue;
      }
      if (first == ".ENDS") {
        if (!inDef) throw ParseError(".ENDS without .SUBCKT", ll.line);
        if (subckts_.count(openName))
          throw ParseError("duplicate .SUBCKT '" + openName + "'", ll.line);
        subckts_[openName] = std::move(def);
        inDef = false;
        continue;
      }
      if (inDef)
        def.body.push_back(ll);
      else
        main.push_back(ll);
    }
    if (inDef)
      throw ParseError("missing .ENDS for subcircuit '" + openName + "'",
                       main.empty() ? lineOffset : main.back().line);

    // Pass 2: process the main body, expanding X calls recursively.
    Scope top;
    processLines(main, top, 0);

    // Pass 3: instantiate deferred semiconductors.
    for (const auto& d : pendingDiodes_) {
      if (!ckt_.diodeModels().count(util::toLower(d.model)))
        throw ParseError("unknown diode model '" + d.model + "' on '" +
                             d.name + "'",
                         d.line);
      ckt_.add<Diode>(d.name, ckt_, d.a, d.c, ckt_.diodeModel(d.model),
                      d.area, ckt_.temperatureC());
      ckt_.setDeviceLine(d.name, d.line);
    }
    for (const auto& q : pendingBjts_) {
      if (!ckt_.hasBjtModel(q.model))
        throw ParseError("unknown BJT model '" + q.model + "' on '" +
                             q.name + "'",
                         q.line);
      ckt_.add<Bjt>(q.name, ckt_, q.c, q.b, q.e, ckt_.bjtModel(q.model),
                    q.area, q.subs, ckt_.temperatureC());
      ckt_.setDeviceLine(q.name, q.line);
    }
    for (const auto& mo : pendingMos_) {
      ckt_.add<Mosfet>(mo.name, ckt_, mo.d, mo.g, mo.s, mo.b,
                       mosModel(mo.model, mo.line), mo.w, mo.l);
      ckt_.setDeviceLine(mo.name, mo.line);
    }
    return analyses_;
  }

 private:
  /// Node id for `name` within `scope`.
  int node(const Scope& scope, const std::string& name) {
    const std::string key = util::toLower(name);
    if (key == "0" || key == "gnd") return 0;
    auto it = scope.ports.find(key);
    if (it != scope.ports.end()) return ckt_.node(it->second);
    return ckt_.node(scope.prefix + name);
  }
  /// Global node *name* for `name` within `scope` (for port maps).
  std::string nodeName(const Scope& scope, const std::string& name) {
    return ckt_.nodeName(node(scope, name));
  }

  const MosModel& mosModel(const std::string& name, int line) const {
    auto it = mosModels_.find(util::toLower(name));
    if (it == mosModels_.end())
      throw ParseError("unknown MOS model '" + name + "'", line);
    return it->second;
  }

  void processLines(const std::vector<LogicalLine>& lines,
                    const Scope& scope, int depth) {
    if (depth > 32)
      throw Error("subcircuit nesting too deep (recursive definition?)");
    for (const auto& ll : lines) processLine(ll, scope, depth);
  }

  void processLine(const LogicalLine& ll, const Scope& scope, int depth) {
    const auto toks = util::tokenize(ll.text);
    if (toks.empty()) return;
    const std::string first = util::toUpper(toks[0]);
    const int line = ll.line;
    const bool topLevel = scope.prefix.empty();

    if (first[0] == '.') {
      if (!topLevel)
        throw ParseError("control card '" + first +
                             "' not allowed inside a subcircuit",
                         line);
      if (first == ".END") {
        ended_ = true;
        return;
      }
      if (ended_) return;
      handleControlCard(first, toks, ll, line);
      return;
    }
    if (ended_) return;

    const char kind = first[0];
    const std::string name = scope.prefix + toks[0];
    switch (kind) {
      case 'R': {
        if (toks.size() < 4) throw ParseError("'" + toks[0] + "': R needs n1 n2 value", line);
        ckt_.add<Resistor>(name, node(scope, toks[1]), node(scope, toks[2]),
                           num(toks[3], line, "resistance"));
        break;
      }
      case 'C': {
        if (toks.size() < 4) throw ParseError("'" + toks[0] + "': C needs n1 n2 value", line);
        ckt_.add<Capacitor>(name, node(scope, toks[1]),
                            node(scope, toks[2]),
                            num(toks[3], line, "capacitance"));
        break;
      }
      case 'L': {
        if (toks.size() < 4) throw ParseError("'" + toks[0] + "': L needs n1 n2 value", line);
        ckt_.add<Inductor>(name, node(scope, toks[1]), node(scope, toks[2]),
                           num(toks[3], line, "inductance"));
        break;
      }
      case 'V':
      case 'I': {
        if (toks.size() < 3)
          throw ParseError("'" + toks[0] + "': source needs two nodes", line);
        auto spec = parseSourceSpec(toks, 3, line);
        const int p = node(scope, toks[1]);
        const int n = node(scope, toks[2]);
        if (kind == 'V')
          ckt_.add<VSource>(name, p, n, std::move(spec.wave), spec.acMag,
                            spec.acPhase);
        else
          ckt_.add<ISource>(name, p, n, std::move(spec.wave), spec.acMag,
                            spec.acPhase);
        break;
      }
      case 'E':
      case 'G': {
        if (toks.size() < 6)
          throw ParseError("'" + toks[0] + "': E/G needs p n cp cn gain", line);
        const int p = node(scope, toks[1]), n = node(scope, toks[2]);
        const int cp = node(scope, toks[3]), cn = node(scope, toks[4]);
        const double g = num(toks[5], line, "gain");
        if (kind == 'E')
          ckt_.add<Vcvs>(name, p, n, cp, cn, g);
        else
          ckt_.add<Vccs>(name, p, n, cp, cn, g);
        break;
      }
      case 'F':
      case 'H': {
        if (toks.size() < 5)
          throw ParseError("'" + toks[0] + "': F/H needs p n Vctrl gain", line);
        const int p = node(scope, toks[1]), n = node(scope, toks[2]);
        // The controlling source is looked up scope-locally first, then
        // globally.
        Device* dev = ckt_.findDevice(scope.prefix + toks[3]);
        if (dev == nullptr) dev = ckt_.findDevice(toks[3]);
        auto* ctrl = dynamic_cast<VSource*>(dev);
        if (ctrl == nullptr)
          throw ParseError("controlling source '" + toks[3] +
                               "' must be a previously defined V source",
                           line);
        const double g = num(toks[4], line, "gain");
        if (kind == 'F')
          ckt_.add<Cccs>(name, p, n, *ctrl, g);
        else
          ckt_.add<Ccvs>(name, p, n, *ctrl, g);
        break;
      }
      case 'D': {
        if (toks.size() < 4) throw ParseError("'" + toks[0] + "': D needs a c model", line);
        PendingDiode d{name, node(scope, toks[1]), node(scope, toks[2]),
                       toks[3], 1.0, line};
        if (toks.size() > 4) d.area = num(toks[4], line, "area");
        pendingDiodes_.push_back(std::move(d));
        break;
      }
      case 'Q': {
        if (toks.size() < 5) throw ParseError("'" + toks[0] + "': Q needs c b e model", line);
        PendingBjt q{name,
                     node(scope, toks[1]),
                     node(scope, toks[2]),
                     node(scope, toks[3]),
                     0,
                     "",
                     1.0,
                     line};
        // Optional substrate node before the model name; SPICE
        // disambiguates the same way (token after the candidate model is
        // a number or absent).
        size_t mi = 4;
        if (toks.size() > 5 && !util::parseSpiceNumber(toks[5])) {
          q.subs = node(scope, toks[4]);
          mi = 5;
        }
        q.model = toks[mi];
        if (toks.size() > mi + 1)
          q.area = num(toks[mi + 1], line, "area");
        pendingBjts_.push_back(std::move(q));
        break;
      }
      case 'M': {
        if (toks.size() < 6)
          throw ParseError("'" + toks[0] + "': M needs d g s b model", line);
        PendingMos m{name,
                     node(scope, toks[1]),
                     node(scope, toks[2]),
                     node(scope, toks[3]),
                     node(scope, toks[4]),
                     toks[5],
                     10e-6,
                     1e-6,
                     line};
        for (size_t k = 6; k < toks.size(); ++k) {
          const auto kv = util::split(toks[k], "=");
          if (kv.size() != 2)
            throw ParseError("'" + toks[k] +
                             "': MOS instance parameter must be W=... "
                             "or L=...",
                             line);
          if (util::equalsNoCase(kv[0], "w"))
            m.w = num(kv[1], line, "W");
          else if (util::equalsNoCase(kv[0], "l"))
            m.l = num(kv[1], line, "L");
          else
            throw ParseError("unknown MOS instance parameter '" + kv[0] +
                                 "'",
                             line);
        }
        pendingMos_.push_back(std::move(m));
        break;
      }
      case 'X': {
        if (toks.size() < 3)
          throw ParseError("'" + toks[0] +
                           "': X needs at least one node and a "
                           "subcircuit name",
                           line);
        const std::string subName = util::toLower(toks.back());
        auto it = subckts_.find(subName);
        if (it == subckts_.end())
          throw ParseError("unknown subcircuit '" + toks.back() + "'",
                           line);
        const SubcktDef& sub = it->second;
        const size_t nConns = toks.size() - 2;
        if (nConns != sub.ports.size())
          throw ParseError("subcircuit '" + toks.back() + "' has " +
                               std::to_string(sub.ports.size()) +
                               " ports, got " + std::to_string(nConns),
                           line);
        Scope child;
        child.prefix = name + ".";
        for (size_t k = 0; k < nConns; ++k)
          child.ports[sub.ports[k]] = nodeName(scope, toks[1 + k]);
        processLines(sub.body, child, depth + 1);
        break;
      }
      default:
        throw ParseError("unsupported element '" + toks[0] + "'", line);
    }
    // Immediately-constructed devices get their deck line recorded here;
    // pending D/Q/M record theirs at second-pass construction, and X
    // expands to child devices that record their own lines.
    if (ckt_.findDevice(name) != nullptr) ckt_.setDeviceLine(name, line);
  }

  void handleControlCard(const std::string& first,
                         const std::vector<std::string>& toks,
                         const LogicalLine& ll, int line) {
    if (first == ".OP") {
      analyses_.push_back(OpRequest{});
    } else if (first == ".TRAN") {
      if (toks.size() < 3) throw ParseError(".TRAN needs step tstop", line);
      analyses_.push_back(TranRequest{num(toks[1], line, "tran step"),
                                      num(toks[2], line, "tran tstop")});
    } else if (first == ".AC") {
      if (toks.size() < 5 || !util::equalsNoCase(toks[1], "dec"))
        throw ParseError(".AC needs DEC npts fstart fstop", line);
      analyses_.push_back(
          AcRequest{static_cast<int>(num(toks[2], line, "ac points")),
                    num(toks[3], line, "fstart"),
                    num(toks[4], line, "fstop")});
    } else if (first == ".DC") {
      if (toks.size() < 5)
        throw ParseError(".DC needs source start stop step", line);
      analyses_.push_back(DcRequest{toks[1], num(toks[2], line, "start"),
                                    num(toks[3], line, "stop"),
                                    num(toks[4], line, "step")});
    } else if (first == ".NOISE") {
      if (toks.size() < 6 || !util::equalsNoCase(toks[2], "dec"))
        throw ParseError(".NOISE needs node DEC npts fstart fstop", line);
      analyses_.push_back(NoiseRequest{
          toks[1], static_cast<int>(num(toks[3], line, "noise points")),
          num(toks[4], line, "fstart"), num(toks[5], line, "fstop")});
    } else if (first == ".MODEL") {
      if (toks.size() < 3) throw ParseError(".MODEL needs name type", line);
      const std::string mname = toks[1];
      // Re-join everything after the name; the type is its leading
      // alphabetic run (handles "NPN(IS=..." with no space).
      std::string typeAndParams;
      for (size_t k = 2; k < toks.size(); ++k) {
        typeAndParams += toks[k];
        typeAndParams += ' ';
      }
      size_t tp = 0;
      while (tp < typeAndParams.size() &&
             std::isalpha(static_cast<unsigned char>(typeAndParams[tp])))
        ++tp;
      const std::string mtype = util::toUpper(typeAndParams.substr(0, tp));
      const std::string ptext = typeAndParams.substr(tp);
      const auto params = parseModelParams(ptext, line);
      if (mtype == "NPN")
        ckt_.addBjtModel(mname, buildBjtModel(params, false, line));
      else if (mtype == "PNP")
        ckt_.addBjtModel(mname, buildBjtModel(params, true, line));
      else if (mtype == "NMOS")
        mosModels_[util::toLower(mname)] = buildMosModel(params, false, line);
      else if (mtype == "PMOS")
        mosModels_[util::toLower(mname)] = buildMosModel(params, true, line);
      else if (mtype == "D")
        ckt_.addDiodeModel(mname, buildDiodeModel(params, line));
      else
        throw ParseError("unsupported model type '" + mtype + "'", line);
    } else if (first == ".TEMP") {
      if (toks.size() < 2) throw ParseError(".TEMP needs a value", line);
      ckt_.setTemperatureC(num(toks[1], line, "temperature"));
    } else if (first == ".OPTIONS" || first == ".OPTION") {
      // Options are tolerated, not interpreted (real-world decks carry
      // plenty of simulator-specific flags). A retired solver-backend
      // choice is remembered only so lint can say it is ignored.
      for (size_t k = 1; k < toks.size(); ++k) {
        const std::string up = util::toUpper(toks[k]);
        if (up == "SPARSE" || up == "DENSE")
          solverOption_ = util::toLower(up);
        else if (up.rfind("SOLVER=", 0) == 0)
          solverOption_ = util::toLower(up.substr(7));
      }
    } else {
      throw ParseError("unsupported card '" + first + "'", line);
    }
    (void)ll;
  }

  Circuit& ckt_;
  std::map<std::string, SubcktDef> subckts_;
  std::map<std::string, MosModel> mosModels_;
  std::vector<PendingBjt> pendingBjts_;
  std::vector<PendingDiode> pendingDiodes_;
  std::vector<PendingMos> pendingMos_;
  std::vector<AnalysisRequest> analyses_;
  std::string solverOption_;
  bool ended_ = false;

 public:
  const std::string& solverOption() const { return solverOption_; }
};

}  // namespace

std::vector<AnalysisRequest> parseInto(Circuit& ckt, const std::string& text,
                                       int lineOffset,
                                       std::string* solverOption) {
  DeckParser parser(ckt);
  auto analyses = parser.run(text, lineOffset);
  if (solverOption != nullptr) *solverOption = parser.solverOption();
  return analyses;
}

Deck parseDeck(const std::string& text) {
  Deck deck;
  const size_t eol = text.find('\n');
  deck.title = std::string(
      util::trim(eol == std::string::npos ? text : text.substr(0, eol)));
  const std::string body =
      eol == std::string::npos ? std::string() : text.substr(eol + 1);
  deck.analyses = parseInto(deck.circuit, body, 1, &deck.solverOption);
  return deck;
}

}  // namespace ahfic::spice
