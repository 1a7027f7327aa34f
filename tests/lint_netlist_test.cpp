// Golden decks for every netlist diagnostic code: each broken deck must
// produce exactly the expected code, and the clean reference decks must
// stay silent.

#include "lint/netlist.h"

#include <gtest/gtest.h>

#include "spice/circuit.h"
#include "spice/parser.h"
#include "spice/passive.h"
#include "spice/sources.h"

namespace lint = ahfic::lint;
namespace sp = ahfic::spice;

namespace {

lint::LintReport lintText(const char* deck) {
  return lint::lintDeckText(deck);
}

}  // namespace

TEST(LintNetlist, CleanDeckHasNoDiagnostics) {
  const auto r = lintText(R"(clean divider
V1 in 0 DC 5
R1 in out 1k
R2 out 0 1k
.OP
.END
)");
  EXPECT_FALSE(r.hasErrors()) << r.renderText();
  EXPECT_EQ(r.count(lint::Severity::kWarning), 0u) << r.renderText();
}

TEST(LintNetlist, ParallelVoltageSourcesAreAVsrcLoop) {
  const auto r = lintText(R"(vloop
V1 a 0 5
V2 a 0 4.9
R1 a 0 1k
.OP
.END
)");
  ASSERT_TRUE(r.hasCode("NET_VSRC_LOOP")) << r.renderText();
  // The second source closes the loop; the deck line travels with it.
  const auto* d = r.find("NET_VSRC_LOOP");
  EXPECT_EQ(d->loc.object, "V2");
  EXPECT_EQ(d->loc.line, 3);
}

TEST(LintNetlist, VsourceInductorLoopIsAVsrcLoop) {
  const auto r = lintText(R"(v-l loop
V1 a 0 5
L1 a 0 10n
R1 a 0 1k
.OP
.END
)");
  EXPECT_TRUE(r.hasCode("NET_VSRC_LOOP")) << r.renderText();
}

TEST(LintNetlist, PureInductorLoopIsAnIndLoop) {
  const auto r = lintText(R"(l-l loop
I1 0 a 1m
L1 a b 10n
L2 a b 20n
R1 b 0 1k
.OP
.END
)");
  EXPECT_TRUE(r.hasCode("NET_IND_LOOP")) << r.renderText();
  EXPECT_FALSE(r.hasCode("NET_VSRC_LOOP")) << r.renderText();
}

TEST(LintNetlist, CurrentSourceOnlyNodeIsACutset) {
  const auto r = lintText(R"(cutset
I1 0 x 1m
I2 x 0 2m
R1 y 0 1k
V1 y 0 1
.OP
.END
)");
  ASSERT_TRUE(r.hasCode("NET_ISRC_CUTSET")) << r.renderText();
  EXPECT_EQ(r.find("NET_ISRC_CUTSET")->loc.object, "node x");
}

TEST(LintNetlist, CapacitorIsolatedNodeIsFloating) {
  const auto r = lintText(R"(floating
V1 in 0 DC 5
R1 in mid 1k
C1 mid iso 1p
R2 iso iso2 1k
C2 iso2 0 1p
.OP
.END
)");
  EXPECT_TRUE(r.hasCode("NET_FLOATING_NODE")) << r.renderText();
}

TEST(LintNetlist, IslandDisconnectedFromGroundIsReportedOnce) {
  const auto r = lintText(R"(island
V1 in 0 DC 5
R1 in 0 1k
R2 a b 1k
R3 b a 2k
.OP
.END
)");
  ASSERT_TRUE(r.hasCode("NET_DISCONNECTED")) << r.renderText();
  // One island -> one diagnostic, not one per node.
  size_t n = 0;
  for (const auto& d : r.diagnostics())
    if (d.code == "NET_DISCONNECTED") ++n;
  EXPECT_EQ(n, 1u);
}

TEST(LintNetlist, SingleTerminalNodeDangles) {
  const auto r = lintText(R"(dangling
V1 in 0 DC 5
R1 in out 1k
R2 in 0 2k
.OP
.END
)");
  ASSERT_TRUE(r.hasCode("NET_DANGLING_NODE")) << r.renderText();
  EXPECT_EQ(r.find("NET_DANGLING_NODE")->severity,
            lint::Severity::kWarning);
}

TEST(LintNetlist, ZeroCapacitorWarns) {
  const auto r = lintText(R"(zero cap
V1 in 0 DC 5
R1 in 0 1k
C1 in 0 0
.OP
.END
)");
  EXPECT_TRUE(r.hasCode("NET_ZERO_CAP")) << r.renderText();
  EXPECT_FALSE(r.hasErrors()) << r.renderText();
}

TEST(LintNetlist, AcSpecWithoutAcAnalysisWarns) {
  const auto r = lintText(R"(unused ac
V1 in 0 DC 5 AC 1
R1 in 0 1k
.OP
.END
)");
  EXPECT_TRUE(r.hasCode("NET_UNUSED_AC")) << r.renderText();
}

TEST(LintNetlist, TimeVaryingSourceWithoutTranWarns) {
  const auto r = lintText(R"(unused tran
V1 in 0 SIN(0 1 1MEG)
R1 in 0 1k
.OP
.END
)");
  EXPECT_TRUE(r.hasCode("NET_UNUSED_TRAN")) << r.renderText();
}

TEST(LintNetlist, AcAnalysisWithoutAcSourceWarns) {
  const auto r = lintText(R"(quiet ac
V1 in 0 DC 5
R1 in 0 1k
.AC DEC 4 1k 1MEG
.END
)");
  EXPECT_TRUE(r.hasCode("NET_NO_AC_SOURCE")) << r.renderText();
}

TEST(LintNetlist, DeckWithoutAnalysesGetsInfo) {
  const auto r = lintText(R"(nothing to do
V1 in 0 DC 5
R1 in 0 1k
.END
)");
  ASSERT_TRUE(r.hasCode("NET_NO_ANALYSIS")) << r.renderText();
  EXPECT_EQ(r.find("NET_NO_ANALYSIS")->severity, lint::Severity::kInfo);
}

TEST(LintNetlist, MalformedDeckBecomesParseDiagnosticWithLine) {
  const auto r = lintText(R"(broken
R1 a b
.OP
.END
)");
  ASSERT_TRUE(r.hasCode("PARSE")) << r.renderText();
  const auto* d = r.find("PARSE");
  EXPECT_EQ(d->loc.line, 2);
  EXPECT_NE(d->message.find("R1"), std::string::npos);
  EXPECT_FALSE(lint::lintDeckText("junk\nZ1 a b 5\n.END\n").empty());
}

TEST(LintNetlist, ProgrammaticCircuitLintsWithoutDeck) {
  sp::Circuit ckt;
  const int a = ckt.node("a");
  ckt.add<sp::VSource>("v1", a, 0, 5.0);
  ckt.add<sp::VSource>("v2", a, 0, 4.0);
  const auto r = lint::lintCircuit(ckt);
  ASSERT_TRUE(r.hasCode("NET_VSRC_LOOP")) << r.renderText();
  // No parser involved: the location carries the device, not a line.
  EXPECT_EQ(r.find("NET_VSRC_LOOP")->loc.line, -1);
}

TEST(LintNetlist, EclDemoStyleDeckIsCleanOfErrors) {
  // Representative real deck: the spice_cli demo topology.
  const auto r = lintText(R"(ECL gate demo
.MODEL n1 NPN(IS=1e-16 BF=110 VAF=45 RB=120 RE=3 RC=20 CJE=20f CJC=25f TF=12p)
VCC vcc 0 5
VIN inp 0 DC 3.8 AC 1
RC1 vcc c1 170
Q1 c1 inp e n1
IT e 0 3m
RL c1 0 10k
.OP
.AC DEC 4 1MEG 1G
.END
)");
  EXPECT_FALSE(r.hasErrors()) << r.renderText();
}

TEST(LintNetlist, SolverOptionIsIgnoredWithInfo) {
  std::string body = "big ladder\nV1 n0 0 DC 1\n";
  for (int k = 0; k < 150; ++k) {
    body += "R" + std::to_string(k) + " n" + std::to_string(k) + " n" +
            std::to_string(k + 1) + " 1k\n";
    body += "C" + std::to_string(k) + " n" + std::to_string(k + 1) +
            " 0 1p\n";
  }
  // A deck without a backend choice gets no diagnostic, whatever its size.
  const auto quiet = lintText((body + ".OP\n.END\n").c_str());
  EXPECT_FALSE(quiet.hasCode("NET_SOLVER_OPTION_IGNORED"))
      << quiet.renderText();
  // A backend choice still parses, and lint says it is ignored.
  const auto noisy =
      lintText((body + ".OPTIONS SOLVER=dense\n.OP\n.END\n").c_str());
  ASSERT_TRUE(noisy.hasCode("NET_SOLVER_OPTION_IGNORED"))
      << noisy.renderText();
  // Informational only — never gates.
  EXPECT_FALSE(noisy.hasErrors());
}
