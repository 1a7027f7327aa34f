#pragma once
// Seeded request stream of the daemon_mix workload.
//
// The stream is cut into rounds. Each round holds, in a seeded order:
//  * cold decks, each new to the daemon: common-emitter stages with
//    .OP/.AC/.NOISE (model cards from the caller) and diode-RC ladders
//    with .OP/.TRAN, half of them below and half above 128 unknowns;
//  * warm resubmissions of cold decks from earlier rounds (byte-identical
//    text, so the daemon's session cache serves them);
//  * lint-bad decks, each with the 422 lint code it must draw;
//  * small mc-ft-batch workload submissions.
// Warm requests only reference earlier rounds, so when rounds are run
// one after another their cold twins have finished and the cache hit is
// certain. The same seed gives the same stream; the daemon sees only the
// generated JSON bodies.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class MixKind { kCold, kWarm, kBad, kMc };
const char* mixKindName(MixKind kind);

struct MixRequest {
  MixKind kind = MixKind::kCold;
  std::string family;      ///< "ce", "ladder", "bad", "mc-ft-batch"
  std::string deck;        ///< deck text (deck kinds only)
  std::string body;        ///< POST /v1/jobs JSON body
  std::string expectCode;  ///< kBad: lint code of the expected 422
  int deckId = -1;         ///< kCold: its own id; kWarm: the cold twin's
  int unknowns = 0;        ///< ladders: MNA unknown count of the deck
  int points = 0;          ///< design points evaluated (dies for kMc)
};

// Requests per round. No traffic record exists to take the mix from, so
// it is assumed: warm resubmits are 8 of the 18 deck jobs, so the cache
// read path and the solve path carry comparable request counts; 3 bad
// decks give lint rejects enough samples without crowding out solves;
// one small mc-ft-batch keeps the batched plane in the daemon's path
// without tying up a worker for long.
constexpr int kColdPerRound = 10;
constexpr int kWarmPerRound = 8;  ///< from the second round on
constexpr int kBadPerRound = 3;
constexpr int kMcPerRound = 1;
constexpr int kMcDies = 8;  ///< dies of each mc-ft-batch submission

class DaemonMix {
 public:
  /// `modelCards`: ".MODEL <name> NPN(...)" lines for the CE stages.
  DaemonMix(std::uint64_t seed, std::vector<std::string> modelCards);

  /// The next round; rounds come out in order 0, 1, 2, ...
  std::vector<MixRequest> nextRound();

  int rounds() const { return round_; }
  /// Text of cold deck `id` (ids count from 0 across rounds).
  const std::string& coldDeck(int id) const { return coldDecks_.at(id); }
  int coldCount() const { return static_cast<int>(coldDecks_.size()); }

 private:
  std::uint64_t seed_;
  std::vector<std::string> cards_;
  int round_ = 0;
  std::vector<std::string> coldDecks_;
  std::vector<std::string> coldFamilies_;
  std::vector<int> coldUnknowns_;
};

}  // namespace perfbench
