// Deterministic fuzzing of every parser that ever touches bytes from
// the network. A bot must survive arbitrary hostile input: the only
// acceptable outcomes are a parsed value or WireError — never a crash,
// never an out-of-range read (ASan-observable), and never acceptance of
// a tampered signed command. Each decoder gets random bytes and
// mutations of one valid message (fuzz_payload).
//
// The scenario payload decoders (grid results, snapshots, replay points,
// trace header and footer) get the same treatment at the end: their
// frames carry an unkeyed digest, so a re-digested frame in a results
// directory or trace file reaches them with any bytes at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

#include "core/botnet.hpp"
#include "core/messages.hpp"
#include "core/rental.hpp"
#include "crypto/elligator_sim.hpp"
#include "detection/replay_grid.hpp"
#include "scenario/trace_io.hpp"
#include "scenario/wire.hpp"

namespace onion {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.uniform(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

/// One random mutation of a valid payload: a byte flip, a forged word
/// (often a count or length) at a random offset, a truncation, or
/// appended garbage.
Bytes mutate(Bytes bytes, Rng& rng) {
  switch (rng.uniform(4)) {
    case 0:
      if (!bytes.empty())
        bytes[rng.uniform(bytes.size())] ^=
            static_cast<std::uint8_t>(1 + rng.uniform(255));
      break;
    case 1:
      if (bytes.size() >= 8) {
        static constexpr std::uint64_t kWords[] = {
            std::uint64_t{1} << 62, std::uint64_t{1} << 32, ~std::uint64_t{0},
            (std::uint64_t{1} << 32) - 1, 1000, 200};
        const std::uint64_t word = rng.uniform(2) == 0
                                       ? kWords[rng.uniform(std::size(kWords))]
                                       : rng.next_u64();
        const Bytes be = be64(word);
        std::copy(be.begin(), be.end(),
                  bytes.begin() + static_cast<std::ptrdiff_t>(
                                      rng.uniform(bytes.size() - 7)));
      }
      break;
    case 2:
      bytes.resize(rng.uniform(bytes.size() + 1));
      break;
    default:
      for (std::uint64_t i = rng.uniform(16); i > 0; --i)
        bytes.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      break;
  }
  return bytes;
}

/// Feeds `decode` random bytes and mutations of `valid`; anything it
/// throws other than WireError escapes and fails the test.
template <typename Decode>
void fuzz_payload(Decode decode, const Bytes& valid, std::uint64_t seed) {
  ASSERT_NO_THROW((void)decode(valid));
  Rng rng(seed);
  for (int i = 0; i < 3000; ++i) {
    Bytes input = i % 4 == 0 ? random_bytes(rng, 400) : valid;
    for (std::uint64_t m = 1 + rng.uniform(3); m > 0; --m)
      input = mutate(std::move(input), rng);
    try {
      (void)decode(input);
    } catch (const codec::WireError&) {
      // The documented failure mode.
    }
  }
}

}  // namespace
}  // namespace onion

namespace onion::core {
namespace {

tor::OnionAddress fuzz_address(std::uint8_t salt) {
  tor::OnionAddress::Identifier id;
  id.fill(salt);
  return tor::OnionAddress(id);
}

RentalToken fuzz_token() {
  RentalToken token;
  token.renter_key = {0xabcdef12345ull, 65537, 2048};
  token.expires_at = kHour;
  token.whitelist = {CommandType::Spam, CommandType::Compute};
  token.master_signature = 77;
  return token;
}

SignedCommand fuzz_signed_command() {
  SignedCommand sc;
  sc.command.type = CommandType::Ddos;
  sc.command.argument = "victim.example";
  sc.command.issued_at = 5000;
  sc.command.nonce = 42;
  sc.signature = 0x1234;
  sc.token = fuzz_token();
  return sc;
}

TEST(WireFuzz, PeekKindNeverCrashes) {
  fuzz_payload(peek_kind, encode_ping(), 1);
}

TEST(WireFuzz, PeerRequestNeverCrashes) {
  fuzz_payload(parse_peer_request, encode_peer_request({fuzz_address(1), 5}),
               2);
}

TEST(WireFuzz, PeerReplyNeverCrashes) {
  fuzz_payload(parse_peer_reply,
               encode_peer_reply({true, 3, {fuzz_address(2), fuzz_address(3)}}),
               3);
}

TEST(WireFuzz, PeerDropNeverCrashes) {
  fuzz_payload(parse_peer_drop, encode_peer_drop({fuzz_address(4)}), 4);
}

TEST(WireFuzz, NoNShareNeverCrashes) {
  fuzz_payload(parse_non_share,
               encode_non_share({fuzz_address(5), {fuzz_address(6)}, 1}), 5);
}

TEST(WireFuzz, AddressChangeNeverCrashes) {
  fuzz_payload(parse_address_change,
               encode_address_change({fuzz_address(7), fuzz_address(8)}), 6);
}

TEST(WireFuzz, BroadcastNeverCrashes) {
  fuzz_payload(parse_broadcast, encode_broadcast(Bytes(64, 0x42)), 7);
}

TEST(WireFuzz, DirectCommandNeverCrashes) {
  fuzz_payload(parse_direct_command,
               encode_direct_command(fuzz_signed_command()), 8);
}

TEST(WireFuzz, SignedCommandNeverCrashes) {
  fuzz_payload(SignedCommand::parse, fuzz_signed_command().serialize(), 9);
}

TEST(WireFuzz, RentalTokenNeverCrashes) {
  fuzz_payload(codec::decode<RentalToken>, codec::encode(fuzz_token()), 10);
}

TEST(WireFuzz, UniformDecodeNeverCrashes) {
  Rng rng(11);
  const Bytes key = to_bytes("fuzz-key");
  for (int i = 0; i < 2000; ++i) {
    const Bytes input = random_bytes(rng, 600);
    (void)crypto::uniform_decode(key, input);  // nullopt or value, no throw
  }
}

// --- structure-aware fuzzing: valid wire, then mutate -----------------

TEST(MutationFuzz, TamperedSignedCommandNeverVerifies) {
  Rng rng(12);
  const crypto::RsaKeyPair master = crypto::rsa_generate(rng, 2048);
  Command cmd;
  cmd.type = CommandType::Ddos;
  cmd.argument = "victim.example";
  cmd.issued_at = 5000;
  cmd.nonce = 42;
  const SignedCommand signed_cmd = sign_command(master, cmd);
  const Bytes wire = signed_cmd.serialize();

  int parsed_ok = 0;
  for (int i = 0; i < 2000; ++i) {
    Bytes bad = wire;
    const std::size_t pos = static_cast<std::size_t>(rng.uniform(bad.size()));
    const auto flip = static_cast<std::uint8_t>(1 + rng.uniform(255));
    bad[pos] ^= flip;
    try {
      const SignedCommand reparsed = SignedCommand::parse(bad);
      ++parsed_ok;
      // Parsing may succeed; verification must not, unless the flipped
      // byte was outside every verified field — impossible here because
      // the whole wire is command+signature.
      if (reparsed.verify(master.pub, 6000, kHour)) {
        // The only acceptable case: mutation round-tripped to the exact
        // original bytes (cannot happen with a nonzero flip) — so fail.
        ADD_FAILURE() << "tampered command verified (pos " << pos << ")";
      }
    } catch (const WireError&) {
    }
  }
  EXPECT_GT(parsed_ok, 0) << "sanity: some mutations still parse";
}

TEST(MutationFuzz, TruncatedWireAlwaysThrowsOrFails) {
  Rng rng(13);
  const crypto::RsaKeyPair master = crypto::rsa_generate(rng, 2048);
  Command cmd;
  cmd.type = CommandType::Spam;
  cmd.argument = "arg";
  const SignedCommand signed_cmd = sign_command(master, cmd);
  const Bytes wire = signed_cmd.serialize();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const Bytes prefix(wire.begin(),
                       wire.begin() + static_cast<std::ptrdiff_t>(len));
    try {
      const SignedCommand reparsed = SignedCommand::parse(prefix);
      EXPECT_FALSE(reparsed.verify(master.pub, 1000, kHour))
          << "truncation to " << len << " bytes verified";
    } catch (const WireError&) {
    }
  }
}

TEST(MutationFuzz, BotSurvivesArbitraryRequestBytes) {
  // End to end: a hostile client sprays garbage at a live bot's hidden
  // service; the bot must answer blandly (or not) and keep operating.
  Botnet::Params params;
  params.num_bots = 8;
  params.initial_degree = 3;
  params.seed = 99;
  params.tor.num_relays = 16;
  Botnet net(params);
  const tor::EndpointId attacker = net.tor().create_endpoint();
  Rng rng(14);
  for (int i = 0; i < 60; ++i) {
    net.tor().connect_and_send(attacker, net.bot(i % 8).address(),
                               random_bytes(rng, 200),
                               [](const tor::ConnectResult&) {});
  }
  net.run_for(10 * kMinute);
  // Every bot still alive and still responsive to a legitimate command.
  Command cmd;
  cmd.type = CommandType::Ping;
  net.master().broadcast(cmd, 2);
  net.run_for(10 * kMinute);
  EXPECT_EQ(net.count_executed(CommandType::Ping), net.num_bots());
}

// --- determinism -------------------------------------------------------

TEST(Determinism, IdenticalSeedsYieldIdenticalRuns) {
  auto run_once = [] {
    Botnet::Params params;
    params.num_bots = 12;
    params.initial_degree = 4;
    params.seed = 0x5eed;
    params.tor.num_relays = 16;
    Botnet net(params);
    Command cmd;
    cmd.type = CommandType::Compute;
    net.master().broadcast(cmd, 2);
    net.kill_bot(3);
    net.run_for(30 * kMinute);
    // Fingerprint the end state: executed counts, degrees, addresses.
    std::string fingerprint;
    for (std::size_t i = 0; i < net.num_bots(); ++i) {
      fingerprint += net.bot(i).address().hostname();
      fingerprint += ':';
      fingerprint += std::to_string(net.bot(i).executed().size());
      fingerprint += ':';
      fingerprint += std::to_string(net.bot(i).degree());
      fingerprint += ';';
    }
    fingerprint += std::to_string(net.tor().stats().cells_forwarded);
    return fingerprint;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace onion::core

namespace onion::scenario {
namespace {

MetricsSnapshot fuzz_snapshot(std::uint64_t salt) {
  MetricsSnapshot s;
  s.time = 60 * kMinute + salt;
  s.honest_alive = 500 + salt;
  s.largest_fraction = 0.97;
  s.degree_histogram = {0, 3, 9, 488};
  s.takedowns = salt;
  if (salt % 2 == 1) s.wave_takedowns = {salt, 2};
  return s;
}

detection::ReplayGridPoint fuzz_point(std::uint64_t seed) {
  detection::ReplayGridPoint p;
  p.replay_seed = seed;
  p.detector = "flow-beacon";
  p.params = "size_cv=0.1,gap_cv=0.2";
  p.flows = 4000;
  p.tpr = 0.5;
  p.families = {{"onion", 3, 6}, {"benign_tor", 1, 20}};
  return p;
}

FailedCell fuzz_failed(std::uint64_t index) {
  return {index, "seed=" + std::to_string(index), index, 2, "timed out"};
}

CellResult fuzz_cell(std::uint64_t seed) {
  CellResult cell;
  cell.label = "seed=" + std::to_string(seed);
  cell.seed = seed;
  cell.fingerprint = std::string(64, 'a');
  cell.series = {fuzz_snapshot(seed), fuzz_snapshot(seed + 1)};
  cell.counters.joins = seed;
  cell.events_executed = 99;
  return cell;
}

TEST(PayloadFuzz, SnapshotDecoderOnlyThrowsWireError) {
  fuzz_payload(codec::decode<MetricsSnapshot>,
               codec::encode(fuzz_snapshot(1)), 21);
}

TEST(PayloadFuzz, ReplayPointDecoderOnlyThrowsWireError) {
  fuzz_payload(codec::decode<detection::ReplayGridPoint>,
               codec::encode(fuzz_point(1)), 22);
}

TEST(PayloadFuzz, CellResultDecoderOnlyThrowsWireError) {
  fuzz_payload(codec::decode<CellResult>, codec::encode(fuzz_cell(4)),
               23);
}

TEST(PayloadFuzz, GridReportDecoderOnlyThrowsWireError) {
  GridReport report;
  report.cells = {fuzz_cell(1), fuzz_cell(2)};
  report.failed_cells = {fuzz_failed(3)};
  report.combined_fingerprint = std::string(64, 'b');
  fuzz_payload(codec::decode<GridReport>, codec::encode(report), 24);
}

TEST(PayloadFuzz, ReplayCellDecoderOnlyThrowsWireError) {
  detection::ReplayGridCell cell;
  cell.cell_index = 3;
  cell.points = {fuzz_point(1), fuzz_point(2)};
  fuzz_payload(codec::decode<detection::ReplayGridCell>, codec::encode(cell),
               25);
}

TEST(PayloadFuzz, ReplayReportDecoderOnlyThrowsWireError) {
  detection::ReplayGridReport report;
  report.points = {fuzz_point(1), fuzz_point(2)};
  report.failed_cells = {fuzz_failed(0), fuzz_failed(5)};
  report.fingerprint = std::string(64, 'c');
  fuzz_payload(codec::decode<detection::ReplayGridReport>,
               codec::encode(report), 26);
}

TEST(PayloadFuzz, TraceHeaderDecoderOnlyThrowsWireError) {
  trace_io::TraceHeader header;
  AttackPhase phase;
  phase.kind = AttackKind::AdaptiveTakedown;
  header.spec.attacks = {phase};
  header.spec.waves.waves = {{phase, kMinute, kMinute}};
  header.spec.churn.session.model = SessionModel::Pareto;
  header.initial_nodes = {0, 1, 2, 3};
  fuzz_payload(codec::decode<trace_io::TraceHeader>, codec::encode(header), 27);
}

TEST(PayloadFuzz, TraceFooterDecoderOnlyThrowsWireError) {
  trace_io::TraceFooter footer;
  footer.event_count = 10;
  footer.event_digest[0] = 0xab;
  fuzz_payload(codec::decode<trace_io::TraceFooter>, codec::encode(footer), 28);
}

}  // namespace
}  // namespace onion::scenario
