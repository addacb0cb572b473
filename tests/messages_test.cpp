// Wire-format tests: the codec's narrow widths the bot protocol uses,
// round trips for every bot-layer message, strict decoding (every
// truncation and every appended byte is a WireError), and the
// SignedCommand verification chains (master-signed and rented).
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "crypto/kdf.hpp"

namespace onion::core {
namespace {

tor::OnionAddress addr_from_seed(std::uint64_t seed) {
  Rng rng(seed);
  return tor::OnionAddress::from_public_key(
      crypto::rsa_generate(rng, 1024).pub);
}

/// Every narrow width the bot protocol uses, in one struct.
struct Narrow {
  std::uint8_t small = 0;
  std::uint16_t medium = 0;
  std::uint64_t word = 0;
  bool flag = false;
  std::string text;
  Bytes blob;
  std::vector<tor::OnionAddress> peers;
  std::vector<CommandType> types;
  Command inner;
  std::optional<Command> maybe;
  static auto fields(auto& s, auto&& v) {
    return v("Narrow", codec::u8("small", s.small),
             codec::u16("medium", s.medium), codec::u64("word", s.word),
             codec::boolean<1>("flag", s.flag), codec::str<2>("text", s.text),
             codec::str<2>("blob", s.blob), codec::list<2>("peers", s.peers),
             codec::enum_u8s<CommandType::InstallGroupKey, 1>("types",
                                                              s.types),
             codec::nested<2>("inner", s.inner),
             codec::optional("maybe", s.maybe));
  }
};

Command small_command() {
  Command cmd;
  cmd.type = CommandType::Spam;
  cmd.argument = "x";
  cmd.issued_at = 9;
  cmd.nonce = 10;
  return cmd;
}

Narrow full_narrow() {
  Narrow n;
  n.small = 0xab;
  n.medium = 0x1234;
  n.word = 0x0102030405060708ULL;
  n.flag = true;
  n.text = "hello";
  n.blob = {1, 2, 3};
  n.peers = {addr_from_seed(11), addr_from_seed(12)};
  n.types = {CommandType::Ddos, CommandType::Recon};
  n.inner = small_command();
  n.maybe = small_command();
  return n;
}

/// The WireError message decoding `bytes` as a Narrow throws.
std::string narrow_error(const Bytes& bytes) {
  try {
    (void)codec::decode<Narrow>(bytes);
  } catch (const WireError& e) {
    return e.what();
  }
  ADD_FAILURE() << "decoded without a WireError";
  return {};
}

TEST(Wire, IntegersRoundTrip) {
  const Narrow n = full_narrow();
  const Bytes bytes = codec::encode(n);
  // Big-endian, at their own widths, right at the front.
  EXPECT_EQ(Bytes(bytes.begin(), bytes.begin() + 12),
            (Bytes{0xab, 0x12, 0x34, 1, 2, 3, 4, 5, 6, 7, 8, 1}));
  const Narrow out = codec::decode<Narrow>(bytes);
  EXPECT_EQ(out.small, 0xab);
  EXPECT_EQ(out.medium, 0x1234);
  EXPECT_EQ(out.word, 0x0102030405060708ULL);
  EXPECT_TRUE(out.flag);
  EXPECT_EQ(codec::encoded_size(n), bytes.size());
}

TEST(Wire, VarBytesAndStringsRoundTrip) {
  Narrow n;
  n.text = "hello";
  n.blob = {1, 2, 3};
  const Bytes bytes = codec::encode(n);
  EXPECT_EQ(Bytes(bytes.begin() + 12, bytes.begin() + 24),
            (Bytes{0, 5, 'h', 'e', 'l', 'l', 'o', 0, 3, 1, 2, 3}));
  const Narrow out = codec::decode<Narrow>(bytes);
  EXPECT_EQ(out.text, "hello");
  EXPECT_EQ(out.blob, (Bytes{1, 2, 3}));
  EXPECT_FALSE(out.maybe.has_value());
  n.text.clear();
  EXPECT_EQ(codec::decode<Narrow>(codec::encode(n)).text, "");
}

TEST(Wire, AddressRoundTrip) {
  const tor::OnionAddress a = addr_from_seed(1);
  const Bytes bytes = codec::encode(a);
  EXPECT_EQ(bytes, a.identifier_bytes());
  EXPECT_EQ(codec::decode<tor::OnionAddress>(bytes), a);

  const Narrow n = full_narrow();
  const Narrow out = codec::decode<Narrow>(codec::encode(n));
  EXPECT_EQ(out.peers, n.peers);
  EXPECT_EQ(out.types, n.types);
  EXPECT_EQ(out.inner.argument, "x");
  ASSERT_TRUE(out.maybe.has_value());
  EXPECT_EQ(out.maybe->nonce, 10u);
}

TEST(Wire, TruncatedInputThrows) {
  const Bytes bytes = codec::encode(full_narrow());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::string what = narrow_error(
        Bytes(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len)));
    EXPECT_EQ(what.rfind("Narrow.", 0), 0u) << len << ": " << what;
  }
  Bytes longer = bytes;
  longer.push_back(0);
  EXPECT_NE(narrow_error(longer).find("1 trailing bytes"), std::string::npos);
}

TEST(Wire, VarBytesLengthBeyondBufferThrows) {
  Narrow n;
  const Bytes empty = codec::encode(n);
  // Offsets of the 16-bit prefixes of text, blob and peers, and of the
  // one-byte count of types, in an all-empty Narrow.
  const std::pair<std::size_t, const char*> prefixes[] = {
      {12, "Narrow.text"}, {14, "Narrow.blob"}, {16, "Narrow.peers"}};
  for (const auto& [offset, field] : prefixes) {
    Bytes bad = empty;
    bad[offset] = 0x03;  // claims 768+ bytes (or entries) follow
    EXPECT_NE(narrow_error(bad).find(field), std::string::npos) << field;
  }
  Bytes bad = empty;
  bad[18] = 200;  // 200 one-byte types
  EXPECT_NE(narrow_error(bad).find("Narrow.types: count 200"),
            std::string::npos);
  // The nested command's length (at 19, after the empty lists) must be
  // consumed exactly: one byte more takes in the optional's flag.
  n.inner = small_command();
  bad = codec::encode(n);
  ++bad[20];
  EXPECT_NE(narrow_error(bad).find("Narrow.inner: 1 trailing bytes"),
            std::string::npos);
}

TEST(Wire, EncodingPastTheWidthFailsItsPrecondition) {
  Narrow n;
  n.blob.assign(std::size_t{1} << 16, 0);
  EXPECT_THROW((void)codec::encode(n), ContractViolation);
  n.blob.pop_back();
  EXPECT_EQ(codec::decode<Narrow>(codec::encode(n)).blob.size(), 0xffffu);
  n = Narrow{};
  n.peers.resize(std::size_t{1} << 16);
  EXPECT_THROW((void)codec::encode(n), ContractViolation);
  n = Narrow{};
  n.types.assign(256, CommandType::Ping);
  EXPECT_THROW((void)codec::encode(n), ContractViolation);
  EXPECT_THROW((void)encode_broadcast(Bytes(std::size_t{1} << 16, 0)),
               ContractViolation);
}

TEST(Messages, PeerRequestRoundTrip) {
  PeerRequestMsg m;
  m.from = addr_from_seed(2);
  m.declared_degree = 7;
  const Bytes bytes = encode_peer_request(m);
  EXPECT_EQ(peek_kind(bytes), MessageKind::PeerRequest);
  const PeerRequestMsg out = parse_peer_request(bytes);
  EXPECT_EQ(out.from, m.from);
  EXPECT_EQ(out.declared_degree, 7);
}

TEST(Messages, PeerReplyRoundTrip) {
  PeerReplyMsg m;
  m.accepted = true;
  m.declared_degree = 4;
  m.neighbors = {addr_from_seed(3), addr_from_seed(4)};
  const PeerReplyMsg out = parse_peer_reply(encode_peer_reply(m));
  EXPECT_TRUE(out.accepted);
  EXPECT_EQ(out.declared_degree, 4);
  EXPECT_EQ(out.neighbors, m.neighbors);
}

TEST(Messages, NoNShareRoundTrip) {
  NoNShareMsg m;
  m.from = addr_from_seed(5);
  m.neighbors = {addr_from_seed(6), addr_from_seed(7), addr_from_seed(8)};
  m.declared_degree = 3;
  const NoNShareMsg out = parse_non_share(encode_non_share(m));
  EXPECT_EQ(out.from, m.from);
  EXPECT_EQ(out.neighbors, m.neighbors);
  EXPECT_EQ(out.declared_degree, 3);
}

TEST(Messages, AddressChangeRoundTrip) {
  AddressChangeMsg m;
  m.old_address = addr_from_seed(9);
  m.new_address = addr_from_seed(10);
  const AddressChangeMsg out =
      parse_address_change(encode_address_change(m));
  EXPECT_EQ(out.old_address, m.old_address);
  EXPECT_EQ(out.new_address, m.new_address);
}

TEST(Messages, ProbeRoundTrip) {
  ProbeMsg m;
  m.probe_id = 0xdeadbeef;
  m.ttl = 6;
  const ProbeMsg out = parse_probe(encode_probe(m));
  EXPECT_EQ(out.probe_id, 0xdeadbeefu);
  EXPECT_EQ(out.ttl, 6);
}

TEST(Messages, BroadcastRoundTrip) {
  const Bytes envelope(512, 0x42);
  EXPECT_EQ(parse_broadcast(encode_broadcast(envelope)), envelope);
}

/// Every bot-layer decoder, each with one valid message.
struct ParserCase {
  const char* name;
  Bytes valid;
  std::function<void(BytesView)> parse;
  /// False for the two encodings without a MessageKind byte.
  bool kinded = true;
};

std::vector<ParserCase> every_parser() {
  Rng rng(31);
  const crypto::RsaKeyPair master = crypto::rsa_generate(rng, 1024);
  const crypto::RsaKeyPair renter = crypto::rsa_generate(rng, 1024);
  const SignedCommand plain = sign_command(master, small_command());
  const SignedCommand rented = sign_rented_command(
      renter,
      issue_rental_token(master, renter.pub, kHour, {CommandType::Spam}),
      small_command());
  return {
      {"peer_request", encode_peer_request({addr_from_seed(2), 7}),
       [](BytesView b) { (void)parse_peer_request(b); }},
      {"peer_reply", encode_peer_reply({true, 4, {addr_from_seed(3)}}),
       [](BytesView b) { (void)parse_peer_reply(b); }, false},
      {"peer_reply_empty", encode_peer_reply({false, 4, {}}),
       [](BytesView b) { (void)parse_peer_reply(b); }, false},
      {"peer_drop", encode_peer_drop({addr_from_seed(4)}),
       [](BytesView b) { (void)parse_peer_drop(b); }},
      {"non_share",
       encode_non_share({addr_from_seed(5), {addr_from_seed(6)}, 1}),
       [](BytesView b) { (void)parse_non_share(b); }},
      {"address_change",
       encode_address_change({addr_from_seed(7), addr_from_seed(8)}),
       [](BytesView b) { (void)parse_address_change(b); }},
      {"broadcast", encode_broadcast(Bytes(40, 0x42)),
       [](BytesView b) { (void)parse_broadcast(b); }},
      {"direct_command", encode_direct_command(plain),
       [](BytesView b) { (void)parse_direct_command(b); }},
      {"direct_command_rented", encode_direct_command(rented),
       [](BytesView b) { (void)parse_direct_command(b); }},
      {"probe", encode_probe({99, 3}),
       [](BytesView b) { (void)parse_probe(b); }},
      {"probe_challenge", encode_probe_challenge(Bytes(24, 0x17)),
       [](BytesView b) { (void)parse_probe_challenge(b); }},
      {"signed_command", plain.serialize(),
       [](BytesView b) { (void)SignedCommand::parse(b); }, false},
      {"signed_command_rented", rented.serialize(),
       [](BytesView b) { (void)SignedCommand::parse(b); }, false},
  };
}

TEST(StrictDecoding, EveryParserAcceptsItsValidMessage) {
  for (const ParserCase& c : every_parser())
    EXPECT_NO_THROW(c.parse(c.valid)) << c.name;
}

TEST(StrictDecoding, EveryParserRejectsOneAppendedByte) {
  for (const ParserCase& c : every_parser()) {
    for (const std::uint8_t extra : {0x00, 0x01, 0xff}) {
      Bytes longer = c.valid;
      longer.push_back(extra);
      EXPECT_THROW(c.parse(longer), WireError) << c.name << " + " << +extra;
    }
  }
}

TEST(StrictDecoding, EveryParserRejectsEveryStrictPrefix) {
  for (const ParserCase& c : every_parser()) {
    for (std::size_t len = 0; len < c.valid.size(); ++len)
      EXPECT_THROW(c.parse(BytesView(c.valid).first(len)), WireError)
          << c.name << " cut to " << len;
  }
}

TEST(StrictDecoding, EveryKindedParserRejectsEveryOtherKindByte) {
  for (const ParserCase& c : every_parser()) {
    if (!c.kinded) continue;
    for (int kind = 0; kind < 256; ++kind) {
      if (kind == c.valid[0]) continue;
      Bytes other = c.valid;
      other[0] = static_cast<std::uint8_t>(kind);
      EXPECT_THROW(c.parse(other), WireError) << c.name << " as kind " << kind;
    }
  }
}

TEST(StrictDecoding, FailuresNameTheFieldPath) {
  Bytes reply = encode_peer_reply({true, 4, {addr_from_seed(3)}});
  reply.pop_back();
  try {
    (void)parse_peer_reply(reply);
    ADD_FAILURE() << "decoded a truncated reply";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("PeerReplyMsg.neighbors"),
              std::string::npos)
        << e.what();
  }
  Bytes request = encode_peer_request({addr_from_seed(2), 7});
  request.push_back(0);
  try {
    (void)parse_peer_request(request);
    ADD_FAILURE() << "decoded a request with a trailing byte";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("PeerRequestMsg: 1 trailing bytes"),
              std::string::npos)
        << e.what();
  }
}

TEST(Messages, PeekKindRejectsGarbage) {
  EXPECT_THROW(peek_kind(Bytes{}), WireError);
  EXPECT_THROW(peek_kind(Bytes{0xff}), WireError);
  EXPECT_THROW(peek_kind(Bytes{0x00}), WireError);
}

TEST(Messages, WrongKindRejected) {
  const Bytes ping = encode_ping();
  EXPECT_THROW(parse_peer_request(ping), WireError);
  EXPECT_THROW(parse_broadcast(ping), WireError);
}

TEST(Messages, CommandRoundTrip) {
  Command cmd;
  cmd.type = CommandType::Ddos;
  cmd.argument = "example.com";
  cmd.issued_at = 123456;
  cmd.nonce = 999;
  const Command out = codec::decode<Command>(cmd.serialize());
  EXPECT_EQ(out.type, CommandType::Ddos);
  EXPECT_EQ(out.argument, "example.com");
  EXPECT_EQ(out.issued_at, 123456u);
  EXPECT_EQ(out.nonce, 999u);
}

TEST(Messages, CommandRejectsUnknownType) {
  Command cmd;
  Bytes bytes = cmd.serialize();
  bytes[0] = 200;  // not a CommandType
  EXPECT_THROW((void)codec::decode<Command>(bytes), WireError);
}

struct SignedCommandFixture : ::testing::Test {
  Rng rng{77};
  crypto::RsaKeyPair master = crypto::rsa_generate(rng, 2048);
  crypto::RsaKeyPair renter = crypto::rsa_generate(rng, 2048);

  Command make_cmd(CommandType type, SimTime at) {
    Command cmd;
    cmd.type = type;
    cmd.argument = "arg";
    cmd.issued_at = at;
    cmd.nonce = rng.next_u64();
    return cmd;
  }
};

TEST_F(SignedCommandFixture, MasterSignedVerifies) {
  const SignedCommand sc =
      sign_command(master, make_cmd(CommandType::Spam, 1000));
  EXPECT_TRUE(sc.verify(master.pub, 2000, kHour));
}

TEST_F(SignedCommandFixture, SerializationRoundTrip) {
  const SignedCommand sc =
      sign_command(master, make_cmd(CommandType::Compute, 500));
  const SignedCommand out = SignedCommand::parse(sc.serialize());
  EXPECT_EQ(out.command.type, CommandType::Compute);
  EXPECT_EQ(out.signature, sc.signature);
  EXPECT_FALSE(out.token.has_value());
  EXPECT_TRUE(out.verify(master.pub, 600, kHour));
}

TEST_F(SignedCommandFixture, TamperedCommandFails) {
  SignedCommand sc = sign_command(master, make_cmd(CommandType::Ddos, 0));
  sc.command.argument = "evil.example";
  EXPECT_FALSE(sc.verify(master.pub, 1, kHour));
}

TEST_F(SignedCommandFixture, WrongKeyFails) {
  const SignedCommand sc =
      sign_command(renter, make_cmd(CommandType::Ddos, 0));
  EXPECT_FALSE(sc.verify(master.pub, 1, kHour));
}

TEST_F(SignedCommandFixture, StaleCommandRejected) {
  const SignedCommand sc =
      sign_command(master, make_cmd(CommandType::Ping, 1000));
  EXPECT_TRUE(sc.verify(master.pub, 1000 + kHour, kHour));
  EXPECT_FALSE(sc.verify(master.pub, 1001 + kHour, kHour))
      << "past the freshness window";
}

TEST_F(SignedCommandFixture, FutureDatedCommandRejected) {
  const SignedCommand sc =
      sign_command(master, make_cmd(CommandType::Ping, 5000));
  EXPECT_FALSE(sc.verify(master.pub, 4000, kHour));
}

TEST_F(SignedCommandFixture, RentedCommandFullChainVerifies) {
  const RentalToken token = issue_rental_token(
      master, renter.pub, /*expires_at=*/10 * kHour,
      {CommandType::Spam, CommandType::Compute});
  const SignedCommand sc = sign_rented_command(
      renter, token, make_cmd(CommandType::Spam, 1000));
  EXPECT_TRUE(sc.verify(master.pub, 2000, kHour));

  const SignedCommand reparsed = SignedCommand::parse(sc.serialize());
  ASSERT_TRUE(reparsed.token.has_value());
  EXPECT_TRUE(reparsed.verify(master.pub, 2000, kHour));
}

TEST_F(SignedCommandFixture, RentedCommandOutsideWhitelistRejected) {
  const RentalToken token = issue_rental_token(
      master, renter.pub, 10 * kHour, {CommandType::Spam});
  const SignedCommand sc = sign_rented_command(
      renter, token, make_cmd(CommandType::Ddos, 1000));
  EXPECT_FALSE(sc.verify(master.pub, 2000, kHour))
      << "DDoS not in the rental whitelist";
}

TEST_F(SignedCommandFixture, RentedCommandAfterExpiryRejected) {
  const RentalToken token = issue_rental_token(
      master, renter.pub, /*expires_at=*/2 * kHour, {CommandType::Spam});
  const SignedCommand sc = sign_rented_command(
      renter, token, make_cmd(CommandType::Spam, 2 * kHour + 1));
  EXPECT_FALSE(sc.verify(master.pub, 2 * kHour + 2, kHour));
}

TEST_F(SignedCommandFixture, RenterCannotSelfIssueToken) {
  RentalToken fake;
  fake.renter_key = renter.pub;
  fake.expires_at = 100 * kHour;
  fake.whitelist = {CommandType::Ddos};
  fake.master_signature = crypto::rsa_sign(renter, fake.signed_body());
  const SignedCommand sc = sign_rented_command(
      renter, fake, make_cmd(CommandType::Ddos, 1000));
  EXPECT_FALSE(sc.verify(master.pub, 2000, kHour))
      << "token must be signed by the master key";
}

}  // namespace
}  // namespace onion::core
