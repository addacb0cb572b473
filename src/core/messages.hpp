// Bot-layer protocol messages (paper §IV-D). Two planes:
//
//   Control plane (bot <-> bot over Tor rendezvous channels): peering,
//   NoN exchange, address-change notices, liveness pings. Confidential
//   to the pair by the Tor substrate itself.
//
//   Command plane (C&C -> bots): signed commands. Direct commands ride a
//   Tor connection straight to the target bot's current .onion address;
//   broadcast commands are flood-relayed bot-to-bot as fixed-size,
//   uniform-looking envelopes (crypto::uniform_encode under the group
//   key), so relaying bots cannot tell source, destination, or nature —
//   and neither can an authority running captured bots.
//
// Every message body declares its layout once, as a codec fields() list
// (common/codec.hpp) in the protocol's narrow widths: 1- and 2-byte
// integers, 16-bit lengths and counts. A 1-byte MessageKind leads every
// message except PeerReply, which answers a PeerRequest on the same
// channel. Decoders reject truncation, trailing bytes and unknown
// enumerators with a WireError naming the field.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/codec.hpp"
#include "core/rental.hpp"
#include "crypto/simrsa.hpp"
#include "tor/onion_address.hpp"

namespace onion::core {

/// Malformed wire data (distinct from logic errors: peers may be hostile).
using codec::WireError;

/// Wire discriminator for bot-layer messages.
enum class MessageKind : std::uint8_t {
  PeerRequest = 1,
  PeerDrop = 2,
  NoNShare = 3,
  AddressChange = 4,
  Ping = 5,
  Broadcast = 6,
  DirectCommand = 7,
  Probe = 8,  // SuperOnion connectivity probe (paper §VII-B)
  /// Keyed liveness challenge (paper §VII-A "probing" defense): a
  /// uniform envelope under the group key holding a fresh nonce. Honest
  /// peers answer HMAC(group-key, nonce); a defender's clone can
  /// neither read the nonce nor — legally — operate the botnet's crypto
  /// to answer, so its reply unmasks it.
  ProbeChallenge = 9,
};

/// A command from the botmaster (or a renter).
struct Command {
  CommandType type = CommandType::Ping;
  /// Free-form argument (e.g. DDoS target).
  std::string argument;
  /// Virtual issue time; bots reject stale commands (replay defense).
  SimTime issued_at = 0;
  /// Random nonce; bots remember recent nonces (replay defense).
  std::uint64_t nonce = 0;

  /// The bytes every signature covers.
  Bytes serialize() const { return codec::encode(*this); }
  static auto fields(auto& s, auto&& v) {
    return v("Command",
             codec::enum_u8<CommandType::InstallGroupKey>("type", s.type),
             codec::str<2>("argument", s.argument),
             codec::u64("issued_at", s.issued_at),
             codec::u64("nonce", s.nonce));
  }
};

/// A command plus its authentication: master-signed, or renter-signed
/// with a master-issued rental token.
struct SignedCommand {
  Command command;
  crypto::RsaSignature signature = 0;
  std::optional<RentalToken> token;

  Bytes serialize() const { return codec::encode(*this); }
  static SignedCommand parse(BytesView bytes) {
    return codec::decode<SignedCommand>(bytes);
  }
  static auto fields(auto& s, auto&& v) {
    return v("SignedCommand", codec::nested<2>("command", s.command),
             codec::u64("signature", s.signature),
             codec::optional("token", s.token));
  }

  /// Verifies the chain of trust at time `now`: direct master signature,
  /// or valid unexpired token whose whitelist admits the command type and
  /// whose renter key signed the command. `max_age` bounds staleness.
  bool verify(const crypto::RsaPublicKey& master, SimTime now,
              SimDuration max_age) const;
};

/// Signs a command with the master key (no token).
SignedCommand sign_command(const crypto::RsaKeyPair& master, Command cmd);

/// Signs a command with a renter key, attaching the rental token.
SignedCommand sign_rented_command(const crypto::RsaKeyPair& renter,
                                  RentalToken token, Command cmd);

/// --- control-plane message bodies ------------------------------------

struct PeerRequestMsg {
  tor::OnionAddress from;
  std::uint16_t declared_degree = 0;
  static auto fields(auto& s, auto&& v) {
    return v("PeerRequestMsg", codec::nested("from", s.from),
             codec::u16("declared_degree", s.declared_degree));
  }
};

struct PeerReplyMsg {
  bool accepted = false;
  std::uint16_t declared_degree = 0;
  /// On accept, the responder shares its neighbor list — the NoN
  /// knowledge that powers DDSR repair (and that SOAP harvests).
  std::vector<tor::OnionAddress> neighbors;
  static auto fields(auto& s, auto&& v) {
    return v("PeerReplyMsg", codec::boolean<1>("accepted", s.accepted),
             codec::u16("declared_degree", s.declared_degree),
             codec::list<2>("neighbors", s.neighbors));
  }
};

struct PeerDropMsg {
  tor::OnionAddress from;
  static auto fields(auto& s, auto&& v) {
    return v("PeerDropMsg", codec::nested("from", s.from));
  }
};

struct NoNShareMsg {
  tor::OnionAddress from;
  std::vector<tor::OnionAddress> neighbors;
  std::uint16_t declared_degree = 0;
  static auto fields(auto& s, auto&& v) {
    return v("NoNShareMsg", codec::nested("from", s.from),
             codec::list<2>("neighbors", s.neighbors),
             codec::u16("declared_degree", s.declared_degree));
  }
};

struct AddressChangeMsg {
  tor::OnionAddress old_address;
  tor::OnionAddress new_address;
  static auto fields(auto& s, auto&& v) {
    return v("AddressChangeMsg", codec::nested("old_address", s.old_address),
             codec::nested("new_address", s.new_address));
  }
};

struct ProbeMsg {
  std::uint64_t probe_id = 0;
  std::uint8_t ttl = 0;
  static auto fields(auto& s, auto&& v) {
    return v("ProbeMsg", codec::u64("probe_id", s.probe_id),
             codec::u8("ttl", s.ttl));
  }
};

/// Top-level encode/decode: 1-byte kind + body (PeerReply: body only).
/// Broadcast and ProbeChallenge bodies are one 16-bit-length envelope;
/// a DirectCommand body is the SignedCommand after a 16-bit length.
Bytes encode_peer_request(const PeerRequestMsg& m);
Bytes encode_peer_reply(const PeerReplyMsg& m);
Bytes encode_peer_drop(const PeerDropMsg& m);
Bytes encode_non_share(const NoNShareMsg& m);
Bytes encode_address_change(const AddressChangeMsg& m);
Bytes encode_ping();
Bytes encode_broadcast(BytesView envelope);
Bytes encode_direct_command(const SignedCommand& cmd);
Bytes encode_probe(const ProbeMsg& m);
Bytes encode_probe_challenge(BytesView envelope);

/// Peeks the kind byte; throws WireError on empty input.
MessageKind peek_kind(BytesView bytes);

PeerRequestMsg parse_peer_request(BytesView bytes);
PeerReplyMsg parse_peer_reply(BytesView bytes);
PeerDropMsg parse_peer_drop(BytesView bytes);
NoNShareMsg parse_non_share(BytesView bytes);
AddressChangeMsg parse_address_change(BytesView bytes);
Bytes parse_broadcast(BytesView bytes);
SignedCommand parse_direct_command(BytesView bytes);
ProbeMsg parse_probe(BytesView bytes);
Bytes parse_probe_challenge(BytesView bytes);

/// The answer an honest bot computes for a challenge nonce: the first 8
/// bytes of HMAC(group_key, nonce). Both sides call this.
Bytes probe_challenge_answer(BytesView group_key, BytesView nonce);

}  // namespace onion::core
