#include "core/messages.hpp"

#include "crypto/hmac.hpp"

namespace onion::core {

namespace {

/// The body of Ping: nothing past the kind byte.
struct PingMsg {
  static auto fields(auto&, auto&& v) { return v("PingMsg"); }
};

/// The body of Broadcast and ProbeChallenge: one uniform envelope.
struct EnvelopeMsg {
  Bytes envelope;
  static auto fields(auto& s, auto&& v) {
    return v("EnvelopeMsg", codec::str<2>("envelope", s.envelope));
  }
};

struct DirectCommandMsg {
  SignedCommand command;
  static auto fields(auto& s, auto&& v) {
    return v("DirectCommandMsg", codec::nested<2>("command", s.command));
  }
};

/// The kind byte, then the body.
template <typename M>
Bytes encode_kind(MessageKind kind, const M& body) {
  Bytes out;
  out.reserve(1 + codec::encoded_size(body));
  out.push_back(static_cast<std::uint8_t>(kind));
  codec::encode_into(out, body);
  return out;
}

/// Checks the kind byte, then decodes a body that must span the rest.
template <typename M>
M parse_kind(MessageKind kind, BytesView bytes) {
  if (bytes.empty() || bytes[0] != static_cast<std::uint8_t>(kind))
    throw WireError("unexpected message kind");
  return codec::decode<M>(bytes.subspan(1));
}

}  // namespace

bool SignedCommand::verify(const crypto::RsaPublicKey& master, SimTime now,
                           SimDuration max_age) const {
  // Freshness window: reject future-dated and stale commands.
  if (command.issued_at > now) return false;
  if (now - command.issued_at > max_age) return false;

  const Bytes body = command.serialize();
  if (!token) return crypto::rsa_verify(master, body, signature);

  // Rented command: master vouches for the token, token vouches for the
  // renter, renter vouches for the command.
  if (!token->verify(master, now)) return false;
  if (!token->allows(command.type)) return false;
  return crypto::rsa_verify(token->renter_key, body, signature);
}

SignedCommand sign_command(const crypto::RsaKeyPair& master, Command cmd) {
  SignedCommand out;
  out.command = std::move(cmd);
  out.signature = crypto::rsa_sign(master, out.command.serialize());
  return out;
}

SignedCommand sign_rented_command(const crypto::RsaKeyPair& renter,
                                  RentalToken token, Command cmd) {
  SignedCommand out;
  out.command = std::move(cmd);
  out.signature = crypto::rsa_sign(renter, out.command.serialize());
  out.token = std::move(token);
  return out;
}

Bytes encode_peer_request(const PeerRequestMsg& m) {
  return encode_kind(MessageKind::PeerRequest, m);
}

Bytes encode_peer_reply(const PeerReplyMsg& m) { return codec::encode(m); }

Bytes encode_peer_drop(const PeerDropMsg& m) {
  return encode_kind(MessageKind::PeerDrop, m);
}

Bytes encode_non_share(const NoNShareMsg& m) {
  return encode_kind(MessageKind::NoNShare, m);
}

Bytes encode_address_change(const AddressChangeMsg& m) {
  return encode_kind(MessageKind::AddressChange, m);
}

Bytes encode_ping() { return encode_kind(MessageKind::Ping, PingMsg{}); }

Bytes encode_broadcast(BytesView envelope) {
  return encode_kind(MessageKind::Broadcast,
                     EnvelopeMsg{Bytes(envelope.begin(), envelope.end())});
}

Bytes encode_direct_command(const SignedCommand& cmd) {
  return encode_kind(MessageKind::DirectCommand, DirectCommandMsg{cmd});
}

Bytes encode_probe(const ProbeMsg& m) {
  return encode_kind(MessageKind::Probe, m);
}

Bytes encode_probe_challenge(BytesView envelope) {
  return encode_kind(MessageKind::ProbeChallenge,
                     EnvelopeMsg{Bytes(envelope.begin(), envelope.end())});
}

MessageKind peek_kind(BytesView bytes) {
  if (bytes.empty()) throw WireError("empty message");
  const std::uint8_t raw = bytes[0];
  if (raw < static_cast<std::uint8_t>(MessageKind::PeerRequest) ||
      raw > static_cast<std::uint8_t>(MessageKind::ProbeChallenge))
    throw WireError("unknown message kind");
  return static_cast<MessageKind>(raw);
}

PeerRequestMsg parse_peer_request(BytesView bytes) {
  return parse_kind<PeerRequestMsg>(MessageKind::PeerRequest, bytes);
}

PeerReplyMsg parse_peer_reply(BytesView bytes) {
  return codec::decode<PeerReplyMsg>(bytes);
}

PeerDropMsg parse_peer_drop(BytesView bytes) {
  return parse_kind<PeerDropMsg>(MessageKind::PeerDrop, bytes);
}

NoNShareMsg parse_non_share(BytesView bytes) {
  return parse_kind<NoNShareMsg>(MessageKind::NoNShare, bytes);
}

AddressChangeMsg parse_address_change(BytesView bytes) {
  return parse_kind<AddressChangeMsg>(MessageKind::AddressChange, bytes);
}

Bytes parse_broadcast(BytesView bytes) {
  return parse_kind<EnvelopeMsg>(MessageKind::Broadcast, bytes).envelope;
}

SignedCommand parse_direct_command(BytesView bytes) {
  return parse_kind<DirectCommandMsg>(MessageKind::DirectCommand, bytes)
      .command;
}

ProbeMsg parse_probe(BytesView bytes) {
  return parse_kind<ProbeMsg>(MessageKind::Probe, bytes);
}

Bytes parse_probe_challenge(BytesView bytes) {
  return parse_kind<EnvelopeMsg>(MessageKind::ProbeChallenge, bytes).envelope;
}

Bytes probe_challenge_answer(BytesView group_key, BytesView nonce) {
  const crypto::Sha256Digest mac = crypto::hmac_sha256(group_key, nonce);
  return Bytes(mac.begin(), mac.begin() + 8);
}

}  // namespace onion::core
