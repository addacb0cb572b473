// Botnet-for-rent (paper §IV-E): the botmaster (Mallory) signs a token
// binding a renter's (Trudy's) public key to an expiration time and a
// whitelist of permitted commands. Bots verify a rented command by
// checking (1) the token's master signature, (2) token expiry, (3) the
// command type against the whitelist, and (4) the command signature under
// the renter key — a two-link chain of trust that needs no further
// botmaster involvement.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/codec.hpp"
#include "crypto/simrsa.hpp"

namespace onion::core {

/// Commands a bot can execute (paper §IV-A "Execution": DDoS, spam,
/// mining/computation; Recon covers maintenance queries).
enum class CommandType : std::uint8_t {
  Ping = 0,
  Ddos = 1,
  Spam = 2,
  Compute = 3,
  Recon = 4,
  /// Maintenance: installs a group key (paper §IV-D, "the botmaster can
  /// setup group keys to send encrypted messages for a group of bots").
  /// Argument: "<group-id-hex>:<key-hex>". Never rentable.
  InstallGroupKey = 5,
};

/// Human-readable command name.
const char* to_string(CommandType type);

/// The signed rental contract T_T = {PK_T, expiry, whitelist}_{SK_M}.
struct RentalToken {
  crypto::RsaPublicKey renter_key;
  /// Virtual expiration time (the contract term).
  SimTime expires_at = 0;
  /// Command types the renter may issue.
  std::vector<CommandType> whitelist;
  /// Master's signature over the fields above.
  crypto::RsaSignature master_signature = 0;

  /// The wire form: the renter key's three words, the expiry, a
  /// one-byte-counted whitelist of one-byte types, the signature.
  static auto fields(auto& s, auto&& v) {
    return v("RentalToken", codec::nested("renter_key", s.renter_key),
             codec::u64("expires_at", s.expires_at),
             codec::enum_u8s<CommandType::InstallGroupKey, 1>("whitelist",
                                                              s.whitelist),
             codec::u64("master_signature", s.master_signature));
  }

  /// Canonical bytes covered by the master signature: the wire form
  /// without its last field, the signature itself.
  Bytes signed_body() const;

  /// Master signature valid and not expired at `now`.
  bool verify(const crypto::RsaPublicKey& master, SimTime now) const;

  /// Whitelist admits `type`.
  bool allows(CommandType type) const;
};

/// Issues a token: Mallory signs Trudy's key with a term and whitelist.
RentalToken issue_rental_token(const crypto::RsaKeyPair& master,
                               const crypto::RsaPublicKey& renter,
                               SimTime expires_at,
                               std::vector<CommandType> whitelist);

}  // namespace onion::core
