#include "core/rental.hpp"

#include <algorithm>

namespace onion::core {

const char* to_string(CommandType type) {
  switch (type) {
    case CommandType::Ping:
      return "ping";
    case CommandType::Ddos:
      return "ddos";
    case CommandType::Spam:
      return "spam";
    case CommandType::Compute:
      return "compute";
    case CommandType::Recon:
      return "recon";
    case CommandType::InstallGroupKey:
      return "install-group-key";
  }
  return "unknown";
}

Bytes RentalToken::signed_body() const {
  Bytes body = codec::encode(*this);
  body.resize(body.size() - sizeof(master_signature));
  return body;
}

bool RentalToken::verify(const crypto::RsaPublicKey& master,
                         SimTime now) const {
  if (now >= expires_at) return false;
  return crypto::rsa_verify(master, signed_body(), master_signature);
}

bool RentalToken::allows(CommandType type) const {
  // Key management is never rentable, whatever the whitelist says: a
  // renter who could install group keys could hijack the subgroup
  // channel outright.
  if (type == CommandType::InstallGroupKey) return false;
  return std::find(whitelist.begin(), whitelist.end(), type) !=
         whitelist.end();
}

RentalToken issue_rental_token(const crypto::RsaKeyPair& master,
                               const crypto::RsaPublicKey& renter,
                               SimTime expires_at,
                               std::vector<CommandType> whitelist) {
  RentalToken token;
  token.renter_key = renter;
  token.expires_at = expires_at;
  token.whitelist = std::move(whitelist);
  token.master_signature = crypto::rsa_sign(master, token.signed_body());
  return token;
}

}  // namespace onion::core
