// Botnet-for-rent token tests (paper §IV-E): issuance, the master
// signature chain, expiry, whitelists, serialization, tampering.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/rental.hpp"

namespace onion::core {
namespace {

struct RentalFixture : ::testing::Test {
  Rng rng{55};
  crypto::RsaKeyPair mallory = crypto::rsa_generate(rng, 2048);  // master
  crypto::RsaKeyPair trudy = crypto::rsa_generate(rng, 2048);    // renter
};

TEST_F(RentalFixture, IssuedTokenVerifies) {
  const RentalToken token = issue_rental_token(
      mallory, trudy.pub, 5 * kHour, {CommandType::Spam});
  EXPECT_TRUE(token.verify(mallory.pub, kHour));
}

TEST_F(RentalFixture, ExpiryEnforced) {
  const RentalToken token = issue_rental_token(
      mallory, trudy.pub, 5 * kHour, {CommandType::Spam});
  EXPECT_TRUE(token.verify(mallory.pub, 5 * kHour - 1));
  EXPECT_FALSE(token.verify(mallory.pub, 5 * kHour));
  EXPECT_FALSE(token.verify(mallory.pub, 6 * kHour));
}

TEST_F(RentalFixture, WhitelistSemantics) {
  const RentalToken token = issue_rental_token(
      mallory, trudy.pub, kHour,
      {CommandType::Spam, CommandType::Compute});
  EXPECT_TRUE(token.allows(CommandType::Spam));
  EXPECT_TRUE(token.allows(CommandType::Compute));
  EXPECT_FALSE(token.allows(CommandType::Ddos));
  EXPECT_FALSE(token.allows(CommandType::Ping));
}

TEST_F(RentalFixture, EmptyWhitelistAllowsNothing) {
  const RentalToken token =
      issue_rental_token(mallory, trudy.pub, kHour, {});
  EXPECT_FALSE(token.allows(CommandType::Ping));
}

TEST_F(RentalFixture, TamperedFieldsBreakSignature) {
  RentalToken token = issue_rental_token(mallory, trudy.pub, kHour,
                                         {CommandType::Spam});
  {
    RentalToken t = token;
    t.expires_at = 100 * kHour;  // extend the contract term
    EXPECT_FALSE(t.verify(mallory.pub, kMinute));
  }
  {
    RentalToken t = token;
    t.whitelist.push_back(CommandType::Ddos);  // widen permissions
    EXPECT_FALSE(t.verify(mallory.pub, kMinute));
  }
  {
    RentalToken t = token;
    Rng other(56);
    t.renter_key = crypto::rsa_generate(other, 2048).pub;  // steal token
    EXPECT_FALSE(t.verify(mallory.pub, kMinute));
  }
}

TEST_F(RentalFixture, WrongMasterKeyRejected) {
  Rng other(57);
  const crypto::RsaKeyPair impostor = crypto::rsa_generate(other, 2048);
  const RentalToken token = issue_rental_token(
      impostor, trudy.pub, kHour, {CommandType::Spam});
  EXPECT_FALSE(token.verify(mallory.pub, kMinute))
      << "bots check against the hard-coded master key";
}

TEST_F(RentalFixture, SerializationRoundTrip) {
  const RentalToken token = issue_rental_token(
      mallory, trudy.pub, 3 * kHour,
      {CommandType::Spam, CommandType::Recon});
  const RentalToken out = codec::decode<RentalToken>(codec::encode(token));
  EXPECT_EQ(out.renter_key, token.renter_key);
  EXPECT_EQ(out.expires_at, token.expires_at);
  EXPECT_EQ(out.whitelist, token.whitelist);
  EXPECT_EQ(out.master_signature, token.master_signature);
  EXPECT_TRUE(out.verify(mallory.pub, kMinute));
}

TEST_F(RentalFixture, ParseRejectsUnknownCommandType) {
  RentalToken token = issue_rental_token(mallory, trudy.pub, kHour,
                                         {CommandType::Spam});
  Bytes bytes = codec::encode(token);
  // Whitelist entry byte sits after 3 u64 key fields + u64 expiry + count.
  bytes[8 * 4 + 1] = 99;
  EXPECT_THROW((void)codec::decode<RentalToken>(bytes), codec::WireError);
}

TEST_F(RentalFixture, SignedBodyIsTheWireFormWithoutTheSignature) {
  const RentalToken token = issue_rental_token(
      mallory, trudy.pub, 3 * kHour, {CommandType::Spam, CommandType::Ddos});
  const Bytes wire = codec::encode(token);
  const Bytes body = token.signed_body();
  ASSERT_EQ(body.size() + 8, wire.size());
  EXPECT_TRUE(std::equal(body.begin(), body.end(), wire.begin()));
  EXPECT_EQ(Bytes(body.begin(), body.begin() + 24), trudy.pub.serialize());
}

TEST(CommandTypeNames, AllNamed) {
  EXPECT_STREQ(to_string(CommandType::Ping), "ping");
  EXPECT_STREQ(to_string(CommandType::Ddos), "ddos");
  EXPECT_STREQ(to_string(CommandType::Spam), "spam");
  EXPECT_STREQ(to_string(CommandType::Compute), "compute");
  EXPECT_STREQ(to_string(CommandType::Recon), "recon");
}

}  // namespace
}  // namespace onion::core
