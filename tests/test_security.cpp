// Context-beacon encryption (paper §3.4): cipher soundness, and the
// middleware-level guarantee that unprovisioned devices learn nothing.
#include <gtest/gtest.h>

#include "net/testbed.h"
#include "omni/omni_node.h"
#include "omni/security.h"

namespace omni {
namespace {

Bytes key_bytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(BeaconCipherTest, SealOpenRoundTrip) {
  BeaconCipher cipher(key_bytes("tour-group-42"));
  Bytes plain{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  Bytes sealed = cipher.seal(plain, 1);
  EXPECT_EQ(sealed.size(), plain.size() + kSealOverhead);
  EXPECT_TRUE(BeaconCipher::looks_sealed(sealed));
  auto opened = cipher.open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plain);
}

TEST(BeaconCipherTest, EmptyPlaintext) {
  BeaconCipher cipher(key_bytes("k"));
  Bytes sealed = cipher.seal(Bytes{}, 7);
  auto opened = cipher.open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST(BeaconCipherTest, CiphertextDiffersFromPlaintext) {
  BeaconCipher cipher(key_bytes("key"));
  Bytes plain(64, 0x00);
  Bytes sealed = cipher.seal(plain, 1);
  // The ciphertext body must not be the plaintext.
  Bytes body(sealed.begin() + kSealOverhead, sealed.end());
  EXPECT_NE(body, plain);
}

TEST(BeaconCipherTest, DistinctNoncesGiveDistinctCiphertexts) {
  BeaconCipher cipher(key_bytes("key"));
  Bytes plain{9, 9, 9, 9};
  Bytes a = cipher.seal(plain, 1);
  Bytes b = cipher.seal(plain, 2);
  EXPECT_NE(a, b);
  EXPECT_EQ(*cipher.open(a), *cipher.open(b));
}

TEST(BeaconCipherTest, WrongKeyFails) {
  BeaconCipher alice(key_bytes("alice"));
  BeaconCipher eve(key_bytes("eve"));
  Bytes sealed = alice.seal(Bytes{1, 2, 3}, 1);
  EXPECT_FALSE(eve.open(sealed).has_value());
}

TEST(BeaconCipherTest, TamperingDetected) {
  BeaconCipher cipher(key_bytes("key"));
  Bytes sealed = cipher.seal(Bytes{1, 2, 3, 4}, 1);
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    Bytes tampered = sealed;
    tampered[i] ^= 0x01;
    if (i == 0) {
      // Marker flips make it not-a-sealed-packet at all.
      EXPECT_FALSE(BeaconCipher::looks_sealed(tampered));
    } else {
      EXPECT_FALSE(cipher.open(tampered).has_value()) << "byte " << i;
    }
  }
}

TEST(BeaconCipherTest, MalformedInputRejected) {
  BeaconCipher cipher(key_bytes("key"));
  EXPECT_FALSE(cipher.open(Bytes{}).has_value());
  EXPECT_FALSE(cipher.open(Bytes{kSealedPacketMarker, 1, 2}).has_value());
  EXPECT_FALSE(cipher.open(Bytes{0x01, 0x02}).has_value());
}

class SecureOmniTest : public ::testing::Test {
 protected:
  SecureOmniTest() {
    // Sealed beacons exceed the legacy 31-byte advertisement, so encrypted
    // deployments rely on Bluetooth 5 extended advertising — the paper's
    // future-work item made necessary by its own §3.4.
    radio::Calibration cal = radio::Calibration::defaults();
    cal.ble_extended_advertising = true;
    bed = std::make_unique<net::Testbed>(83, cal);
  }

  OmniNodeOptions keyed_options(const std::string& key) {
    OmniNodeOptions options;
    options.manager.context_key = key_bytes(key);
    return options;
  }

  std::unique_ptr<net::Testbed> bed;
};

TEST_F(SecureOmniTest, SharedKeyDevicesInteroperate) {
  auto& da = bed->add_device("a", {0, 0});
  auto& db = bed->add_device("b", {10, 0});
  OmniNode a(da, bed->mesh(), keyed_options("tour-42"));
  OmniNode b(db, bed->mesh(), keyed_options("tour-42"));
  Bytes context_seen;
  b.manager().request_context(
      [&](const OmniAddress&, const Bytes& c) { context_seen = c; });
  a.start();
  b.start();
  a.manager().add_context(ContextParams{}, Bytes{0x42}, nullptr);
  bed->simulator().run_for(Duration::seconds(3));
  EXPECT_NE(a.manager().peer_table().find(b.address()), nullptr);
  EXPECT_EQ(context_seen, (Bytes{0x42}));

  // Data still flows (the TCP path rides the discovered mapping).
  Bytes data_seen;
  b.manager().request_data(
      [&](const OmniAddress&, BytesView d) {
        data_seen.assign(d.begin(), d.end());
      });
  a.manager().send_data({b.address()}, Bytes{0x99}, nullptr);
  bed->simulator().run_for(Duration::seconds(1));
  EXPECT_EQ(data_seen, (Bytes{0x99}));
}

TEST_F(SecureOmniTest, UnprovisionedDeviceLearnsNothing) {
  auto& da = bed->add_device("a", {0, 0});
  auto& db = bed->add_device("b", {10, 0});
  auto& de = bed->add_device("eve", {5, 0});
  OmniNode a(da, bed->mesh(), keyed_options("tour-42"));
  OmniNode b(db, bed->mesh(), keyed_options("tour-42"));
  OmniNode eve(de, bed->mesh());  // no key
  a.start();
  b.start();
  eve.start();
  bed->simulator().run_for(Duration::seconds(5));
  // a and b see each other; eve sees neither (all their beacons are
  // sealed), though they see eve's plaintext beacons.
  EXPECT_NE(a.manager().peer_table().find(b.address()), nullptr);
  EXPECT_EQ(eve.manager().peer_table().find(a.address()), nullptr);
  EXPECT_EQ(eve.manager().peer_table().find(b.address()), nullptr);
  EXPECT_GT(eve.manager().stats().sealed_drops, 0u);
  EXPECT_NE(a.manager().peer_table().find(eve.address()), nullptr);
}

TEST_F(SecureOmniTest, WrongKeyDeviceDropsEverything) {
  auto& da = bed->add_device("a", {0, 0});
  auto& dm = bed->add_device("mallory", {5, 0});
  OmniNode a(da, bed->mesh(), keyed_options("tour-42"));
  OmniNode mallory(dm, bed->mesh(), keyed_options("tour-43"));
  a.start();
  mallory.start();
  bed->simulator().run_for(Duration::seconds(5));
  EXPECT_EQ(mallory.manager().peer_table().find(a.address()), nullptr);
  EXPECT_GT(mallory.manager().stats().sealed_drops, 0u);
}

TEST_F(SecureOmniTest, LegacyAdvertisingCannotCarrySealedBeacons) {
  // With Bluetooth 4 payloads the sealed 36-byte beacon does not fit: the
  // devices stay mutually invisible (and the failure is visible in stats).
  net::Testbed legacy(84);  // default calibration: legacy advertising
  auto& da = legacy.add_device("a", {0, 0});
  auto& db = legacy.add_device("b", {10, 0});
  OmniNodeOptions options;
  options.manager.context_key = key_bytes("tour-42");
  options.wifi_multicast = false;
  OmniNode a(da, legacy.mesh(), options);
  OmniNode b(db, legacy.mesh(), options);
  a.start();
  b.start();
  legacy.simulator().run_for(Duration::seconds(5));
  EXPECT_EQ(a.manager().peer_table().find(b.address()), nullptr);
}

}  // namespace
}  // namespace omni
