// Wire-level S3 tests: SHA-256/HMAC vectors, SigV4 signing, the XML layer,
// and client↔server conformance including authentication failures.
#include <gtest/gtest.h>

#include "cloud/memory_store.h"
#include "cloud/s3/s3_client.h"
#include "cloud/s3/s3_server.h"
#include "cloud/s3/xml.h"
#include "common/codec/sha256.h"

namespace ginja {
namespace {

// -- SHA-256: FIPS 180-4 vectors ----------------------------------------------

TEST(Sha256, Abc) {
  const Bytes abc = ToBytes("abc");
  EXPECT_EQ(ToHex(ByteView(Sha256::Hash(View(abc)).data(), 32)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, Empty) {
  EXPECT_EQ(ToHex(ByteView(Sha256::Hash({}).data(), 32)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, TwoBlockMessage) {
  const Bytes msg =
      ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(ToHex(ByteView(Sha256::Hash(View(msg)).data(), 32)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = ToBytes("streaming sha256 across many small updates!!");
  Sha256 h;
  for (std::size_t i = 0; i < msg.size(); ++i) h.Update(ByteView(&msg[i], 1));
  EXPECT_EQ(h.Finish(), Sha256::Hash(View(msg)));
}

// -- HMAC-SHA256: RFC 4231 vectors ----------------------------------------------

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = ToBytes("Hi There");
  EXPECT_EQ(ToHex(ByteView(HmacSha256(View(key), View(data)).data(), 32)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const Bytes key = ToBytes("Jefe");
  const Bytes data = ToBytes("what do ya want for nothing?");
  EXPECT_EQ(ToHex(ByteView(HmacSha256(View(key), View(data)).data(), 32)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// -- XML --------------------------------------------------------------------------

TEST(Xml, EscapeRoundTrip) {
  const std::string nasty = "a<b>&\"c";
  EXPECT_EQ(XmlUnescape(XmlEscape(nasty)), nasty);
}

TEST(Xml, ExtractNestedAndRepeated) {
  const std::string doc =
      "<R><C><K>one</K><S>1</S></C><C><K>two&amp;half</K><S>2</S></C></R>";
  const auto fragments = XmlExtractAll(doc, "C");
  ASSERT_EQ(fragments.size(), 2u);
  EXPECT_EQ(XmlExtract(fragments[1], "K"), "two&half");
  EXPECT_FALSE(XmlExtract(doc, "Missing").has_value());
}

// -- SigV4 ------------------------------------------------------------------------

TEST(SigV4, SigningIsDeterministic) {
  AwsCredentials credentials;
  SigV4Signer signer(credentials);
  HttpRequest a, b;
  a.method = b.method = "PUT";
  a.path = b.path = "/bucket/WAL/1_x_0_0";
  a.body = b.body = ToBytes("payload");
  signer.Sign(a, "20170515T000000Z");
  signer.Sign(b, "20170515T000000Z");
  EXPECT_EQ(a.headers["authorization"], b.headers["authorization"]);
  EXPECT_TRUE(a.headers["authorization"].starts_with(
      "AWS4-HMAC-SHA256 Credential=GINJAACCESSKEY/20170515/us-east-1/s3/"
      "aws4_request"));
}

TEST(SigV4, SignatureDependsOnSecretDateAndBody) {
  HttpRequest base;
  base.method = "GET";
  base.path = "/bucket/key";
  AwsCredentials credentials;
  SigV4Signer signer(credentials);
  HttpRequest a = base;
  signer.Sign(a, "20170515T000000Z");

  HttpRequest b = base;
  signer.Sign(b, "20170516T000000Z");  // different date
  EXPECT_NE(a.headers["authorization"], b.headers["authorization"]);

  AwsCredentials other = credentials;
  other.secret_access_key = "different";
  HttpRequest c = base;
  SigV4Signer(other).Sign(c, "20170515T000000Z");
  EXPECT_NE(a.headers["authorization"], c.headers["authorization"]);

  HttpRequest d = base;
  d.body = ToBytes("x");
  signer.Sign(d, "20170515T000000Z");
  EXPECT_NE(a.headers["authorization"], d.headers["authorization"]);
}

TEST(SigV4, VerifyAcceptsOwnSignatures) {
  SigV4Signer signer(AwsCredentials{});
  HttpRequest request;
  request.method = "PUT";
  request.path = "/bucket/some/key";
  request.body = ToBytes("data");
  signer.Sign(request, "20170515T000000Z");
  EXPECT_TRUE(signer.Verify(request));
}

TEST(SigV4, VerifyRejectsTamperedBody) {
  SigV4Signer signer(AwsCredentials{});
  HttpRequest request;
  request.method = "PUT";
  request.path = "/bucket/key";
  request.body = ToBytes("data");
  signer.Sign(request, "20170515T000000Z");
  request.body = ToBytes("DATA");  // tampered in flight
  EXPECT_FALSE(signer.Verify(request));
}

TEST(SigV4, VerifyRejectsWrongSecret) {
  AwsCredentials attacker;
  attacker.secret_access_key = "guessed";
  SigV4Signer attacker_signer(attacker);
  HttpRequest request;
  request.method = "DELETE";
  request.path = "/bucket/key";
  attacker_signer.Sign(request, "20170515T000000Z");
  EXPECT_FALSE(SigV4Signer(AwsCredentials{}).Verify(request));
}

TEST(SigV4, CanonicalRequestShape) {
  SigV4Signer signer(AwsCredentials{});
  HttpRequest request;
  request.method = "GET";
  request.path = "/bucket";
  request.query["list-type"] = "2";
  request.query["prefix"] = "WAL/";
  request.headers["host"] = "s3.us-east-1.amazonaws.com";
  request.headers["x-amz-date"] = "20170515T000000Z";
  request.headers["x-amz-content-sha256"] =
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  const std::string canonical = signer.CanonicalRequest(request);
  // Method, path, sorted+encoded query, sorted headers, signed list, hash.
  EXPECT_TRUE(canonical.starts_with("GET\n/bucket\nlist-type=2&prefix=WAL%2F\n"));
  EXPECT_NE(canonical.find("host:s3.us-east-1.amazonaws.com\n"), std::string::npos);
  EXPECT_NE(canonical.find("\nhost;x-amz-content-sha256;x-amz-date\n"),
            std::string::npos);
}

TEST(UriEncode, AwsRules) {
  EXPECT_EQ(UriEncode("a b/c~d"), "a%20b%2Fc~d");
  EXPECT_EQ(UriEncode("a b/c~d", /*encode_slash=*/false), "a%20b/c~d");
}

// -- client <-> server -----------------------------------------------------------

struct S3Fixture {
  std::shared_ptr<MemoryStore> backend = std::make_shared<MemoryStore>();
  std::shared_ptr<S3Server> server;
  std::unique_ptr<S3Client> client;

  explicit S3Fixture(std::size_t max_keys = 1000) {
    server = std::make_shared<S3Server>(backend, "ginja-bucket",
                                        AwsCredentials{}, max_keys);
    client = std::make_unique<S3Client>(server, "ginja-bucket");
  }
};

TEST(S3ClientServer, PutGetDeleteRoundTrip) {
  S3Fixture fx;
  ASSERT_TRUE(fx.client->Put("WAL/1_pg|0001_0_100", View(ToBytes("hello"))).ok());
  auto got = fx.client->Get("WAL/1_pg|0001_0_100");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(View(*got)), "hello");
  ASSERT_TRUE(fx.client->Delete("WAL/1_pg|0001_0_100").ok());
  auto missing = fx.client->Get("WAL/1_pg|0001_0_100");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound);
}

TEST(S3ClientServer, DeleteMissingSucceeds) {
  S3Fixture fx;
  EXPECT_TRUE(fx.client->Delete("never-existed").ok());
}

TEST(S3ClientServer, BinaryBodySurvives) {
  S3Fixture fx;
  Bytes binary(4096);
  for (std::size_t i = 0; i < binary.size(); ++i) {
    binary[i] = static_cast<std::uint8_t>(i * 31);
  }
  ASSERT_TRUE(fx.client->Put("DB/0_dump_4096_s0_l0_p0of1", View(binary)).ok());
  auto got = fx.client->Get("DB/0_dump_4096_s0_l0_p0of1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, binary);
}

TEST(S3ClientServer, ListWithPrefixAndSpecialChars) {
  S3Fixture fx;
  ASSERT_TRUE(fx.client->Put("WAL/1_a&b<c_0_5", View(ToBytes("x"))).ok());
  ASSERT_TRUE(fx.client->Put("WAL/2_plain_0_9", View(ToBytes("yy"))).ok());
  ASSERT_TRUE(fx.client->Put("DB/0_dump_2_s0_l0_p0of1", View(ToBytes("zz"))).ok());
  auto list = fx.client->List("WAL/");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0].name, "WAL/1_a&b<c_0_5");
  EXPECT_EQ((*list)[0].size, 1u);
  EXPECT_EQ((*list)[1].size, 2u);
}

TEST(S3ClientServer, ListPaginatesWithContinuationTokens) {
  S3Fixture fx(/*max_keys=*/7);  // force several pages
  for (int i = 0; i < 23; ++i) {
    char key[32];
    std::snprintf(key, sizeof key, "obj/%04d", i);
    ASSERT_TRUE(fx.client->Put(key, View(ToBytes("v"))).ok());
  }
  auto list = fx.client->List("obj/");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 23u);
  for (int i = 0; i < 23; ++i) {
    char key[32];
    std::snprintf(key, sizeof key, "obj/%04d", i);
    EXPECT_EQ((*list)[static_cast<std::size_t>(i)].name, key);
  }
}

TEST(S3ClientServer, WrongCredentialsRejected403) {
  S3Fixture fx;
  AwsCredentials wrong;
  wrong.secret_access_key = "not-the-secret";
  S3Client bad_client(fx.server, "ginja-bucket", wrong);
  Status st = bad_client.Put("key", View(ToBytes("v")));
  EXPECT_FALSE(st.ok());
  EXPECT_GE(fx.server->rejected_requests(), 1u);
  EXPECT_EQ(fx.backend->ObjectCount(), 0u);  // nothing got through
}

TEST(S3ClientServer, WrongBucketIs404) {
  S3Fixture fx;
  S3Client other(fx.server, "other-bucket");
  EXPECT_FALSE(other.Put("key", View(ToBytes("v"))).ok());
}

TEST(S3ClientServer, EmptyObjectOk) {
  S3Fixture fx;
  ASSERT_TRUE(fx.client->Put("empty", {}).ok());
  auto got = fx.client->Get("empty");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

// Ginja only issues single-request PUTs; multipart-upload verbs and
// server-side copy are refused and leave the bucket untouched.
TEST(S3ClientServer, MultipartAndCopyAreNotImplemented) {
  S3Fixture fx;
  ASSERT_TRUE(fx.client->Put("src", View(ToBytes("v"))).ok());
  SigV4Signer signer{AwsCredentials{}};
  auto send = [&](HttpRequest request) {
    signer.Sign(request, "20170515T000000Z");
    auto response = fx.server->RoundTrip(request);
    EXPECT_TRUE(response.ok());
    return response.ok() ? response->status : 0;
  };
  HttpRequest initiate;
  initiate.method = "POST";
  initiate.path = "/ginja-bucket/staged";
  initiate.query["uploads"] = "";
  EXPECT_EQ(send(initiate), 501);
  HttpRequest part;
  part.method = "PUT";
  part.path = "/ginja-bucket/staged";
  part.query["partNumber"] = "1";
  part.query["uploadId"] = "upload-1";
  part.body = ToBytes("part");
  EXPECT_EQ(send(part), 501);
  HttpRequest copy;
  copy.method = "PUT";
  copy.path = "/ginja-bucket/dst";
  copy.headers["x-amz-copy-source"] = "/ginja-bucket/src";
  EXPECT_EQ(send(copy), 501);
  EXPECT_EQ(fx.backend->ObjectCount(), 1u);
}

}  // namespace
}  // namespace ginja
