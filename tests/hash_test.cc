#include "common/hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace ppdp {
namespace {

uint64_t Digest(const std::string& bytes, uint64_t h = kFnv1aBasis) {
  return Fnv1a64(bytes.data(), bytes.size(), h);
}

TEST(Fnv1aTest, MatchesPublishedVectors) {
  EXPECT_EQ(Digest(""), kFnv1aBasis);
  EXPECT_EQ(Digest("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(Digest("foobar"), 0x85944171F73967E8ULL);
}

TEST(Fnv1aTest, ChainedPiecesEqualTheConcatenation) {
  EXPECT_EQ(Digest("bar", Digest("foo")), Digest("foobar"));
  const std::string bytes("ab\0cd", 5);  // an embedded NUL is just a byte
  EXPECT_EQ(Digest(bytes.substr(2), Digest(bytes.substr(0, 2))), Digest(bytes));
}

}  // namespace
}  // namespace ppdp
