#include "common/flags.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

namespace ppdp {
namespace {

Flags MakeFlags(std::vector<const char*> args) {
  args.insert(args.begin(), "binary");
  return Flags(static_cast<int>(args.size()), const_cast<char**>(args.data()));
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f = MakeFlags({"--seed=42", "--scale=0.5", "--name=test"});
  EXPECT_EQ(f.GetInt("seed", 0), 42);
  EXPECT_DOUBLE_EQ(f.GetDouble("scale", 1.0), 0.5);
  EXPECT_EQ(f.GetString("name", ""), "test");
}

TEST(FlagsTest, SpaceSyntax) {
  Flags f = MakeFlags({"--seed", "7", "--out", "file.csv"});
  EXPECT_EQ(f.GetInt("seed", 0), 7);
  EXPECT_EQ(f.GetString("out", ""), "file.csv");
}

TEST(FlagsTest, BareFlagIsTrue) {
  Flags f = MakeFlags({"--verbose"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_TRUE(f.Has("verbose"));
}

TEST(FlagsTest, MissingUsesFallback) {
  Flags f = MakeFlags({});
  EXPECT_EQ(f.GetInt("seed", 99), 99);
  EXPECT_EQ(f.GetString("name", "dflt"), "dflt");
  EXPECT_FALSE(f.Has("seed"));
}

TEST(FlagsTest, UnparsableFallsBack) {
  Flags f = MakeFlags({"--seed=notanumber"});
  EXPECT_EQ(f.GetInt("seed", 5), 5);
  EXPECT_DOUBLE_EQ(f.GetDouble("seed", 2.5), 2.5);
}

TEST(FlagsTest, RejectUnknownExitsTwoNamingTheFlag) {
  constexpr std::string_view kKnown[] = {"seed", "threads"};
  MakeFlags({"--seed=1", "--threads", "4"}).RejectUnknown("binary", kKnown);  // returns
  EXPECT_EXIT(MakeFlags({"--seed=1", "--threds", "4"}).RejectUnknown("binary", kKnown),
              ::testing::ExitedWithCode(2), "binary: unknown flag --threds");
}

TEST(FlagsTest, HelpDetected) {
  EXPECT_TRUE(MakeFlags({"--help"}).help());
  EXPECT_FALSE(MakeFlags({"--seed=1"}).help());
}

TEST(FlagsTest, BoolVariants) {
  Flags f = MakeFlags({"--a=true", "--b=1", "--c=yes", "--d=false"});
  EXPECT_TRUE(f.GetBool("a", false));
  EXPECT_TRUE(f.GetBool("b", false));
  EXPECT_TRUE(f.GetBool("c", false));
  EXPECT_FALSE(f.GetBool("d", true));
}

}  // namespace
}  // namespace ppdp
