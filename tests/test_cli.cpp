// Unit tests for the CLI argument parser.
#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/assert.hpp"

namespace nldl::util {
namespace {

Args make(std::initializer_list<const char*> argv) {
  std::vector<const char*> raw(argv);
  return Args(static_cast<int>(raw.size()), raw.data());
}

TEST(Args, ParsesKeyValuePairs) {
  const Args args = make({"prog", "--n=100", "--ratio=2.5", "--name=hello"});
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 2.5);
  EXPECT_EQ(args.get_string("name", ""), "hello");
}

TEST(Args, FallbacksWhenMissing) {
  const Args args = make({"prog"});
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_EQ(args.get_string("s", "dft"), "dft");
  EXPECT_FALSE(args.get_bool("flag", false));
  EXPECT_TRUE(args.get_bool("flag", true));
}

TEST(Args, BareFlagIsTrue) {
  const Args args = make({"prog", "--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(Args, BooleanSpellings) {
  const Args args = make({"prog", "--a=true", "--b=FALSE", "--c=1",
                          "--d=0", "--e=Yes", "--f=no"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
  EXPECT_TRUE(args.get_bool("e", false));
  EXPECT_FALSE(args.get_bool("f", true));
}

TEST(Args, RejectsGarbageBoolean) {
  const Args args = make({"prog", "--x=maybe"});
  EXPECT_THROW((void)args.get_bool("x", false), PreconditionError);
}

TEST(Args, IntegersParseTheWholeValue) {
  const Args args = make({"prog", "--a=3x", "--b=abc",
                          "--c=99999999999999999999", "--d=-7"});
  EXPECT_THROW((void)args.get_int("a", 0), PreconditionError);
  EXPECT_THROW((void)args.get_int("b", 0), PreconditionError);
  EXPECT_THROW((void)args.get_int("c", 0), PreconditionError);
  EXPECT_EQ(args.get_int("d", 0), -7);  // seeds may be negative
  try {
    (void)args.get_int("b", 0);
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("--b"), std::string::npos);
  }
}

TEST(Args, CountsRejectNegativesInsteadOfWrapping) {
  const Args args =
      make({"prog", "--n=12", "--neg=-1", "--bad=3x", "--empty="});
  EXPECT_EQ(args.get_count("n", 0), 12U);
  EXPECT_EQ(args.get_count("missing", 5), 5U);
  EXPECT_EQ(args.get_count("empty", 5), 5U);
  EXPECT_THROW((void)args.get_count("neg", 0), PreconditionError);
  EXPECT_THROW((void)args.get_count("bad", 0), PreconditionError);
}

TEST(Args, PositionalArguments) {
  const Args args = make({"prog", "input.txt", "--k=2", "output.txt"});
  ASSERT_EQ(args.positional().size(), 2U);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "output.txt");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Args, LastDuplicateWins) {
  const Args args = make({"prog", "--n=1", "--n=2"});
  EXPECT_EQ(args.get_int("n", 0), 2);
}

TEST(Args, ValueWithEqualsSign) {
  const Args args = make({"prog", "--expr=a=b"});
  EXPECT_EQ(args.get_string("expr", ""), "a=b");
}

}  // namespace
}  // namespace nldl::util
