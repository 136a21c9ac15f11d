//===- tests/SupportTest.cpp - support/ unit tests -----------------------------===//

#include "src/support/Error.h"
#include "src/support/Json.h"
#include "src/support/Rng.h"
#include "src/support/StringUtils.h"
#include "src/support/Table.h"
#include "src/support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

using namespace wootz;

namespace {

//===----------------------------------------------------------------------===//
// Error / Result
//===----------------------------------------------------------------------===//

TEST(ErrorTest, SuccessIsFalsy) {
  Error E = Error::success();
  EXPECT_FALSE(static_cast<bool>(E));
}

TEST(ErrorTest, FailureCarriesMessage) {
  Error E = Error::failure("file not found");
  EXPECT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(E.message(), "file not found");
}

TEST(ErrorTest, MoveTransfersObligation) {
  Error E = Error::failure("boom");
  Error Moved = std::move(E);
  EXPECT_TRUE(static_cast<bool>(Moved));
}

static Result<int> parsePositive(int Value) {
  if (Value <= 0)
    return Error::failure("not positive");
  return Value;
}

TEST(ResultTest, SuccessHoldsValue) {
  Result<int> R = parsePositive(3);
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(*R, 3);
  EXPECT_EQ(R.take(), 3);
}

TEST(ResultTest, FailureHoldsError) {
  Result<int> R = parsePositive(-1);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.message(), "not positive");
  Error E = R.takeError();
  EXPECT_TRUE(static_cast<bool>(E));
}

TEST(ResultTest, MoveOnlyPayload) {
  Result<std::unique_ptr<int>> R(std::make_unique<int>(7));
  ASSERT_TRUE(static_cast<bool>(R));
  std::unique_ptr<int> Owned = R.take();
  EXPECT_EQ(*Owned, 7);
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Equal = 0;
  for (int I = 0; I < 64; ++I)
    Equal += A.next() == B.next();
  EXPECT_LT(Equal, 4);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng Generator(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(Generator.nextBelow(17), 17u);
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng Generator(7);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(Generator.nextBelow(5));
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng Generator(9);
  std::set<int64_t> Seen;
  for (int I = 0; I < 400; ++I) {
    const int64_t Value = Generator.nextInRange(-2, 2);
    EXPECT_GE(Value, -2);
    EXPECT_LE(Value, 2);
    Seen.insert(Value);
  }
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(RngTest, FloatInUnitInterval) {
  Rng Generator(11);
  for (int I = 0; I < 1000; ++I) {
    const float Value = Generator.nextFloat();
    EXPECT_GE(Value, 0.0f);
    EXPECT_LT(Value, 1.0f);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng Generator(13);
  double Sum = 0.0, SumSq = 0.0;
  const int Count = 20000;
  for (int I = 0; I < Count; ++I) {
    const double Value = Generator.nextGaussian();
    Sum += Value;
    SumSq += Value * Value;
  }
  const double Mean = Sum / Count;
  const double Var = SumSq / Count - Mean * Mean;
  EXPECT_NEAR(Mean, 0.0, 0.05);
  EXPECT_NEAR(Var, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng Generator(17);
  std::vector<int> Values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Shuffled = Values;
  Generator.shuffle(Shuffled);
  std::sort(Shuffled.begin(), Shuffled.end());
  EXPECT_EQ(Shuffled, Values);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng Parent(3);
  Rng Child = Parent.fork();
  EXPECT_NE(Parent.next(), Child.next());
}

//===----------------------------------------------------------------------===//
// StringUtils
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtilsTest, SplitKeepsEmptyPieces) {
  const std::vector<std::string> Pieces = split("a,,b", ',');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[1], "");
}

TEST(StringUtilsTest, SplitLinesHandlesCrLf) {
  const std::vector<std::string> Lines = splitLines("a\r\nb\nc");
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_EQ(Lines[0], "a");
  EXPECT_EQ(Lines[1], "b");
}

TEST(StringUtilsTest, StartsEndsWith) {
  EXPECT_TRUE(startsWith("wootz.cpp", "wootz"));
  EXPECT_FALSE(startsWith("wo", "wootz"));
  EXPECT_TRUE(endsWith("wootz.cpp", ".cpp"));
  EXPECT_FALSE(endsWith("cpp", ".cpp"));
}

TEST(StringUtilsTest, ParseIntegerAcceptsSignedValues) {
  ASSERT_TRUE(static_cast<bool>(parseInteger(" -42 ")));
  EXPECT_EQ(*parseInteger("-42"), -42);
  EXPECT_FALSE(static_cast<bool>(parseInteger("12x")));
  EXPECT_FALSE(static_cast<bool>(parseInteger("")));
}

TEST(StringUtilsTest, ParseDoubleAcceptsScientific) {
  ASSERT_TRUE(static_cast<bool>(parseDouble("1e-3")));
  EXPECT_DOUBLE_EQ(*parseDouble("1e-3"), 1e-3);
  EXPECT_FALSE(static_cast<bool>(parseDouble("0.5.3")));
}

TEST(StringUtilsTest, JoinAndFormat) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(formatDouble(0.5, 2), "0.50");
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(TableTest, AlignsColumns) {
  Table T({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer", "22"});
  const std::string Rendered = T.render();
  EXPECT_NE(Rendered.find("| name   | value |"), std::string::npos);
  EXPECT_NE(Rendered.find("| longer | 22    |"), std::string::npos);
  EXPECT_EQ(T.rowCount(), 2u);
}

TEST(TableTest, SeparatorsDontCountAsRows) {
  Table T({"a"});
  T.addRow({"1"});
  T.addSeparator();
  T.addRow({"2"});
  EXPECT_EQ(T.rowCount(), 2u);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, InlinePoolRunsImmediately) {
  ThreadPool Pool(0);
  int Value = 0;
  Pool.enqueue([&] { Value = 42; });
  EXPECT_EQ(Value, 42);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool Pool(3);
  std::atomic<int> Counter{0};
  for (int I = 0; I < 100; ++I)
    Pool.enqueue([&] { ++Counter; });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 100);
}

TEST(ThreadPoolTest, TasksMayEnqueueMoreWork) {
  // A task enqueued from inside a running task must complete before
  // wait() returns (and before the destructor tears the pool down) —
  // the destructor drains the queue before signalling shutdown.
  std::atomic<int> Counter{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 8; ++I)
      Pool.enqueue([&, I] {
        ++Counter;
        if (I % 2 == 0)
          Pool.enqueue([&] { ++Counter; });
      });
    Pool.wait();
    EXPECT_EQ(Counter.load(), 12);
  }
  EXPECT_EQ(Counter.load(), 12);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  // Destroying the pool with work still queued must run every task, not
  // drop the tail of the queue: shutdown begins only once idle.
  std::atomic<int> Counter{0};
  {
    ThreadPool Pool(3);
    for (int I = 0; I < 64; ++I)
      Pool.enqueue([&] { ++Counter; });
    // No wait(): the destructor is responsible for the drain.
  }
  EXPECT_EQ(Counter.load(), 64);
}

TEST(ThreadPoolTest, RepeatedWaitCyclesAreStable) {
  ThreadPool Pool(2);
  std::atomic<int> Counter{0};
  for (int Round = 0; Round < 20; ++Round) {
    for (int I = 0; I < 10; ++I)
      Pool.enqueue([&] { ++Counter; });
    Pool.wait();
    EXPECT_EQ(Counter.load(), (Round + 1) * 10);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// File I/O (appended tests)
//===----------------------------------------------------------------------===//

#include "src/support/File.h"

#include <filesystem>

namespace {

TEST(FileTest, RoundTripThroughNestedDirectories) {
  const std::string Dir =
      (std::filesystem::temp_directory_path() / "wootz_file_test").string();
  std::filesystem::remove_all(Dir);
  const std::string Path = Dir + "/a/b/contents.txt";
  const std::string Payload = "line1\nline2\0embedded";
  wootz::Error E = wootz::writeFile(Path, Payload);
  ASSERT_FALSE(static_cast<bool>(E)) << E.message();
  wootz::Result<std::string> Read = wootz::readFile(Path);
  ASSERT_TRUE(static_cast<bool>(Read)) << Read.message();
  EXPECT_EQ(*Read, Payload);
  std::filesystem::remove_all(Dir);
}

TEST(FileTest, MissingFileErrors) {
  EXPECT_FALSE(
      static_cast<bool>(wootz::readFile("/nonexistent/wootz/file")));
}

TEST(FileTest, OverwriteTruncates) {
  const std::string Path =
      (std::filesystem::temp_directory_path() / "wootz_file_trunc.txt")
          .string();
  ASSERT_FALSE(static_cast<bool>(wootz::writeFile(Path, "long content")));
  ASSERT_FALSE(static_cast<bool>(wootz::writeFile(Path, "x")));
  EXPECT_EQ(*wootz::readFile(Path), "x");
  std::filesystem::remove(Path);
}

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(JsonTest, WriterRoundTripsThroughTheParser) {
  JsonObject Row;
  Row.field("name", "job-1")
      .field("seconds", 1.5, 3)
      .field("count", int64_t(42))
      .field("ok", true);
  Result<std::map<std::string, std::string>> Parsed =
      parseFlatJsonObject(Row.str());
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ(Parsed->at("name"), "job-1");
  EXPECT_EQ(Parsed->at("seconds"), "1.500");
  EXPECT_EQ(Parsed->at("count"), "42");
  EXPECT_EQ(Parsed->at("ok"), "true");
}

TEST(JsonTest, WriterEscapesControlCharactersAndQuotes) {
  JsonObject Row;
  Row.field("text", std::string("a\"b\\c\nd\te\x01") + "f");
  const std::string Text = Row.str();
  // Nothing below 0x20 survives unescaped; the specific escapes are the
  // two-character forms for the common cases and \u00XX otherwise.
  for (char C : Text)
    EXPECT_GE(static_cast<unsigned char>(C), 0x20u);
  EXPECT_NE(Text.find("\\\""), std::string::npos);
  EXPECT_NE(Text.find("\\\\"), std::string::npos);
  EXPECT_NE(Text.find("\\n"), std::string::npos);
  EXPECT_NE(Text.find("\\t"), std::string::npos);
  EXPECT_NE(Text.find("\\u0001"), std::string::npos);
  // And the escaped form parses back to the original bytes.
  Result<std::map<std::string, std::string>> Parsed =
      parseFlatJsonObject(Text);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ(Parsed->at("text"), std::string("a\"b\\c\nd\te\x01") + "f");
}

TEST(JsonTest, ParserRejectsTrailingGarbage) {
  Result<std::map<std::string, std::string>> Full =
      parseFlatJsonObject("{\"a\":\"b\"} extra");
  EXPECT_FALSE(static_cast<bool>(Full));
  EXPECT_NE(Full.message().find("trailing"), std::string::npos);

  // Same rule for the empty object.
  Result<std::map<std::string, std::string>> Empty =
      parseFlatJsonObject("{} {}");
  EXPECT_FALSE(static_cast<bool>(Empty));
  EXPECT_NE(Empty.message().find("trailing"), std::string::npos);

  // But surrounding whitespace is fine.
  EXPECT_TRUE(
      static_cast<bool>(parseFlatJsonObject("  {\"a\":\"b\"}  \n")));
}

TEST(JsonTest, ParserRejectsRawControlCharactersInStrings) {
  Result<std::map<std::string, std::string>> Newline =
      parseFlatJsonObject("{\"a\":\"line1\nline2\"}");
  EXPECT_FALSE(static_cast<bool>(Newline));
  // The escaped spelling of the same value is accepted.
  Result<std::map<std::string, std::string>> Escaped =
      parseFlatJsonObject("{\"a\":\"line1\\nline2\"}");
  ASSERT_TRUE(static_cast<bool>(Escaped)) << Escaped.message();
  EXPECT_EQ(Escaped->at("a"), "line1\nline2");
}

TEST(JsonTest, ParserRejectsDuplicateKeysAndNesting) {
  Result<std::map<std::string, std::string>> Duplicate =
      parseFlatJsonObject("{\"a\":1,\"a\":2}");
  EXPECT_FALSE(static_cast<bool>(Duplicate));
  EXPECT_NE(Duplicate.message().find("duplicate"), std::string::npos);

  Result<std::map<std::string, std::string>> Nested =
      parseFlatJsonObject("{\"a\":{\"b\":1}}");
  EXPECT_FALSE(static_cast<bool>(Nested));
  EXPECT_NE(Nested.message().find("nested"), std::string::npos);

  Result<std::map<std::string, std::string>> Array =
      parseFlatJsonObject("{\"a\":[1,2]}");
  EXPECT_FALSE(static_cast<bool>(Array));
}

TEST(JsonTest, ParserRejectsStructuralDamage) {
  EXPECT_FALSE(static_cast<bool>(parseFlatJsonObject("")));
  EXPECT_FALSE(static_cast<bool>(parseFlatJsonObject("not json")));
  EXPECT_FALSE(static_cast<bool>(parseFlatJsonObject("{\"a\":\"b\"")));
  EXPECT_FALSE(static_cast<bool>(parseFlatJsonObject("{\"a\"}")));
  EXPECT_FALSE(static_cast<bool>(parseFlatJsonObject("{\"a\":}")));
  EXPECT_FALSE(static_cast<bool>(parseFlatJsonObject("{a:1}")));
  EXPECT_FALSE(static_cast<bool>(parseFlatJsonObject("{\"a\":\"b")));
  EXPECT_FALSE(
      static_cast<bool>(parseFlatJsonObject("{\"a\":\"\\u12\"}")));
  EXPECT_FALSE(static_cast<bool>(parseFlatJsonObject("{\"a\":\"\\x\"}")));
}

//===----------------------------------------------------------------------===//
// Numeric parsing hardening (appended tests)
//===----------------------------------------------------------------------===//

// The parsers moved from strtoll/strtod (locale-sensitive, permissive)
// to std::from_chars; these pin the exact acceptance set.
TEST(StringUtilsTest, ParseIntegerIsLocaleIndependentAndStrict) {
  EXPECT_EQ(*parseInteger("+42"), 42);
  EXPECT_EQ(*parseInteger("0"), 0);
  EXPECT_FALSE(static_cast<bool>(parseInteger("1,000")));
  EXPECT_FALSE(static_cast<bool>(parseInteger("0x10")));
  EXPECT_FALSE(static_cast<bool>(parseInteger("++1")));
  EXPECT_FALSE(static_cast<bool>(parseInteger("+-1")));
  EXPECT_FALSE(static_cast<bool>(parseInteger("+")));
  EXPECT_FALSE(static_cast<bool>(parseInteger("1e3")));
  Result<long long> Overflow = parseInteger("99999999999999999999");
  ASSERT_FALSE(static_cast<bool>(Overflow));
  EXPECT_NE(Overflow.message().find("range"), std::string::npos)
      << Overflow.message();
}

TEST(StringUtilsTest, ParseDoubleIsLocaleIndependentAndStrict) {
  EXPECT_DOUBLE_EQ(*parseDouble("+0.5"), 0.5);
  EXPECT_DOUBLE_EQ(*parseDouble("-1.25e2"), -125.0);
  EXPECT_FALSE(static_cast<bool>(parseDouble("1,5")));
  EXPECT_FALSE(static_cast<bool>(parseDouble("+-1.0")));
  EXPECT_FALSE(static_cast<bool>(parseDouble("1e999")));
  EXPECT_FALSE(static_cast<bool>(parseDouble("")));
}

//===----------------------------------------------------------------------===//
// Base64 (appended tests)
//===----------------------------------------------------------------------===//

TEST(Base64Test, EncodesRfc4648Vectors) {
  EXPECT_EQ(base64Encode(""), "");
  EXPECT_EQ(base64Encode("f"), "Zg==");
  EXPECT_EQ(base64Encode("fo"), "Zm8=");
  EXPECT_EQ(base64Encode("foo"), "Zm9v");
  EXPECT_EQ(base64Encode("foob"), "Zm9vYg==");
  EXPECT_EQ(base64Encode("fooba"), "Zm9vYmE=");
  EXPECT_EQ(base64Encode("foobar"), "Zm9vYmFy");
}

TEST(Base64Test, RoundTripsEveryByteValue) {
  std::string Bytes;
  for (int Value = 0; Value < 256; ++Value)
    Bytes.push_back(static_cast<char>(Value));
  // Every residue mod 3, so every padding shape is exercised.
  for (size_t Length : {256u, 255u, 254u}) {
    const std::string Input = Bytes.substr(0, Length);
    Result<std::string> Decoded = base64Decode(base64Encode(Input));
    ASSERT_TRUE(static_cast<bool>(Decoded)) << Decoded.message();
    EXPECT_EQ(*Decoded, Input);
  }
}

TEST(Base64Test, RejectsMalformedText) {
  EXPECT_FALSE(static_cast<bool>(base64Decode("abc")));      // Length.
  EXPECT_FALSE(static_cast<bool>(base64Decode("a@bc")));     // Alphabet.
  EXPECT_FALSE(static_cast<bool>(base64Decode("ab=c")));     // Mid-pad.
  EXPECT_FALSE(static_cast<bool>(base64Decode("====")));
  EXPECT_FALSE(static_cast<bool>(base64Decode("Zg==Zg=="))); // Data after pad.
  EXPECT_FALSE(static_cast<bool>(base64Decode("Zm9v\nZm9v"))); // Raw newline.
  EXPECT_TRUE(static_cast<bool>(base64Decode("")));
}

} // namespace
