// Unit tests for src/util: Status/Result, flags, PRNGs, timers, tables, math,
// CRC-32.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/flags.h"
#include "util/math.h"
#include "util/random.h"
#include "util/status.h"
#include "util/table.h"
#include "util/timer.h"

namespace opaq {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IO_ERROR: disk on fire");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes{
      Status::InvalidArgument("x").code(), Status::OutOfRange("x").code(),
      Status::NotFound("x").code(),        Status::AlreadyExists("x").code(),
      Status::FailedPrecondition("x").code(), Status::IoError("x").code(),
      Status::ResourceExhausted("x").code(),  Status::Internal("x").code(),
      Status::Unimplemented("x").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIoError), "IO_ERROR");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(ResultDeathTest, ValueOnErrorAbortsNamingTheStatus) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_DEATH(r.value(), "Result::value\\(\\) on error: NOT_FOUND: gone");
  const Result<int>& view = r;
  EXPECT_DEATH(view.value(), "on error: NOT_FOUND: gone");
  EXPECT_DEATH(*r, "on error: NOT_FOUND: gone");
  EXPECT_DEATH(std::move(r).value(), "on error: NOT_FOUND: gone");
}

Status FailingOp() { return Status::Internal("boom"); }
Status Propagates() {
  OPAQ_RETURN_IF_ERROR(FailingOp());
  return Status::OK();
}
Result<int> ResultOp(bool fail) {
  if (fail) return Status::OutOfRange("bad");
  return 5;
}
Status UsesAssignOrReturn(bool fail, int* out) {
  OPAQ_ASSIGN_OR_RETURN(*out, ResultOp(fail));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_EQ(Propagates().code(), StatusCode::kInternal);
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UsesAssignOrReturn(false, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UsesAssignOrReturn(true, &out).code(), StatusCode::kOutOfRange);
}

// ----------------------------------------------------------------- Flags --

TEST(FlagsTest, ParsesKeyEqualsValue) {
  const char* argv[] = {"prog", "--n=100", "--scale=0.5", "--name=zipf"};
  auto flags = Flags::Parse(4, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("n", 0), 100);
  EXPECT_DOUBLE_EQ(flags->GetDouble("scale", 1.0), 0.5);
  EXPECT_EQ(flags->GetString("name", ""), "zipf");
}

TEST(FlagsTest, ParsesSeparatedValueAndBareBool) {
  const char* argv[] = {"prog", "--n", "7", "--verbose"};
  auto flags = Flags::Parse(4, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("n", 0), 7);
  EXPECT_TRUE(flags->GetBool("verbose", false));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  auto flags = Flags::Parse(1, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("missing", 13), 13);
  EXPECT_FALSE(flags->Has("missing"));
}

TEST(FlagsTest, CollectsPositional) {
  const char* argv[] = {"prog", "input.dat", "--n=2", "more"};
  auto flags = Flags::Parse(4, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  ASSERT_EQ(flags->positional().size(), 2u);
  EXPECT_EQ(flags->positional()[0], "input.dat");
  EXPECT_EQ(flags->positional()[1], "more");
}

TEST(FlagsTest, RejectsBareDoubleDash) {
  const char* argv[] = {"prog", "--"};
  auto flags = Flags::Parse(2, const_cast<char**>(argv));
  EXPECT_FALSE(flags.ok());
}

TEST(FlagsTest, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=no"};
  auto flags = Flags::Parse(5, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->GetBool("a", false));
  EXPECT_FALSE(flags->GetBool("b", true));
  EXPECT_TRUE(flags->GetBool("c", false));
  EXPECT_FALSE(flags->GetBool("d", true));
}

TEST(FlagsTest, TryGetIntRejectsBadValues) {
  // The daemon-hardening rows: `--port=` used to parse as 0 and silently
  // bind an ephemeral port; overflow and trailing junk likewise slid
  // through strtoll. All three must now be InvalidArgument naming the flag.
  const char* argv[] = {"prog", "--empty=", "--over=99999999999999999999999",
                        "--junk=12x", "--neg=-3", "--ok=42", "--bare"};
  auto flags = Flags::Parse(7, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  auto empty = flags->TryGetInt("empty", 1);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.status().message().find("empty"), std::string::npos);
  auto over = flags->TryGetInt("over", 1);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("overflow"), std::string::npos);
  EXPECT_FALSE(flags->TryGetInt("junk", 1).ok());
  EXPECT_FALSE(flags->TryGetInt("bare", 1).ok());  // no digits at all
  auto neg = flags->TryGetInt("neg", 1);
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(*neg, -3);
  EXPECT_EQ(*flags->TryGetInt("ok", 1), 42);
  EXPECT_EQ(*flags->TryGetInt("missing", 13), 13);  // default untouched
}

TEST(FlagsTest, TryGetDoubleRejectsBadValues) {
  const char* argv[] = {"prog", "--empty=", "--junk=fast", "--nan=nan",
                        "--huge=1e999", "--ok=0.5", "--tiny=1e-999"};
  auto flags = Flags::Parse(7, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags->TryGetDouble("empty", 1.0).ok());
  EXPECT_FALSE(flags->TryGetDouble("junk", 1.0).ok());
  EXPECT_FALSE(flags->TryGetDouble("nan", 1.0).ok());
  EXPECT_FALSE(flags->TryGetDouble("huge", 1.0).ok());
  EXPECT_DOUBLE_EQ(*flags->TryGetDouble("ok", 1.0), 0.5);
  // Underflow-to-zero is a representable answer, not an error.
  auto tiny = flags->TryGetDouble("tiny", 1.0);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(*tiny, 0.0);
  EXPECT_DOUBLE_EQ(*flags->TryGetDouble("missing", 2.5), 2.5);
}

TEST(FlagsTest, TryGetBoolRejectsBadValues) {
  const char* argv[] = {"prog", "--bad=maybe", "--empty=", "--yes=yes"};
  auto flags = Flags::Parse(4, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags->TryGetBool("bad", false).ok());
  EXPECT_FALSE(flags->TryGetBool("empty", false).ok());
  EXPECT_TRUE(*flags->TryGetBool("yes", false));
  EXPECT_FALSE(*flags->TryGetBool("missing", false));
}

// ---------------------------------------------------------------- Random --

TEST(RandomTest, SplitMix64IsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, XoshiroIsDeterministicAcrossInstances) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 3);
}

TEST(RandomTest, NextBoundedStaysInRange) {
  Xoshiro256 rng(99);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBounded(bound), bound);
  }
}

TEST(RandomTest, NextBoundedIsRoughlyUniform) {
  Xoshiro256 rng(5);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RandomTest, JumpProducesNonOverlappingStream) {
  Xoshiro256 a(3);
  Xoshiro256 b(3);
  b.Jump();
  std::set<uint64_t> first;
  for (int i = 0; i < 1000; ++i) first.insert(a.Next());
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(first.count(b.Next()), 0u);
}

TEST(RandomTest, ShufflePreservesMultiset) {
  Xoshiro256 rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<int> orig = v;
  Shuffle(v, rng);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RandomTest, ShuffleHandlesEmptyAndSingle) {
  Xoshiro256 rng(1);
  std::vector<int> empty;
  Shuffle(empty, rng);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  Shuffle(one, rng);
  EXPECT_EQ(one[0], 42);
}

// ----------------------------------------------------------------- Timer --

TEST(TimerTest, WallTimerAdvances) {
  WallTimer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + std::sqrt(static_cast<double>(i));
  EXPECT_GT(t.ElapsedSeconds(), 0.0);
}

TEST(PhaseTimerTest, AccumulatesNamedPhases) {
  PhaseTimer t({"a", "b"});
  t.AddSeconds(0, 1.5);
  t.AddSeconds(1, 0.5);
  EXPECT_DOUBLE_EQ(t.Seconds(0), 1.5);
  EXPECT_DOUBLE_EQ(t.Seconds(1), 0.5);
  EXPECT_DOUBLE_EQ(t.TotalSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(t.Fraction(0), 0.75);
  EXPECT_EQ(t.name(1), "b");
}

TEST(PhaseTimerTest, StartSwitchesPhases) {
  PhaseTimer t({"a", "b"});
  t.Start(0);
  t.Start(1);  // implicitly stops phase 0
  t.Stop();
  EXPECT_GE(t.Seconds(0), 0.0);
  EXPECT_GE(t.Seconds(1), 0.0);
  EXPECT_GT(t.TotalSeconds(), 0.0);
}

TEST(PhaseTimerTest, MergeAddsPhaseWise) {
  PhaseTimer a({"x", "y"}), b({"x", "y"});
  a.AddSeconds(0, 1.0);
  b.AddSeconds(0, 2.0);
  b.AddSeconds(1, 3.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Seconds(0), 3.0);
  EXPECT_DOUBLE_EQ(a.Seconds(1), 3.0);
}

TEST(PhaseTimerTest, FractionOfEmptyTimerIsZero) {
  PhaseTimer t({"a"});
  EXPECT_DOUBLE_EQ(t.Fraction(0), 0.0);
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, PrintsAlignedColumns) {
  TextTable t;
  t.SetTitle("Demo");
  t.AddHeader({"Dectile", "s=250"});
  t.AddRow({"10%", "0.33"});
  t.AddRow({"20%", "0.39"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("Dectile"), std::string::npos);
  EXPECT_NE(out.find("0.33"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  TextTable t;
  t.AddHeader({"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::Num(0.126, 2), "0.13");
  EXPECT_EQ(TextTable::Num(3.0, 0), "3");
  EXPECT_EQ(TextTable::Num(1.23456, 4), "1.2346");
}

// ------------------------------------------------------------------ Math --

TEST(MathTest, DivCeil) {
  EXPECT_EQ(DivCeil(0, 5), 0u);
  EXPECT_EQ(DivCeil(1, 5), 1u);
  EXPECT_EQ(DivCeil(5, 5), 1u);
  EXPECT_EQ(DivCeil(6, 5), 2u);
  EXPECT_EQ(DivCeil(10, 1), 10u);
}

TEST(MathTest, IsPowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(1ull << 63));
  EXPECT_FALSE(IsPowerOfTwo((1ull << 63) + 1));
}

TEST(MathTest, FloorPowerOfTwo) {
  EXPECT_EQ(FloorPowerOfTwo(1), 1u);
  EXPECT_EQ(FloorPowerOfTwo(2), 2u);
  EXPECT_EQ(FloorPowerOfTwo(3), 2u);
  EXPECT_EQ(FloorPowerOfTwo(1000), 512u);
}

TEST(MathTest, Log2Floor) {
  EXPECT_EQ(Log2Floor(1), 0);
  EXPECT_EQ(Log2Floor(2), 1);
  EXPECT_EQ(Log2Floor(3), 1);
  EXPECT_EQ(Log2Floor(1024), 10);
}

TEST(MathTest, Clamp) {
  EXPECT_EQ(Clamp(5, 1, 10), 5);
  EXPECT_EQ(Clamp(-5, 1, 10), 1);
  EXPECT_EQ(Clamp(50, 1, 10), 10);
}

// ---------------------------------------------------------------- CRC-32 --

// The textbook bytewise CRC-32 (reflected, polynomial 0xEDB88320), one bit
// at a time: the reference every Crc32 kernel must match.
uint32_t BitwiseCrc32(const uint8_t* bytes, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32(check, 0), 0u);
}

/// `Crc32` (whichever kernel this CPU dispatches to) and the slicing-by-8
/// kernel alone, each against the bitwise reference.
void ExpectKernelsMatchReference(const uint8_t* bytes, size_t len) {
  const uint32_t want = BitwiseCrc32(bytes, len);
  EXPECT_EQ(Crc32(bytes, len), want)
      << internal_crc32::Crc32KernelName() << " length " << len;
  EXPECT_EQ(internal_crc32::SlicingBy8Crc32(bytes, len), want)
      << "slicing-by-8 length " << len;
}

TEST(Crc32Test, EveryKernelMatchesTheReferenceAtEveryLengthAndOffset) {
  // Lengths 0-1024 cross the folding kernel's 64-byte entry, its 16-byte
  // block tail and its 64-byte main loop; offsets 0-15 cover every
  // misalignment of its 16-byte loads.
  std::printf("Crc32 kernel: %s\n", internal_crc32::Crc32KernelName());
  Xoshiro256 rng(32);
  std::vector<uint8_t> bytes(16 + 1024);
  for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      SCOPED_TRACE("offset " + std::to_string(offset));
      ExpectKernelsMatchReference(bytes.data() + offset, len);
    }
  }
}

TEST(Crc32Test, EveryKernelMatchesTheReferenceOnLongBuffers) {
  Xoshiro256 rng(33);
  std::vector<uint8_t> bytes((size_t{1} << 20) + 7);
  for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng.Next());
  ExpectKernelsMatchReference(bytes.data(), bytes.size());
  ExpectKernelsMatchReference(bytes.data() + 3, bytes.size() - 3);
  bytes.assign(4096, 0xFF);
  ExpectKernelsMatchReference(bytes.data(), bytes.size());
  bytes.assign(4096 + 5, 0x00);
  ExpectKernelsMatchReference(bytes.data(), bytes.size());
}

}  // namespace
}  // namespace opaq
