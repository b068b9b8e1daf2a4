// Unit tests for cfsf::util — RNG, strings, tables, args, logging, errors,
// durable files, CondVar::WaitUntil.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/args.hpp"
#include "util/durable_file.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"

namespace cfsf::util {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkedStreamsDiverge) {
  Rng root(7);
  Rng a = root.Fork(0);
  Rng b = root.Fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic) {
  Rng root1(7);
  Rng root2(7);
  Rng a = root1.Fork(5);
  Rng b = root2.Fork(5);
  EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextDoubleMeanIsHalf) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
}

TEST(Rng, NextBoundedCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(10);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, GaussianMomentsAreStandard) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(12);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto copy = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(13);
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto s : sample) EXPECT_LT(s, 100u);
}

TEST(Rng, SampleFullPopulation) {
  Rng rng(14);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(ZipfSampler, RanksWithinSupport) {
  Rng rng(15);
  ZipfSampler zipf(50, 1.0);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(rng), 50u);
}

TEST(ZipfSampler, LowRanksDominate) {
  Rng rng(16);
  ZipfSampler zipf(100, 1.0);
  std::size_t low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 10) ++low;
  }
  // With s=1 the top 10 of 100 ranks carry ~56% of the mass.
  EXPECT_GT(static_cast<double>(low) / n, 0.4);
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  Rng rng(17);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (const int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.2);
}

TEST(ZipfSampler, RejectsEmptySupport) {
  EXPECT_THROW(ZipfSampler(0, 1.0), ConfigError);
  EXPECT_THROW(ZipfSampler(5, -0.1), ConfigError);
}

// ------------------------------------------------------------- strings ----

TEST(Strings, SplitKeepsEmptyFields) {
  const auto fields = Split("a\t\tb", '\t');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
}

TEST(Strings, SplitSingleField) {
  const auto fields = Split("abc", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "abc");
}

TEST(Strings, SplitWhitespaceDropsRuns) {
  const auto fields = SplitWhitespace("  a \t b\n c  ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(Strings, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("AbC", "abc"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "ab"));
}

TEST(Strings, ParseIntStrict) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt(" -7 "), -7);
  EXPECT_THROW(ParseInt("4.2"), IoError);
  EXPECT_THROW(ParseInt("x"), IoError);
  EXPECT_THROW(ParseInt(""), IoError);
}

TEST(Strings, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-0.25"), -0.25);
  EXPECT_THROW(ParseDouble("abc"), IoError);
  EXPECT_THROW(ParseDouble("1.2x"), IoError);
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFixed(2.0, 3), "2.000");
}

// --------------------------------------------------------------- table ----

TEST(Table, AlignedOutputContainsAllCells) {
  Table t({"Method", "MAE"});
  t.AddRow({"CFSF", "0.721"});
  t.AddRow({"SUR", "0.814"});
  const std::string s = t.ToAligned();
  EXPECT_NE(s.find("CFSF"), std::string::npos);
  EXPECT_NE(s.find("0.814"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"A", "B"});
  EXPECT_THROW(t.AddRow({"only-one"}), ConfigError);
}

TEST(Table, RejectsEmptyHeader) { EXPECT_THROW(Table({}), ConfigError); }

TEST(Table, CsvEscapesSpecials) {
  Table t({"x"});
  t.AddRow({"a,b"});
  t.AddRow({"say \"hi\""});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CsvRoundTripPlain) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(Table, WriteCsvCreatesFile) {
  Table t({"h"});
  t.AddRow({"v"});
  const std::string path = ::testing::TempDir() + "/cfsf_table_test.csv";
  t.WriteCsv(path);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "h");
}

// ---------------------------------------------------------------- args ----

TEST(Args, EqualsSyntax) {
  const char* argv[] = {"prog", "--k=25"};
  ArgParser args(2, argv);
  EXPECT_EQ(args.GetInt("k", 0), 25);
}

TEST(Args, SpaceSyntax) {
  const char* argv[] = {"prog", "--name", "cfsf"};
  ArgParser args(3, argv);
  EXPECT_EQ(args.GetString("name", ""), "cfsf");
}

TEST(Args, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  ArgParser args(2, argv);
  EXPECT_TRUE(args.GetBool("verbose", false));
}

TEST(Args, DefaultsApply) {
  const char* argv[] = {"prog"};
  ArgParser args(1, argv);
  EXPECT_EQ(args.GetInt("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.GetDouble("missing2", 0.5), 0.5);
}

TEST(Args, TypeErrorsThrow) {
  const char* argv[] = {"prog", "--k=abc", "--b=maybe"};
  ArgParser args(3, argv);
  EXPECT_THROW(args.GetInt("k", 0), ConfigError);
  EXPECT_THROW(args.GetBool("b", false), ConfigError);
}

TEST(Args, RejectUnknownCatchesTypos) {
  const char* argv[] = {"prog", "--lamda=0.8"};
  ArgParser args(2, argv);
  args.GetDouble("lambda", 0.8);
  EXPECT_THROW(args.RejectUnknown(), ConfigError);
}

TEST(Args, PositionalCollected) {
  const char* argv[] = {"prog", "file1", "--k=1", "file2"};
  ArgParser args(4, argv);
  args.GetInt("k", 0);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "file1");
}

TEST(Args, BooleanLiterals) {
  const char* argv[] = {"prog", "--a=false", "--b=1", "--c=no"};
  ArgParser args(4, argv);
  EXPECT_FALSE(args.GetBool("a", true));
  EXPECT_TRUE(args.GetBool("b", false));
  EXPECT_FALSE(args.GetBool("c", true));
}

// ------------------------------------------------------------- logging ----

TEST(Logging, ParseLogLevelNames) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("INFO"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_THROW(ParseLogLevel("loud"), ConfigError);
}

TEST(Logging, ThresholdSuppresses) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_FALSE(detail::LogEnabled(LogLevel::kInfo));
  EXPECT_TRUE(detail::LogEnabled(LogLevel::kError));
  SetLogLevel(before);
}

// ----------------------------------------------------------- stopwatch ----

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(watch.ElapsedMillis(), 15.0);
  watch.Restart();
  EXPECT_LT(watch.ElapsedMillis(), 15.0);
}

// ------------------------------------------------------------- errors ----

TEST(Errors, HierarchyIsCatchable) {
  try {
    throw DimensionError("bad shape");
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad shape"), std::string::npos);
  }
}

TEST(Errors, RequireMacroThrowsConfigError) {
  const auto boom = [] { CFSF_REQUIRE(1 == 2, "math broke"); };
  EXPECT_THROW(boom(), ConfigError);
}

// ------------------------------------------------------- durable file ----

namespace fs = std::filesystem;

class DurableFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("cfsf_durable_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    SetDurableObserver(nullptr);
    fs::remove_all(dir_);
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  std::string dir_;
};

TEST_F(DurableFileTest, ObserverSeesWriteFsyncRenameThenDirectoryFsync) {
  using Kind = DurableOp::Kind;
  std::vector<Kind> kinds;
  std::vector<std::string> paths;
  SetDurableObserver([&](const DurableOp& op) {
    kinds.push_back(op.kind);
    paths.emplace_back(op.path);
  });
  WriteFileDurably(dir_, "f", {"ab", "cd"});
  SetDurableObserver(nullptr);

  const std::string tmp = dir_ + "/f.tmp";
  EXPECT_EQ(kinds, (std::vector<Kind>{Kind::kCreate, Kind::kWrite,
                                      Kind::kWrite, Kind::kFsync,
                                      Kind::kRename, Kind::kDirFsync}));
  EXPECT_EQ(paths, (std::vector<std::string>{tmp, tmp, tmp, tmp, tmp, dir_}));
  EXPECT_EQ(Slurp(dir_ + "/f"), "abcd");
  EXPECT_FALSE(fs::exists(tmp));
}

TEST_F(DurableFileTest, RenameOntoANonEmptyDirectoryThrowsAndLeavesNoTmp) {
  const std::string target = dir_ + "/taken";
  fs::create_directories(target);
  { std::ofstream(target + "/keep") << "kept"; }
  try {
    WriteFileDurably(dir_, "taken", {"bytes"});
    ADD_FAILURE() << "a file was renamed over a non-empty directory";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(target), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fs::exists(target + ".tmp"));
  ASSERT_TRUE(fs::is_directory(target));
  EXPECT_EQ(std::distance(fs::directory_iterator(target),
                          fs::directory_iterator()),
            1);
  EXPECT_EQ(Slurp(target + "/keep"), "kept");
}

TEST_F(DurableFileTest, AMissingParentDirectoryThrowsAndCreatesNothing) {
  const std::string absent = dir_ + "/absent";
  try {
    WriteFileDurably(absent, "f", {"bytes"});
    ADD_FAILURE() << "wrote into a directory that does not exist";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(absent), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(DurableFileTest, RemovingAMissingFileThrows) {
  EXPECT_THROW(RemoveFileDurably(dir_, "absent"), IoError);
}

TEST(CondVarTest, WaitUntilReturnsFalseWhenTheDeadlinePasses) {
  Mutex mutex;
  CondVar cv;
  MutexLock lock(&mutex);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  // Nothing notifies, so only a spurious wake-up returns true before the
  // deadline; a WaitUntil that never reported the timeout would spin.
  int wakeups = 0;
  while (cv.WaitUntil(lock, deadline) && ++wakeups < 100) {
  }
  EXPECT_LT(wakeups, 100);
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

TEST(CondVarTest, WaitUntilReturnsTrueWhenNotified) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  bool notified = false;
  std::thread notifier;
  {
    MutexLock lock(&mutex);
    // Started under the lock, so it can set `ready` only while this
    // thread waits.  time_point::max() is the wait with no deadline.
    notifier = std::thread([&] {
      MutexLock notifier_lock(&mutex);
      ready = true;
      cv.NotifyOne();
    });
    do {
      notified = cv.WaitUntil(
          lock, std::chrono::steady_clock::time_point::max());
    } while (notified && !ready);
  }
  notifier.join();
  EXPECT_TRUE(notified);
  EXPECT_TRUE(ready);
}

}  // namespace
}  // namespace cfsf::util
