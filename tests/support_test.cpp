// Unit tests for the support module: checks, RNG, statistics, least
// squares, tables, and option parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/lsq.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace cpx {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(CPX_CHECK(1 == 2), CheckError);
  try {
    CPX_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(CPX_CHECK(2 + 2 == 4));
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a() == b() ? 1 : 0;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.uniform();
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(Rng, HashMixIsStable) {
  EXPECT_EQ(hash_mix(1, 2, 3), hash_mix(1, 2, 3));
  EXPECT_NE(hash_mix(1, 2, 3), hash_mix(1, 3, 2));
}

TEST(Stats, Summary) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, EmptySummary) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, Errors) {
  EXPECT_DOUBLE_EQ(percent_error(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percent_error(90.0, 100.0), 10.0);
  EXPECT_THROW(relative_error(1.0, 0.0), CheckError);
}

TEST(Lsq, RecoversPolynomial) {
  // y = 3 - 2x + 0.5x^2, exactly representable: Vandermonde rows 1, x, x^2.
  std::vector<double> a;
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    const double x = 0.3 * i;
    a.insert(a.end(), {1.0, x, x * x});
    ys.push_back(3.0 - 2.0 * x + 0.5 * x * x);
  }
  const auto c = solve_normal_equations(a, ys.size(), 3, ys);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_NEAR(c[0], 3.0, 1e-6);
  EXPECT_NEAR(c[1], -2.0, 1e-6);
  EXPECT_NEAR(c[2], 0.5, 1e-6);
}

TEST(Lsq, RecoversRuntimeModel) {
  // The performance-model curve family: T(p) = a/p + b + c*log2(p).
  const double a = 100.0;
  const double b = 0.5;
  const double c = 0.01;
  std::vector<double> design;
  std::vector<double> ys;
  for (double p = 1; p <= 4096; p *= 2) {
    design.insert(design.end(), {1.0 / p, 1.0, std::log2(p)});
    ys.push_back(a / p + b + c * std::log2(p));
  }
  const auto coefs = solve_normal_equations(design, ys.size(), 3, ys);
  EXPECT_NEAR(coefs[0], a, 1e-6);
  EXPECT_NEAR(coefs[1], b, 1e-6);
  EXPECT_NEAR(coefs[2], c, 1e-8);
}

TEST(Lsq, WeightedFitPrefersWeightedPoints) {
  // Two inconsistent clusters fitted by a constant; heavy weights on the
  // second. Weighted least squares scales each row and its right-hand side
  // by sqrt(w).
  const std::vector<double> ys = {0.0, 0.0, 10.0, 10.0};
  const std::vector<double> w = {1.0, 1.0, 99.0, 99.0};
  std::vector<double> a;
  std::vector<double> b;
  for (std::size_t i = 0; i < ys.size(); ++i) {
    a.push_back(std::sqrt(w[i]));
    b.push_back(std::sqrt(w[i]) * ys[i]);
  }
  const auto c = solve_normal_equations(a, ys.size(), 1, b);
  EXPECT_NEAR(c[0], 9.9, 1e-9);
  EXPECT_NEAR(solve_normal_equations(std::vector<double>(4, 1.0), 4, 1, ys)[0],
              5.0, 1e-9);
}

TEST(Lsq, ThrowsOnUnderdetermined) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0};
  EXPECT_THROW(solve_normal_equations(a, 1, 2, b), CheckError);
}

TEST(Table, AlignsAndCounts) {
  Table t({"name", "cores", "time"});
  t.add_row({std::string("mgcfd"), 128LL, 1.5});
  t.add_row({std::string("simpic"), 4096LL, 0.25});
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream oss;
  t.print(oss);
  const std::string s = oss.str();
  EXPECT_NE(s.find("mgcfd"), std::string::npos);
  EXPECT_NE(s.find("4096"), std::string::npos);
}

TEST(Table, RejectsBadRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only one")}), CheckError);
}

TEST(Table, PrecisionControlsDoubleFormatting) {
  Table t({"v"});
  t.set_precision(2);
  t.add_row({3.14159});
  std::ostringstream oss;
  t.print(oss);
  EXPECT_NE(oss.str().find("3.1"), std::string::npos);
  EXPECT_EQ(oss.str().find("3.14159"), std::string::npos);
  EXPECT_THROW(t.set_precision(0), CheckError);
}

TEST(Options, HelpTextListsDescribedKeys) {
  Options o;
  o.describe("cores", "the core budget");
  o.describe("steps", "how many steps");
  const std::string help = o.help_text("prog");
  EXPECT_NE(help.find("--cores"), std::string::npos);
  EXPECT_NE(help.find("how many steps"), std::string::npos);
  EXPECT_NE(help.find("usage: prog"), std::string::npos);
}

TEST(Options, ParsesForms) {
  const char* argv[] = {"prog", "--cores=100", "--mesh=8000000",
                        "--verbose", "pos"};
  const Options o = Options::parse(5, argv);
  EXPECT_EQ(o.get_int("cores", 0), 100);
  EXPECT_EQ(o.get_int("mesh", 0), 8000000);
  EXPECT_TRUE(o.get_bool("verbose", false));
  ASSERT_EQ(o.positionals().size(), 1u);
  EXPECT_EQ(o.positionals()[0], "pos");
  EXPECT_EQ(o.get_double("absent", 2.5), 2.5);
}

TEST(Options, RejectsBadNumbers) {
  const char* argv[] = {"prog", "--cores=abc"};
  const Options o = Options::parse(2, argv);
  EXPECT_THROW(o.get_int("cores", 0), CheckError);
}

TEST(Options, RejectsEmptyNumericValues) {
  // "--iters=" parses as the key "iters" with an empty value; numeric
  // accessors must reject it instead of silently returning 0.
  const char* argv[] = {"prog", "--iters=", "--rate="};
  const Options o = Options::parse(3, argv);
  EXPECT_THROW(o.get_int("iters", 7), CheckError);
  EXPECT_THROW(o.get_double("rate", 7.0), CheckError);
  // The key is still present, and the empty string is a valid string value.
  EXPECT_TRUE(o.has("iters"));
  EXPECT_EQ(o.get_string("iters", "fallback"), "");
}

TEST(Options, RejectsIntegerOverflow) {
  const char* argv[] = {"prog", "--cells=99999999999999999999",
                        "--neg=-99999999999999999999"};
  const Options o = Options::parse(3, argv);
  EXPECT_THROW(o.get_int("cells", 0), CheckError);
  EXPECT_THROW(o.get_int("neg", 0), CheckError);
}

TEST(Options, RejectsDoubleOverflowAcceptsUnderflow) {
  const char* argv[] = {"prog", "--big=1e999", "--neg-big=-1e999",
                        "--tiny=1e-999"};
  const Options o = Options::parse(4, argv);
  EXPECT_THROW(o.get_double("big", 0.0), CheckError);
  EXPECT_THROW(o.get_double("neg-big", 0.0), CheckError);
  // Underflow rounds towards zero; that is a usable value, not an error.
  const double tiny = o.get_double("tiny", 1.0);
  EXPECT_GE(tiny, 0.0);
  EXPECT_LT(tiny, 1e-300);
}

TEST(Options, RejectsTrailingJunkAfterNumbers) {
  const char* argv[] = {"prog", "--n=12x", "--f=3.5q"};
  const Options o = Options::parse(3, argv);
  EXPECT_THROW(o.get_int("n", 0), CheckError);
  EXPECT_THROW(o.get_double("f", 0.0), CheckError);
}

TEST(Options, RejectUnknownNamesTheMisspeltKey) {
  const char* argv[] = {"prog", "--cores=100", "--verbose"};
  const Options o = Options::parse(3, argv);
  EXPECT_NO_THROW(o.reject_unknown({"cores", "verbose", "steps"}));
  try {
    o.reject_unknown({"core", "verbose"});
    ADD_FAILURE() << "--cores was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "unknown option --cores (expected one of --core, "
                  "--verbose)"),
              std::string::npos)
        << e.what();
  }
  // A flag is a key too, and no options at all pass any list.
  EXPECT_THROW(o.reject_unknown({"cores"}), CheckError);
  EXPECT_NO_THROW(Options::parse(1, argv).reject_unknown({}));
}

TEST(Options, DoubleListParsesEachElementStrictly) {
  const char* argv[] = {"prog",        "--ppc=30,100,1.5e3", "--one=7",
                        "--junk=30x",  "--word=abc",         "--gap=30,,100",
                        "--trail=30,", "--empty=",           "--big=1,1e999"};
  const Options o = Options::parse(9, argv);
  EXPECT_EQ(o.get_double_list("ppc", {}),
            (std::vector<double>{30.0, 100.0, 1500.0}));
  EXPECT_EQ(o.get_double_list("one", {}), std::vector<double>{7.0});
  EXPECT_EQ(o.get_double_list("absent", {1.0, 2.0}),
            (std::vector<double>{1.0, 2.0}));
  // Each malformed element is refused with a message naming it.
  const auto message = [&o](const char* key) {
    try {
      o.get_double_list(key, {});
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(message("junk").find("--junk element 1 expects a number, got "
                                 "'30x'"),
            std::string::npos);
  EXPECT_NE(message("word").find("got 'abc'"), std::string::npos);
  EXPECT_NE(message("gap").find("--gap element 2 expects a number, got ''"),
            std::string::npos);
  EXPECT_NE(message("trail").find("--trail element 2"), std::string::npos);
  EXPECT_NE(message("empty").find("--empty element 1"), std::string::npos);
  EXPECT_NE(message("big").find("--big element 2 value '1e999' overflows"),
            std::string::npos);
}

}  // namespace
}  // namespace cpx
