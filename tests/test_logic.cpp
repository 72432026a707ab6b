#include <gtest/gtest.h>

#include "logic/cube.hpp"
#include "logic/minimize.hpp"
#include "logic/truthtable.hpp"
#include "util/rng.hpp"

namespace rtcad {
namespace {

TEST(Cube, MintermAndCoverage) {
  const Cube c = Cube::minterm(0b101, 3);
  EXPECT_EQ(c.num_literals(), 3);
  EXPECT_TRUE(c.covers_minterm(0b101));
  EXPECT_FALSE(c.covers_minterm(0b111));
}

TEST(Cube, LiteralManipulation) {
  Cube c;
  c.set_literal(0, true);
  c.set_literal(2, false);
  EXPECT_EQ(c.literal(0), 1);
  EXPECT_EQ(c.literal(1), 0);
  EXPECT_EQ(c.literal(2), -1);
  EXPECT_TRUE(c.covers_minterm(0b001));
  EXPECT_TRUE(c.covers_minterm(0b011));
  EXPECT_FALSE(c.covers_minterm(0b101));
  c.drop_literal(2);
  EXPECT_TRUE(c.covers_minterm(0b101));
}

TEST(Cube, Containment) {
  Cube big;  // a
  big.set_literal(0, true);
  Cube small;  // a b'
  small.set_literal(0, true);
  small.set_literal(1, false);
  EXPECT_TRUE(big.covers(small));
  EXPECT_FALSE(small.covers(big));
  EXPECT_TRUE(Cube::tautology().covers(big));
}

TEST(Cube, Intersection) {
  Cube a;  // x0
  a.set_literal(0, true);
  Cube b;  // x0'
  b.set_literal(0, false);
  EXPECT_FALSE(a.intersects(b));
  Cube c;  // x1
  c.set_literal(1, true);
  EXPECT_TRUE(a.intersects(c));
}

TEST(Cube, ToString) {
  Cube c;
  c.set_literal(0, true);
  c.set_literal(1, false);
  EXPECT_EQ(c.to_string({"a", "b"}), "a b'");
  EXPECT_EQ(Cube::tautology().to_string({"a", "b"}), "1");
}

TEST(Cover, EvalAndLiterals) {
  Cover f(2);
  Cube c0;
  c0.set_literal(0, true);  // a
  Cube c1;
  c1.set_literal(1, true);  // b
  f.cubes = {c0, c1};
  EXPECT_TRUE(f.eval(0b01));
  EXPECT_TRUE(f.eval(0b10));
  EXPECT_FALSE(f.eval(0b00));
  EXPECT_EQ(f.num_literals(), 2);
}

TEST(Cover, RemoveContained) {
  Cover f(2);
  Cube a;  // covers everything with x0=1
  a.set_literal(0, true);
  Cube ab;
  ab.set_literal(0, true);
  ab.set_literal(1, true);
  f.cubes = {a, ab, a};
  f.remove_contained();
  ASSERT_EQ(f.cubes.size(), 1u);
  EXPECT_EQ(f.cubes[0], a);
}

TEST(TruthTable, OnOffDc) {
  TruthTable f(2);
  f.set_on(0b11);
  f.set_dc(0b01);
  EXPECT_TRUE(f.is_on(3));
  EXPECT_TRUE(f.is_dc(1));
  EXPECT_TRUE(f.is_off(0));
  EXPECT_EQ(f.on_count(), 1u);
  f.set_off(3);
  EXPECT_TRUE(f.is_off(3));
}

TEST(TruthTable, FillUnspecifiedWithDcKeepsOnAndSize) {
  TruthTable f(3);
  f.set_on(5);
  f.fill_unspecified_with_dc();
  EXPECT_TRUE(f.is_on(5));
  EXPECT_FALSE(f.is_dc(5));
  EXPECT_EQ(f.dc_count(), 7u);  // no bit past the 8 minterms
  for (std::uint32_t m = 0; m < f.size(); ++m) EXPECT_FALSE(f.is_off(m));
}

TEST(Minimize, AndFunction) {
  TruthTable f(2);
  f.set_on(0b11);
  const Cover c = minimize(f);
  ASSERT_EQ(c.cubes.size(), 1u);
  EXPECT_EQ(c.num_literals(), 2);
}

TEST(Minimize, XorNeedsTwoCubes) {
  TruthTable f(2);
  f.set_on(0b01);
  f.set_on(0b10);
  const Cover c = minimize(f);
  EXPECT_EQ(c.cubes.size(), 2u);
  EXPECT_EQ(c.num_literals(), 4);
}

TEST(Minimize, DontCaresMergeCubes) {
  // ON = {00}, DC = {01, 10, 11}: minimal cover is the tautology.
  TruthTable f(2);
  f.set_on(0b00);
  f.set_dc(0b01);
  f.set_dc(0b10);
  f.set_dc(0b11);
  const Cover c = minimize(f);
  ASSERT_EQ(c.cubes.size(), 1u);
  EXPECT_TRUE(c.cubes[0].is_tautology());
}

TEST(Minimize, ConstantZero) {
  TruthTable f(3);
  const Cover c = minimize(f);
  EXPECT_TRUE(c.empty());
}

TEST(Minimize, ClassicFourVariable) {
  // f = sum of minterms {4,8,10,11,12,15}, dc {9,14} -- a textbook QM
  // example whose minimum has 4 cubes / 9 literals or fewer.
  TruthTable f(4);
  for (std::uint32_t m : {4, 8, 10, 11, 12, 15}) f.set_on(m);
  for (std::uint32_t m : {9, 14}) f.set_dc(m);
  const Cover c = minimize(f);
  EXPECT_TRUE(f.is_implemented_by(c));
  EXPECT_LE(c.cubes.size(), 4u);
}

TEST(Minimize, SingleCubeCover) {
  TruthTable f(3);
  f.set_on(0b110);
  f.set_on(0b111);
  Cube c;
  ASSERT_TRUE(single_cube_cover(f, &c));
  EXPECT_EQ(c.num_literals(), 2);  // x1 x2
  // Make it impossible: spread the ON set so the supercube hits OFF.
  TruthTable g(2);
  g.set_on(0b00);
  g.set_on(0b11);
  EXPECT_FALSE(single_cube_cover(g, &c));
}

class MinimizeRandom : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeRandom, CoverIsCorrectAndIrredundant) {
  // Property: for random incompletely-specified functions, minimize()
  // implements the spec and never uses more cubes than the ON-set size.
  Rng rng(GetParam());
  const int nvars = 3 + static_cast<int>(rng.below(4));  // 3..6
  TruthTable f(nvars);
  std::size_t on = 0;
  for (std::uint32_t m = 0; m < f.size(); ++m) {
    const double p = rng.uniform();
    if (p < 0.3) {
      f.set_on(m);
      ++on;
    } else if (p < 0.5) {
      f.set_dc(m);
    }
  }
  const Cover c = minimize(f);
  EXPECT_TRUE(f.is_implemented_by(c));
  EXPECT_FALSE(f.cover_hits_off(c));
  EXPECT_LE(c.cubes.size(), std::max<std::size_t>(on, 1));
  // Every cube must be a prime implicant (maximal): dropping any literal
  // hits the OFF set.
  for (const auto& cube : c.cubes) {
    for (int v = 0; v < nvars; ++v) {
      if (cube.literal(v) == 0) continue;
      Cube weaker = cube;
      weaker.drop_literal(v);
      Cover w(nvars);
      w.cubes = {weaker};
      EXPECT_TRUE(f.cover_hits_off(w))
          << "cube not prime for seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeRandom, ::testing::Range(1, 33));

TEST(Primes, AllPrimesOfSmallFunction) {
  // f(a,b) = a'b + ab' + ab = a + b; primes: {a, b}.
  TruthTable f(2);
  f.set_on(0b01);
  f.set_on(0b10);
  f.set_on(0b11);
  const auto primes = prime_implicants(f);
  EXPECT_EQ(primes.size(), 2u);
  for (const auto& p : primes) EXPECT_EQ(p.num_literals(), 1);
}

}  // namespace
}  // namespace rtcad
