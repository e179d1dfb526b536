#include "render/transfer_function.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace vizcache {
namespace {

TEST(TransferFunction, InterpolatesLinearly) {
  TransferFunction tf({{0.0f, {0, 0, 0, 0}}, {1.0f, {1, 1, 1, 1}}});
  Rgba mid = tf.sample(0.5f);
  EXPECT_FLOAT_EQ(mid.r, 0.5f);
  EXPECT_FLOAT_EQ(mid.a, 0.5f);
  Rgba quarter = tf.sample(0.25f);
  EXPECT_FLOAT_EQ(quarter.g, 0.25f);
}

TEST(TransferFunction, ClampsOutOfRange) {
  TransferFunction tf({{0.2f, {1, 0, 0, 0.1f}}, {0.8f, {0, 1, 0, 0.9f}}});
  EXPECT_FLOAT_EQ(tf.sample(-1.0f).r, 1.0f);
  EXPECT_FLOAT_EQ(tf.sample(2.0f).g, 1.0f);
  EXPECT_FLOAT_EQ(tf.sample(0.1f).r, 1.0f);  // below first point
}

TEST(TransferFunction, SortsControlPoints) {
  TransferFunction tf({{0.9f, {1, 1, 1, 1}}, {0.1f, {0, 0, 0, 0}}});
  EXPECT_LT(tf.points().front().value, tf.points().back().value);
  EXPECT_LT(tf.sample(0.2f).r, tf.sample(0.8f).r);
}

TEST(TransferFunction, ExactControlPointValues) {
  TransferFunction tf(
      {{0.0f, {0, 0, 0, 0}}, {0.5f, {1, 0, 0, 0.5f}}, {1.0f, {0, 0, 1, 1}}});
  Rgba at = tf.sample(0.5f);
  EXPECT_FLOAT_EQ(at.r, 1.0f);
  EXPECT_FLOAT_EQ(at.a, 0.5f);
}

TEST(TransferFunction, ScaleOpacityClamps) {
  TransferFunction tf = TransferFunction::grayscale();
  tf.scale_opacity(10.0f);
  for (const auto& p : tf.points()) {
    EXPECT_LE(p.color.a, 1.0f);
  }
  tf.scale_opacity(0.0f);
  for (const auto& p : tf.points()) {
    EXPECT_FLOAT_EQ(p.color.a, 0.0f);
  }
}

TEST(TransferFunction, PresetsAreValid) {
  for (const TransferFunction& tf :
       {TransferFunction::grayscale(), TransferFunction::fire(),
        TransferFunction::cool_warm()}) {
    EXPECT_GE(tf.points().size(), 2u);
    // Opacity generally grows toward the high end for these presets.
    EXPECT_GT(tf.sample(1.0f).a, tf.sample(0.0f).a);
  }
}

TEST(TransferFunction, IsoBandIsolatesRange) {
  TransferFunction tf =
      TransferFunction::iso_band(0.4f, 0.6f, {1, 0, 0, 0.8f});
  EXPECT_FLOAT_EQ(tf.sample(0.5f).a, 0.8f);
  EXPECT_FLOAT_EQ(tf.sample(0.1f).a, 0.0f);
  EXPECT_FLOAT_EQ(tf.sample(0.9f).a, 0.0f);
}

TEST(TransferFunction, IsoBandRejectsInvertedRange) {
  EXPECT_THROW(TransferFunction::iso_band(0.6f, 0.4f, {1, 0, 0, 1}),
               InvalidArgument);
}

TEST(TransferFunction, EmptyPointsThrow) {
  EXPECT_THROW(TransferFunction(std::vector<TransferFunction::ControlPoint>{}),
               InvalidArgument);
}

TEST(TransferFunctionLUT, ExactAtNodesPremultiplied) {
  const TransferFunction tf = TransferFunction::fire();
  const double step = 0.01;
  const TransferFunctionLUT lut(tf, step, 256);
  for (usize i = 0; i <= 256; ++i) {
    const float v = static_cast<float>(i) / 256.0f;
    const Rgba c = tf.sample(v);
    const float ac =
        1.0f - std::pow(1.0f - c.a, static_cast<float>(step * 10.0));
    const TransferFunctionLUT::Entry e = lut.sample(v);
    EXPECT_NEAR(e.a, ac, 1e-6f);
    EXPECT_NEAR(e.r, c.r * ac, 1e-6f);
    EXPECT_NEAR(e.g, c.g * ac, 1e-6f);
    EXPECT_NEAR(e.b, c.b * ac, 1e-6f);
  }
}

TEST(TransferFunctionLUT, ClampsOutOfRangeAndValidates) {
  const TransferFunction tf = TransferFunction::grayscale();
  const TransferFunctionLUT lut(tf, 0.02);
  const auto lo = lut.sample(-5.0f);
  const auto lo2 = lut.sample(0.0f);
  EXPECT_FLOAT_EQ(lo.a, lo2.a);
  const auto hi = lut.sample(5.0f);
  const auto hi2 = lut.sample(1.0f);
  EXPECT_FLOAT_EQ(hi.a, hi2.a);
  EXPECT_THROW(TransferFunctionLUT(tf, 0.0), InvalidArgument);
  EXPECT_THROW(TransferFunctionLUT(tf, 0.02, 0), InvalidArgument);
}

}  // namespace
}  // namespace vizcache
