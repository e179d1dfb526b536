#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "render/brick_sampler.hpp"
#include "render/raycaster.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "volume/block_store.hpp"
#include "volume/generators.hpp"

namespace vizcache {
namespace {

/// Fully-resident brick set over the analytic ball, bricked 4x4x4.
struct BallScene {
  BallScene()
      : store(make_ball_volume({32, 32, 32}), {8, 8, 8}),
        bricks(store.grid()) {
    bricks.load_all(store);
  }
  SyntheticBlockStore store;
  ResidentBrickSet bricks;
};

RaycastParams strict_params() {
  RaycastParams p;
  p.image_width = 48;
  p.image_height = 48;
  p.step_size = 0.02;
  // Early termination compares accumulated alpha against a threshold; the
  // two paths can disagree on the flip sample at default 0.98 and then
  // diverge by a whole sample's contribution. Disable it for golden runs.
  p.early_termination = 1.0f;
  return p;
}

double max_channel_diff(const Image& a, const Image& b) {
  double worst = 0.0;
  for (usize y = 0; y < a.height(); ++y) {
    for (usize x = 0; x < a.width(); ++x) {
      const Rgba& pa = a.at(x, y);
      const Rgba& pb = b.at(x, y);
      worst = std::max({worst, std::abs(static_cast<double>(pa.r - pb.r)),
                        std::abs(static_cast<double>(pa.g - pb.g)),
                        std::abs(static_cast<double>(pa.b - pb.b)),
                        std::abs(static_cast<double>(pa.a - pb.a))});
    }
  }
  return worst;
}

/// Golden comparison: the packet image must match the scalar reference
/// path over the same residency set within tol per channel.
void expect_packet_matches_reference(const BrickSampler& bricks,
                                     const TransferFunction& tf,
                                     const RaycastParams& p, double tol,
                                     usize lut_resolution = 1024) {
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  const TransferFunctionLUT lut(tf, p.step_size, lut_resolution);
  Image packet = raycast_packet(cam, bricks, lut, p);
  Image ref = raycast(cam, make_reference_sampler(bricks), tf, p);
  EXPECT_LT(max_channel_diff(packet, ref), tol);
  EXPECT_GT(packet.coverage(), 0.05);
}

TEST(PacketRaycaster, WidthIsEightInBothBuilds) {
  // The packet width is a fixed compile-time constant in the native AVX2
  // build AND the portable fallback — goldens and stats are identical
  // regardless of which implementation is active.
  EXPECT_EQ(raycast_packet_width(), 8u);
  // viz_render's packet TU and this test TU link the same vizcache_simd
  // flags, so their notion of "native" must agree (ODR guard).
  EXPECT_EQ(raycast_packet_native(), simd::kNative);
}

TEST(PacketRaycaster, GoldenGrayscale) {
  BallScene s;
  expect_packet_matches_reference(s.bricks, TransferFunction::grayscale(),
                                  strict_params(), 1e-3);
}

TEST(PacketRaycaster, GoldenFire) {
  BallScene s;
  expect_packet_matches_reference(s.bricks, TransferFunction::fire(),
                                  strict_params(), 1e-3);
}

TEST(PacketRaycaster, GoldenCoolWarm) {
  BallScene s;
  expect_packet_matches_reference(s.bricks, TransferFunction::cool_warm(),
                                  strict_params(), 1e-3);
}

TEST(PacketRaycaster, GoldenIsoBandNeedsResolution) {
  // A narrow iso band has steep opacity kinks: the default 1024-entry LUT
  // smooths them past 1e-3, a denser table does not.
  BallScene s;
  TransferFunction band =
      TransferFunction::iso_band(0.4f, 0.5f, {0.9f, 0.3f, 0.1f, 0.6f});
  expect_packet_matches_reference(s.bricks, band, strict_params(), 1e-3,
                                  16384);
}

TEST(PacketRaycaster, GoldenPartialResidency) {
  // Evict every 3rd brick: packet lanes must skip exactly the regions the
  // reference sampler reports as non-resident.
  BallScene s;
  const usize n = s.store.grid().block_count();
  for (BlockId id = 0; id < n; id += 3) s.bricks.evict(id);
  ASSERT_LT(s.bricks.resident_count(), n);
  ASSERT_GT(s.bricks.resident_count(), 0u);
  expect_packet_matches_reference(s.bricks, TransferFunction::fire(),
                                  strict_params(), 1e-3);
}

/// Stats runs disable early termination (threshold above any reachable
/// alpha), so every ray walks to its exit and the counts depend only on the
/// sample lattice and the residency set.
RaycastParams stats_params() {
  RaycastParams p = strict_params();
  p.early_termination = 2.0f;
  return p;
}

const Camera kStatsCameras[] = {Camera({2.4, 1.2, 0.7}, 38.0),
                                Camera({3.0, 0.0, 0.0}, 40.0),
                                Camera({-0.8, -2.6, 1.1}, 30.0),
                                Camera({-1.5, 2.0, -2.0}, 45.0)};

TEST(PacketRaycaster, StatsAccountForEverySamplePosition) {
  // Evicting a brick moves its positions from `samples` to `skipped` and
  // moves no other sample.
  BallScene s;
  const RaycastParams p = stats_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  std::vector<RaycastStats> full(std::size(kStatsCameras));
  for (usize c = 0; c < std::size(kStatsCameras); ++c) {
    (void)raycast_packet(kStatsCameras[c], s.bricks, lut, p, nullptr,
                         &full[c]);
  }

  const usize n = s.store.grid().block_count();
  for (BlockId id = 1; id < n; id += 4) s.bricks.evict(id);
  for (usize c = 0; c < std::size(kStatsCameras); ++c) {
    RaycastStats partial;
    (void)raycast_packet(kStatsCameras[c], s.bricks, lut, p, nullptr,
                         &partial);
    EXPECT_EQ(partial.rays, full[c].rays) << "camera " << c;
    EXPECT_GT(partial.samples, 0u) << "camera " << c;
    EXPECT_GT(partial.skipped, 0u) << "camera " << c;
    EXPECT_EQ(partial.samples + partial.skipped, full[c].samples)
        << "camera " << c;
  }
}

TEST(PacketRaycaster, StatsMatchAtFullResidencyToo) {
  // At full residency the packet path casts the reference's rays and skips
  // nothing. `samples` is not held to the reference's: the reference steps
  // t += step, and an entry sample a ulp outside the volume can land on
  // either side.
  BallScene s;
  const RaycastParams p = stats_params();
  const TransferFunction tf = TransferFunction::fire();
  const TransferFunctionLUT lut(tf, p.step_size);
  for (usize c = 0; c < std::size(kStatsCameras); ++c) {
    RaycastStats ps, ref;
    (void)raycast_packet(kStatsCameras[c], s.bricks, lut, p, nullptr, &ps);
    (void)raycast(kStatsCameras[c], make_reference_sampler(s.bricks), tf, p,
                  nullptr, &ref);
    EXPECT_EQ(ps.rays, ref.rays) << "camera " << c;
    EXPECT_EQ(ps.skipped, 0u) << "camera " << c;
    EXPECT_GT(ps.composited, 0u) << "camera " << c;
    EXPECT_LE(ps.composited, ps.samples) << "camera " << c;
  }
}

TEST(PacketRaycaster, ThreadPoolMatchesSerial) {
  BallScene s;
  const RaycastParams p = strict_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  Image serial = raycast_packet(cam, s.bricks, lut, p, nullptr);
  ThreadPool pool(4);
  Image parallel = raycast_packet(cam, s.bricks, lut, p, &pool);
  for (usize y = 0; y < p.image_height; ++y) {
    for (usize x = 0; x < p.image_width; ++x) {
      EXPECT_FLOAT_EQ(serial.at(x, y).r, parallel.at(x, y).r);
      EXPECT_FLOAT_EQ(serial.at(x, y).a, parallel.at(x, y).a);
    }
  }
}

TEST(PacketRaycaster, EmptyResidencyGivesEmptyImage) {
  BallScene s;
  const usize n = s.store.grid().block_count();
  for (BlockId id = 0; id < n; ++id) s.bricks.evict(id);
  const TransferFunctionLUT lut(TransferFunction::fire(),
                                strict_params().step_size);
  Image img = raycast_packet(Camera({3, 0, 0}, 40.0), s.bricks, lut,
                             strict_params());
  EXPECT_DOUBLE_EQ(img.coverage(), 0.0);
}

TEST(PacketRaycaster, StrideOneMaskIsIdentity) {
  // An all-ones mask must reproduce the unmasked packet image bit-exactly:
  // stride 1 takes the no-rescale select branch with the same positions.
  BallScene s;
  const RaycastParams p = strict_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  const SamplingMask mask =
      SamplingMask::uniform(s.store.grid().block_count(), 1);
  Image plain = raycast_packet(cam, s.bricks, lut, p);
  Image masked = raycast_packet(cam, s.bricks, lut, p, nullptr, nullptr,
                                &mask);
  for (usize y = 0; y < p.image_height; ++y) {
    for (usize x = 0; x < p.image_width; ++x) {
      EXPECT_FLOAT_EQ(plain.at(x, y).r, masked.at(x, y).r);
      EXPECT_FLOAT_EQ(plain.at(x, y).a, masked.at(x, y).a);
    }
  }
}

TEST(PacketRaycaster, AdaptiveStrideBoundsErrorAndCutsSamples) {
  // Uniform coarse strides: the opacity-corrected rescale keeps the image
  // within the documented adaptive bound of the full-rate packet image
  // (DESIGN.md "Render hot path") while evaluating the field 2x/4x less.
  BallScene s;
  const usize n = s.store.grid().block_count();
  RaycastParams p = strict_params();
  p.early_termination = 2.0f;  // keep sample counts exactly comparable
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  RaycastStats full_stats;
  Image full = raycast_packet(cam, s.bricks, lut, p, nullptr, &full_stats);

  const double bound[2] = {0.06, 0.12};  // stride 2, stride 4
  const u8 strides[2] = {2, 4};
  for (int i = 0; i < 2; ++i) {
    const SamplingMask mask = SamplingMask::uniform(n, strides[i]);
    RaycastStats st;
    Image img = raycast_packet(cam, s.bricks, lut, p, nullptr, &st, &mask);
    EXPECT_LT(max_channel_diff(img, full), bound[i]) << "stride "
                                                     << int{strides[i]};
    // Stride s takes every s-th lattice position per segment, so the count
    // is ceil-divided per segment: full/s plus at most one extra sample per
    // ray/block segment (a ray crosses at most ~a dozen bricks here).
    EXPECT_LT(st.samples * strides[i],
              full_stats.samples + full_stats.rays * strides[i] * 16)
        << "stride " << int{strides[i]};
    EXPECT_LT(st.samples * 3 / 2, full_stats.samples)
        << "stride " << int{strides[i]};
  }
}

TEST(PacketRaycaster, MixedStrideMaskStaysWithinCoarsestBound) {
  // Lanes of one packet may carry different strides simultaneously; the
  // per-lane rescale select must apply the right factor to each.
  BallScene s;
  const usize n = s.store.grid().block_count();
  SamplingMask mask = SamplingMask::uniform(n, 1);
  for (usize id = 0; id < n; ++id) {
    mask.stride[id] = id % 3 == 0 ? u8{4} : (id % 3 == 1 ? u8{2} : u8{1});
  }
  const RaycastParams p = strict_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({2.4, 1.2, 0.7}, 38.0);
  Image full = raycast_packet(cam, s.bricks, lut, p);
  Image adaptive = raycast_packet(cam, s.bricks, lut, p, nullptr, nullptr,
                                  &mask);
  EXPECT_LT(max_channel_diff(adaptive, full), 0.12);
}

TEST(PacketRaycaster, RejectsBadMasks) {
  BallScene s;
  const RaycastParams p = strict_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size);
  const Camera cam({3, 0, 0}, 40.0);
  const usize n = s.store.grid().block_count();
  // Stride 3 has no closed-form opacity rescale — rejected loudly.
  SamplingMask bad_stride = SamplingMask::uniform(n, 3);
  EXPECT_THROW(
      raycast_packet(cam, s.bricks, lut, p, nullptr, nullptr, &bad_stride),
      InvalidArgument);
  // A mask that does not cover the grid is a wiring bug, not a default.
  SamplingMask short_mask = SamplingMask::uniform(n - 1, 2);
  EXPECT_THROW(
      raycast_packet(cam, s.bricks, lut, p, nullptr, nullptr, &short_mask),
      InvalidArgument);
}

TEST(PacketRaycaster, MismatchedLutStepThrows) {
  BallScene s;
  RaycastParams p = strict_params();
  const TransferFunctionLUT lut(TransferFunction::fire(), p.step_size * 2.0);
  EXPECT_THROW(raycast_packet(Camera({3, 0, 0}, 40.0), s.bricks, lut, p),
               InvalidArgument);
}

TEST(PacketRaycaster, OddImageWidthCoversTailPixels) {
  // Width 37 leaves a 5-lane tail packet; every volume-hitting pixel must
  // still be rendered.
  BallScene s;
  RaycastParams p = strict_params();
  p.image_width = 37;
  p.image_height = 19;
  expect_packet_matches_reference(s.bricks, TransferFunction::fire(), p,
                                  1e-3);
}

TEST(PacketRaycaster, EarlyTerminationRetiresLanesIndependently) {
  // With a dense transfer function and a low threshold, neighboring lanes
  // terminate at different depths; the image must stay close to the
  // reference (a loose bound: the flip sample is FP-sensitive in both).
  BallScene s;
  RaycastParams p = strict_params();
  p.early_termination = 0.5f;
  expect_packet_matches_reference(s.bricks, TransferFunction::fire(), p,
                                  0.05);
}

TEST(ResidentBrickSet, LoadEvictTracksResidency) {
  BallScene s;
  const usize n = s.store.grid().block_count();
  EXPECT_EQ(s.bricks.resident_count(), n);
  EXPECT_TRUE(s.bricks.resident(0));
  s.bricks.evict(0);
  EXPECT_FALSE(s.bricks.resident(0));
  EXPECT_EQ(s.bricks.resident_count(), n - 1);
  EXPECT_FALSE(s.bricks.brick(0).resident());
  s.bricks.load(s.store, 0);
  EXPECT_TRUE(s.bricks.resident(0));
  EXPECT_EQ(s.bricks.resident_count(), n);
}

}  // namespace
}  // namespace vizcache
