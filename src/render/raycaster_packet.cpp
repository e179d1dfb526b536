// SIMD ray-packet render path: 8 coherent rays per packet through a
// block-coherent 3D-DDA traversal (see raycast_packet in raycaster.hpp).
//
// Division of labor:
//  - per-lane SEGMENT bookkeeping (DDA stepping, residency, segment sample
//    bounds) is scalar double-precision code, so segment boundaries, sample
//    counts, and non-resident skip counts do not depend on the lane width
//    or on which lanes share a packet;
//  - the per-SAMPLE inner loop (trilinear fetch, transfer-function LUT
//    lookup, front-to-back compositing) runs across all lanes at once
//    through util/simd.hpp, with per-lane masks retiring lanes on early-out
//    opacity termination and ray exit without disturbing their neighbors.
//
// A packet's lanes usually share one brick (adjacent pixels, coherent
// rays); the corner fetches then use a single gather base. When coherence
// breaks at a brick boundary the fetches fall back to per-lane loads
// (simd::gather_lanes) while every other vector op stays packed.
//
// The vector loop runs in "runs" bounded by the earliest lane segment
// boundary (n_run = min over lanes), so with 8 staggered rays a run is
// roughly segment_length/8 iterations. All per-lane state (positions,
// window clamps, gather bases, accumulators) therefore lives in packet-
// scope arrays that persist across runs: a segment refill touches only the
// lane that changed, and a run restart costs one batch of vector loads
// instead of rebuilding every lane.
//
// viz_render compiles with -ffp-contract=off (src/render/CMakeLists.txt):
// scalar a*b+c here is never fused; only simd::fmadd fuses, alike in the
// AVX2 and the portable build.

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "render/raycaster.hpp"
#include "render/raycaster_detail.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace vizcache {

namespace {

namespace sd = simd;
using render_detail::for_each_row;
using render_detail::intersect_volume;
using render_detail::make_ray_frame;
using render_detail::pixel_ray_dir;
using render_detail::RayFrame;

constexpr int kL = sd::kLanes;

/// Per-ray state of one packet lane; see advance_segment().
struct Lane {
  enum class Phase : u8 {
    kRetired,      ///< no ray, ray exited, or opacity-terminated
    kNeedSegment,  ///< must run the scalar DDA to find a resident segment
    kSampling,     ///< has a resident segment [k, k_end) ready to sample
  };

  Vec3 dir;                       ///< normalized ray direction
  double o[3] = {0.0, 0.0, 0.0};  ///< ray origin (eye)
  double d[3] = {0.0, 0.0, 0.0};  ///< == dir, per-axis
  double va[3] = {0.0, 0.0, 0.0};  ///< voxel-space affine: s(t) = va + t*vb
  double vb[3] = {0.0, 0.0, 0.0};
  double t_entry = 0.0;
  double t_far = 0.0;
  i64 cx = 0, cy = 0, cz = 0;  ///< DDA block coords (signed for stepping)
  BlockId id = kInvalidBlock;
  u64 k = 0;      ///< global sample index (t_k = t_entry + k*step)
  u64 k_end = 0;  ///< first sample index past the current segment
  // Brick hoists of the current resident segment.
  const float* data = nullptr;
  i32 wx0 = 0, wy0 = 0, wz0 = 0;
  i32 wx1 = 0, wy1 = 0, wz1 = 0;
  i32 rx = 0, rxy = 0;
  u32 stride = 1;  ///< sampling stride of the current block (1, 2, or 4)
  Phase phase = Phase::kRetired;
};

/// Scalar per-lane DDA advance: walk blocks from the lane's current
/// position until a resident segment with samples is found (-> kSampling)
/// or the ray is exhausted (-> kRetired). Sample positions are indexed
/// globally (t_k = t_entry + k*step), so a skipped segment advances k
/// without perturbing the positions of later samples — they stay the
/// reference path's.
void advance_segment(Lane& ln, const BlockGrid& grid,
                     const BrickSampler& bricks, const SamplingMask* mask,
                     const Vec3& eye, double step, const Dims3& gdims,
                     RaycastStats& rs) {
  while (true) {
    const double t = ln.t_entry + static_cast<double>(ln.k) * step;
    if (t >= ln.t_far) {
      ln.phase = Lane::Phase::kRetired;
      return;
    }
    if (ln.id == kInvalidBlock) {
      // (Re-)anchor the DDA at the current sample. Only needed at ray
      // entry, where the sample can sit on a volume face and land a ulp
      // outside; every later segment is reached by coordinate stepping.
      ln.id = grid.block_at_normalized(eye + ln.dir * t);
      if (ln.id == kInvalidBlock) {
        ++ln.k;
        continue;
      }
      const BlockCoord c = grid.coord_of(ln.id);
      ln.cx = static_cast<i64>(c.bx);
      ln.cy = static_cast<i64>(c.by);
      ln.cz = static_cast<i64>(c.bz);
    }

    // Exit distance of the current block along the ray, and which axis the
    // ray leaves through.
    const AABB box = grid.block_bounds(ln.id);
    const double lo[3] = {box.lo.x, box.lo.y, box.lo.z};
    const double hi[3] = {box.hi.x, box.hi.y, box.hi.z};
    double t_exit = std::numeric_limits<double>::infinity();
    int exit_axis = -1;
    for (int axis = 0; axis < 3; ++axis) {
      if (std::abs(ln.d[axis]) < 1e-12) continue;
      double bound = ln.d[axis] > 0.0 ? hi[axis] : lo[axis];
      double tb = (bound - ln.o[axis]) / ln.d[axis];
      if (tb < t_exit) {
        t_exit = tb;
        exit_axis = axis;
      }
    }
    if (exit_axis < 0) {
      ln.phase = Lane::Phase::kRetired;  // degenerate direction
      return;
    }
    const double seg_end = std::min(t_exit, ln.t_far);
    const double n_end = std::ceil((seg_end - ln.t_entry) / step);
    const u64 k_end = n_end <= 0.0 ? 0 : static_cast<u64>(n_end);

    const BrickView view = bricks.brick(ln.id);
    if (view.resident() && ln.k < k_end) {
      ln.wx0 = static_cast<i32>(view.ox);
      ln.wy0 = static_cast<i32>(view.oy);
      ln.wz0 = static_cast<i32>(view.oz);
      ln.wx1 = ln.wx0 + static_cast<i32>(view.ex) - 1;
      ln.wy1 = ln.wy0 + static_cast<i32>(view.ey) - 1;
      ln.wz1 = ln.wz0 + static_cast<i32>(view.ez) - 1;
      ln.rx = static_cast<i32>(view.ex);
      ln.rxy = static_cast<i32>(view.ex * view.ey);
      ln.data = view.data;
      ln.stride = mask != nullptr ? mask->stride_of(ln.id) : 1u;
      ln.k_end = k_end;
      ln.phase = Lane::Phase::kSampling;
      return;
    }
    if (!view.resident() && k_end > ln.k) {
      // O(1) non-resident skip: jump to the first sample index at or
      // beyond the segment end, and count the positions jumped over.
      rs.skipped += k_end - ln.k;
      ln.k = k_end;
    }
    if (t_exit >= ln.t_far) {
      ln.phase = Lane::Phase::kRetired;
      return;
    }
    // DDA step into the neighbor block through the exit face.
    i64* coord = exit_axis == 0 ? &ln.cx : (exit_axis == 1 ? &ln.cy : &ln.cz);
    *coord += ln.d[exit_axis] > 0.0 ? 1 : -1;
    if (ln.cx < 0 || ln.cy < 0 || ln.cz < 0 ||
        ln.cx >= static_cast<i64>(gdims.x) ||
        ln.cy >= static_cast<i64>(gdims.y) ||
        ln.cz >= static_cast<i64>(gdims.z)) {
      ln.phase = Lane::Phase::kRetired;  // stepped off the grid
      return;
    }
    ln.id = grid.id_of({static_cast<usize>(ln.cx), static_cast<usize>(ln.cy),
                        static_cast<usize>(ln.cz)});
  }
}

}  // namespace

usize raycast_packet_width() { return static_cast<usize>(sd::kLanes); }

bool raycast_packet_native() { return sd::kNative; }

Image raycast_packet(const Camera& camera, const BrickSampler& bricks,
                     const TransferFunctionLUT& lut,
                     const RaycastParams& params, ThreadPool* pool,
                     RaycastStats* stats, const SamplingMask* mask) {
  VIZ_REQUIRE(params.step_size > 0.0, "raycast step must be positive");
  VIZ_REQUIRE(params.value_max > params.value_min, "empty value range");
  VIZ_REQUIRE(std::abs(lut.step_size() - params.step_size) <= 1e-12,
              "transfer-function LUT was baked for a different step size");
  const BlockGrid& grid = bricks.grid();
  if (mask != nullptr) {
    VIZ_REQUIRE(mask->stride.size() == grid.block_count(),
                "sampling mask does not cover the block grid");
    for (const u8 s : mask->stride) {
      VIZ_REQUIRE(s == 1 || s == 2 || s == 4,
                  "sampling mask strides must be 1, 2, or 4");
    }
  }

  Image image(params.image_width, params.image_height);
  const Dims3 dims = grid.volume_dims();
  const Dims3 gdims = grid.grid_dims();
  const RayFrame frame = make_ray_frame(camera, params);
  const float inv_range = 1.0f / (params.value_max - params.value_min);
  const double step = params.step_size;
  const double dimsd[3] = {static_cast<double>(dims.x),
                           static_cast<double>(dims.y),
                           static_cast<double>(dims.z)};
  const bool transparent_at_min = lut.sample(0.0f).a <= 0.0f;
  // LUT raw node array: 4 floats per entry, lerped between nodes i0 and
  // i0+1 exactly like TransferFunctionLUT::sample.
  const float* lutf = lut.flat();
  const i32 lut_last = static_cast<i32>(lut.resolution()) - 1;

  auto render_row = [&](usize y, RaycastStats& rs) {
    const sd::Vf one = sd::set1(1.0f);
    const sd::Vf two = sd::set1(2.0f);
    const sd::Vf vzero = sd::zero();
    const sd::Vf v_vmin = sd::set1(params.value_min);
    const sd::Vf v_tcut =
        sd::set1(transparent_at_min ? params.value_min
                                    : -std::numeric_limits<float>::max());
    const sd::Vf v_invr = sd::set1(inv_range);
    const sd::Vf v_scale = sd::set1(static_cast<float>(lut.resolution()));
    const sd::Vi v_last = sd::iset1(lut_last);
    const sd::Vi v_four = sd::iset1(4);
    const sd::Vi ione = sd::iset1(1);
    const sd::Vf v_early = sd::set1(params.early_termination);

    for (usize x0 = 0; x0 < params.image_width;
         x0 += static_cast<usize>(kL)) {
      const int nlanes = static_cast<int>(
          std::min<usize>(static_cast<usize>(kL), params.image_width - x0));

      // Packet-persistent per-lane state. The vector loop reads these as
      // whole vectors; segment refills rewrite only the slots of the lane
      // that changed. Tail/retired lanes keep zeroed (or stale-but-masked)
      // slots — the window clamps keep any index they produce in-bounds,
      // and the lane masks keep them out of every result.
      Lane lanes[kL];
      alignas(32) float accr_a[kL] = {}, accg_a[kL] = {}, accb_a[kL] = {},
                        acca_a[kL] = {};
      alignas(32) float sx_a[kL] = {}, sy_a[kL] = {}, sz_a[kL] = {};
      alignas(32) float bx_a[kL] = {}, by_a[kL] = {}, bz_a[kL] = {};
      alignas(32) i32 wx0_a[kL] = {}, wy0_a[kL] = {}, wz0_a[kL] = {};
      alignas(32) i32 wx1_a[kL] = {}, wy1_a[kL] = {}, wz1_a[kL] = {};
      alignas(32) i32 rx_a[kL] = {}, rxy_a[kL] = {};
      const float* bases[kL] = {};
      u32 s2_bits = 0, s4_bits = 0;
      u32 hit_bits = 0;

      for (int l = 0; l < nlanes; ++l) {
        const Vec3 dir =
            pixel_ray_dir(frame, params, x0 + static_cast<usize>(l), y);
        const auto hit = intersect_volume(frame.eye, dir);
        if (!hit) continue;
        ++rs.rays;
        hit_bits |= 1u << l;
        Lane& ln = lanes[l];
        ln.dir = dir;
        ln.t_entry = hit->first;
        ln.t_far = hit->second;
        ln.o[0] = frame.eye.x;
        ln.o[1] = frame.eye.y;
        ln.o[2] = frame.eye.z;
        ln.d[0] = dir.x;
        ln.d[1] = dir.y;
        ln.d[2] = dir.z;
        for (int axis = 0; axis < 3; ++axis) {
          ln.va[axis] = (ln.o[axis] + 1.0) * 0.5 * dimsd[axis] - 0.5;
          ln.vb[axis] = ln.d[axis] * 0.5 * dimsd[axis];
        }
        ln.phase = Lane::Phase::kNeedSegment;
      }

      // Refill lane l's packet slots for its freshly advanced segment:
      // voxel coordinates re-anchored from the double-precision affine form
      // s(t) = va + t*vb at the lane's current sample (so float stepping
      // drifts by at most one segment, ~1e-5 voxel), window clamps,
      // strides, and gather base.
      auto fill_lane = [&](int l) {
        const Lane& ln = lanes[l];
        const double t0 = ln.t_entry + static_cast<double>(ln.k) * step;
        sx_a[l] = static_cast<float>(ln.va[0] + t0 * ln.vb[0]);
        sy_a[l] = static_cast<float>(ln.va[1] + t0 * ln.vb[1]);
        sz_a[l] = static_cast<float>(ln.va[2] + t0 * ln.vb[2]);
        const float sf = static_cast<float>(ln.stride);
        bx_a[l] = static_cast<float>(step * ln.vb[0]) * sf;
        by_a[l] = static_cast<float>(step * ln.vb[1]) * sf;
        bz_a[l] = static_cast<float>(step * ln.vb[2]) * sf;
        wx0_a[l] = ln.wx0;
        wy0_a[l] = ln.wy0;
        wz0_a[l] = ln.wz0;
        wx1_a[l] = ln.wx1;
        wy1_a[l] = ln.wy1;
        wz1_a[l] = ln.wz1;
        rx_a[l] = ln.rx;
        rxy_a[l] = ln.rxy;
        bases[l] = ln.data;
        const u32 bit = 1u << l;
        s2_bits = (s2_bits & ~bit) | (ln.stride == 2 ? bit : 0u);
        s4_bits = (s4_bits & ~bit) | (ln.stride == 4 ? bit : 0u);
      };

      // Lane phases as bitmasks, maintained incrementally so each run's
      // scalar phase touches only the lanes that actually changed instead
      // of re-scanning all eight.
      u32 samp_bits = 0;
      u32 need_bits = hit_bits;
      while (true) {
        // Scalar phase: give every lane that needs one a fresh resident
        // segment (or retire it). This is where packet coherence breaks
        // are absorbed — each lane walks its own DDA independently, and
        // only refilled lanes touch the packet arrays.
        for (u32 b = need_bits; b != 0; b &= b - 1) {
          const int l = std::countr_zero(b);
          Lane& ln = lanes[l];
          advance_segment(ln, grid, bricks, mask, frame.eye, step, gdims, rs);
          if (ln.phase == Lane::Phase::kSampling) {
            fill_lane(l);
            samp_bits |= 1u << l;
          }
        }
        need_bits = 0;
        if (samp_bits == 0) break;

        // Run length: every sampling lane marches until its segment is
        // exhausted; the run stops at the earliest boundary so the packet
        // re-fills with fresh segments instead of idling lanes. Strides are
        // powers of two, so the remainder is a shift, never a divide.
        u64 n_run = std::numeric_limits<u64>::max();
        const float* base0 = nullptr;
        bool same_base = true;
        for (u32 b = samp_bits; b != 0; b &= b - 1) {
          const Lane& ln = lanes[std::countr_zero(b)];
          const u64 rem =
              (ln.k_end - ln.k + ln.stride - 1) >> std::countr_zero(ln.stride);
          n_run = std::min(n_run, rem);
          if (base0 == nullptr) {
            base0 = ln.data;
          } else if (ln.data != base0) {
            same_base = false;
          }
        }
        if (same_base) {
          // The shared-brick fast path fetches x-adjacent corner pairs in
          // one load, which needs at least two voxels of x extent.
          const Lane& ln0 = lanes[std::countr_zero(samp_bits)];
          same_base = ln0.wx1 > ln0.wx0;
        }
        const bool any_stride = ((s2_bits | s4_bits) & samp_bits) != 0;

        u32 live_bits = samp_bits;

        // The vector loop, specialized at compile time on (single gather
        // base?, any strided lane?). The rare variants would otherwise keep
        // extra values live across the whole loop and push the common
        // one-brick full-rate case into stack spills.
        //
        // The loop is fissioned into two passes over a small chunk buffer:
        // pass 1 turns positions into trilinear sample values, pass 2 turns
        // values into composited color. One fused iteration is ~200 uops —
        // more than the reorder buffer can hold twice — so the long
        // fetch->lerp->LUT->composite dependency chain never overlaps
        // across samples. Split, each pass is small enough for the CPU to
        // keep 2-3 iterations in flight.
        auto vec_loop = [&](auto same_base_c, auto any_stride_c) {
          constexpr bool kSameBase = decltype(same_base_c)::value;
          constexpr bool kAnyStride = decltype(any_stride_c)::value;

          sd::Vf sx = sd::load(sx_a), sy = sd::load(sy_a), sz = sd::load(sz_a);
          const sd::Vf bxv = sd::load(bx_a), byv = sd::load(by_a),
                       bzv = sd::load(bz_a);
          // One brick -> one window: broadcast its bounds instead of
          // reading the per-lane arrays (retired lanes then clamp into the
          // live brick too, which keeps every index in bounds and lets the
          // gathers run unmasked). The shared window also allows clamping
          // the float positions instead of both integer corners per axis:
          // whenever the clamp acts, either the two corners collapse or the
          // fraction becomes 0, so the interpolated value is unchanged —
          // at 4 ops per axis instead of 7.
          sd::Vf w0xf, w0yf, w0zf, w1xf, w1yf, w1zf;
          sd::Vi wx1m, wy1i, wz1i, biasv;
          sd::Vi wx0, wy0, wz0, wx1, wy1, wz1;
          sd::Vi rxv, rxyv;
          if constexpr (kSameBase) {
            const Lane& ln0 = lanes[std::countr_zero(samp_bits)];
            w0xf = sd::set1(static_cast<float>(ln0.wx0));
            w0yf = sd::set1(static_cast<float>(ln0.wy0));
            w0zf = sd::set1(static_cast<float>(ln0.wz0));
            w1xf = sd::set1(static_cast<float>(ln0.wx1));
            w1yf = sd::set1(static_cast<float>(ln0.wy1));
            w1zf = sd::set1(static_cast<float>(ln0.wz1));
            wx1m = sd::iset1(ln0.wx1 - 1);
            wy1i = sd::iset1(ln0.wy1);
            wz1i = sd::iset1(ln0.wz1);
            // Indices stay in volume voxel coords; the brick-local rebase
            // (-w0 per axis) folds into one subtract on the x corners.
            biasv = sd::iset1(ln0.wz0 * ln0.rxy + ln0.wy0 * ln0.rx + ln0.wx0);
            rxv = sd::iset1(ln0.rx);
            rxyv = sd::iset1(ln0.rxy);
          } else {
            wx0 = sd::iload(wx0_a);
            wy0 = sd::iload(wy0_a);
            wz0 = sd::iload(wz0_a);
            wx1 = sd::iload(wx1_a);
            wy1 = sd::iload(wy1_a);
            wz1 = sd::iload(wz1_a);
            rxv = sd::iload(rx_a);
            rxyv = sd::iload(rxy_a);
          }
          sd::Vf vaccr = sd::load(accr_a), vaccg = sd::load(accg_a),
                 vaccb = sd::load(accb_a), vacca = sd::load(acca_a);
          sd::Mask m_live = sd::mask_from_bits(live_bits);
          // Pass 1 gathers with the run's full sampling mask, not the
          // shrinking live mask: every sampling lane's base stays valid for
          // the whole run, so fetching a few samples past a lane's
          // retirement point is safe (and masked out of the color).
          const sd::Mask m_fetch = sd::mask_from_bits(samp_bits);
          // Stats accumulate in scalar registers and flush once per run:
          // adding to the shared counters inside the loop would force a
          // store (and an aliasing reload of every hoisted pointer) per
          // sample.
          u64 n_samples = 0;
          u64 n_composited = 0;

          auto fetch = [&](sd::Vi idx) {
            if constexpr (kSameBase) {
              return sd::gather(base0, idx);
            } else {
              return sd::gather_lanes(bases, idx, m_fetch);
            }
          };

          constexpr u64 kChunk = 32;
          alignas(32) float vbuf[kChunk * kL];
          // Shared-brick staging buffers between the index pass and the
          // fetch pass (see below); one chunk's worth of corner indices
          // and interpolation fractions.
          [[maybe_unused]] alignas(32) i32 ib00[kChunk * kL];
          [[maybe_unused]] alignas(32) i32 ib10[kChunk * kL];
          [[maybe_unused]] alignas(32) i32 ib01[kChunk * kL];
          [[maybe_unused]] alignas(32) i32 ib11[kChunk * kL];
          [[maybe_unused]] alignas(32) float fbx[kChunk * kL];
          [[maybe_unused]] alignas(32) float fby[kChunk * kL];
          [[maybe_unused]] alignas(32) float fbz[kChunk * kL];
          for (u64 cbeg = 0; cbeg < n_run; cbeg += kChunk) {
            const u64 cend = std::min(n_run, cbeg + kChunk);

            // Pass 1: positions -> trilinear sample values. The shared-
            // brick path splits this again — index arithmetic first, corner
            // fetches second — so the fetch loop's loads depend only on a
            // staging-buffer read, not on the whole position -> clamp ->
            // convert -> multiply chain, and several iterations' loads stay
            // in flight at once.
            if constexpr (kSameBase) {
              for (u64 i = cbeg; i < cend; ++i) {
                const u64 o = (i - cbeg) * kL;
                const sd::Vf sxc = sd::min(sd::max(sx, w0xf), w1xf);
                const sd::Vf syc = sd::min(sd::max(sy, w0yf), w1yf);
                const sd::Vf szc = sd::min(sd::max(sz, w0zf), w1zf);
                const sd::Vi iy = sd::to_int(syc);
                const sd::Vi iz = sd::to_int(szc);
                // The two x corners are adjacent in memory, so each
                // (z, y) plane pair comes from ONE paired fetch at xp,
                // chosen so [xp, xp+1] stays inside the window; at the
                // high edge the fraction becomes exactly 1 instead.
                const sd::Vi xp = sd::imin(sd::to_int(sxc), wx1m);
                sd::store(fbx + o, sd::sub(sxc, sd::to_float(xp)));
                sd::store(fby + o, sd::sub(syc, sd::to_float(iy)));
                sd::store(fbz + o, sd::sub(szc, sd::to_float(iz)));
                // The +1 corner is one row (dy) / one plane (dz) away, or
                // the same row/plane when the clamp collapses it at the
                // window's high edge — a compare+and instead of a second
                // multiply per axis.
                const sd::Vi dy = sd::iand(sd::icmp_gt(wy1i, iy), rxv);
                const sd::Vi dz = sd::iand(sd::icmp_gt(wz1i, iz), rxyv);
                const sd::Vi xb = sd::isub(xp, biasv);
                const sd::Vi i00 = sd::iadd(
                    sd::iadd(sd::imullo(iz, rxyv), sd::imullo(iy, rxv)), xb);
                const sd::Vi i01 = sd::iadd(i00, dz);
                sd::istore(ib00 + o, i00);
                sd::istore(ib10 + o, sd::iadd(i00, dy));
                sd::istore(ib01 + o, i01);
                sd::istore(ib11 + o, sd::iadd(i01, dy));
                sx = sd::add(sx, bxv);
                sy = sd::add(sy, byv);
                sz = sd::add(sz, bzv);
              }
              for (u64 i = cbeg; i < cend; ++i) {
                const u64 o = (i - cbeg) * kL;
                const sd::VfPair p00 = sd::gather_pairs(base0, sd::iload(ib00 + o));
                const sd::VfPair p10 = sd::gather_pairs(base0, sd::iload(ib10 + o));
                const sd::VfPair p01 = sd::gather_pairs(base0, sd::iload(ib01 + o));
                const sd::VfPair p11 = sd::gather_pairs(base0, sd::iload(ib11 + o));
                const sd::Vf fx = sd::load(fbx + o);
                const sd::Vf c00 = sd::lerp(p00.lo, p00.hi, fx);
                const sd::Vf c10 = sd::lerp(p10.lo, p10.hi, fx);
                const sd::Vf c01 = sd::lerp(p01.lo, p01.hi, fx);
                const sd::Vf c11 = sd::lerp(p11.lo, p11.hi, fx);
                const sd::Vf fy = sd::load(fby + o);
                const sd::Vf c0 = sd::lerp(c00, c10, fy);
                const sd::Vf c1 = sd::lerp(c01, c11, fy);
                sd::store(vbuf + o, sd::lerp(c0, c1, sd::load(fbz + o)));
              }
            } else
            for (u64 i = cbeg; i < cend; ++i) {
              sd::Vf fy, fz;
              sd::Vf c00, c10, c01, c11;
              {
                // Mixed bricks: truncate-and-clamp both integer corners
                // into each lane's own window. Truncation matches floor
                // inside the volume (s >= 0); where both corners clamp to
                // one voxel the fraction cancels out.
                const sd::Vi ix = sd::to_int(sx);
                const sd::Vi iy = sd::to_int(sy);
                const sd::Vi iz = sd::to_int(sz);
                const sd::Vf fx = sd::sub(sx, sd::to_float(ix));
                fy = sd::sub(sy, sd::to_float(iy));
                fz = sd::sub(sz, sd::to_float(iz));
                const sd::Vi x0v =
                    sd::isub(sd::imin(sd::imax(ix, wx0), wx1), wx0);
                const sd::Vi x1v = sd::isub(
                    sd::imin(sd::imax(sd::iadd(ix, ione), wx0), wx1), wx0);
                const sd::Vi y0v =
                    sd::isub(sd::imin(sd::imax(iy, wy0), wy1), wy0);
                const sd::Vi y1v = sd::isub(
                    sd::imin(sd::imax(sd::iadd(iy, ione), wy0), wy1), wy0);
                const sd::Vi z0v =
                    sd::isub(sd::imin(sd::imax(iz, wz0), wz1), wz0);
                const sd::Vi z1v = sd::isub(
                    sd::imin(sd::imax(sd::iadd(iz, ione), wz0), wz1), wz0);
                const sd::Vi zr0 = sd::imullo(z0v, rxyv);
                const sd::Vi zr1 = sd::imullo(z1v, rxyv);
                const sd::Vi yr0 = sd::imullo(y0v, rxv);
                const sd::Vi yr1 = sd::imullo(y1v, rxv);
                const sd::Vi zy00 = sd::iadd(zr0, yr0);
                const sd::Vi zy10 = sd::iadd(zr0, yr1);
                const sd::Vi zy01 = sd::iadd(zr1, yr0);
                const sd::Vi zy11 = sd::iadd(zr1, yr1);
                c00 = sd::lerp(fetch(sd::iadd(zy00, x0v)),
                               fetch(sd::iadd(zy00, x1v)), fx);
                c10 = sd::lerp(fetch(sd::iadd(zy10, x0v)),
                               fetch(sd::iadd(zy10, x1v)), fx);
                c01 = sd::lerp(fetch(sd::iadd(zy01, x0v)),
                               fetch(sd::iadd(zy01, x1v)), fx);
                c11 = sd::lerp(fetch(sd::iadd(zy11, x0v)),
                               fetch(sd::iadd(zy11, x1v)), fx);
              }
              const sd::Vf c0 = sd::lerp(c00, c10, fy);
              const sd::Vf c1 = sd::lerp(c01, c11, fy);
              sd::store(vbuf + (i - cbeg) * kL, sd::lerp(c0, c1, fz));

              sx = sd::add(sx, bxv);
              sy = sd::add(sy, byv);
              sz = sd::add(sz, bzv);
            }

            // Pass 2: values -> LUT color -> front-to-back compositing,
            // with per-lane retirement.
            for (u64 it = cbeg; it < cend; ++it) {
              const sd::Vf value = sd::load(vbuf + (it - cbeg) * kL);

              // Transparent-at-minimum is folded into an always-on
              // compare: when the volume floor maps to visible opacity,
              // the cut sits below every representable value and never
              // fires.
              sd::Mask m_contrib =
                  sd::mask_andnot(m_live, sd::cmp_le(value, v_tcut));
              // Whole packet transparent: nothing composites and the
              // accumulators cannot move, so the LUT lookup and the
              // retirement check are both dead — skip straight to the
              // sample count. Coherent rays cross empty regions together,
              // so this branch predicts well.
              if (!sd::any(m_contrib)) {
                n_samples += static_cast<u64>(std::popcount(live_bits));
                continue;
              }

              // LUT lookup (premultiplied, opacity-corrected entries),
              // lerped between nodes exactly like
              // TransferFunctionLUT::sample. Each lane reads its two
              // adjacent entries (8 contiguous floats) in one load; the
              // transpose yields the lo/hi channel columns with no index
              // vectors and no gathers.
              const sd::Vf vn = sd::min(
                  sd::max(sd::mul(sd::sub(value, v_vmin), v_invr), vzero),
                  one);
              const sd::Vf u = sd::mul(vn, v_scale);
              const sd::Vi i0 = sd::imin(sd::to_int(u), v_last);
              const sd::Vf tt = sd::sub(u, sd::to_float(i0));
              alignas(32) i32 fbase_a[kL];
              sd::istore(fbase_a, sd::imullo(i0, v_four));
              sd::Vf ent[8];
              sd::load8_transpose(lutf, fbase_a, ent);
              sd::Vf er = sd::lerp(ent[0], ent[4], tt);
              sd::Vf eg = sd::lerp(ent[1], ent[5], tt);
              sd::Vf eb = sd::lerp(ent[2], ent[6], tt);
              sd::Vf ea = sd::lerp(ent[3], ent[7], tt);
              m_contrib = sd::mask_and(m_contrib, sd::cmp_gt(ea, vzero));

              if constexpr (kAnyStride) {
                // Exact opacity-correction rescale for strided blocks: the
                // LUT bakes ac = 1-(1-a)^(step*10); a stride-s block
                // integrates an s-times longer effective step, so the
                // corrected alpha is 1-(1-ac)^s. Premultiplied channels
                // scale by the same factor:
                //   s=2: f = 2-ac          s=4: f = (2-ac)*(1+(1-ac)^2)
                const sd::Mask m_s2 = sd::mask_from_bits(s2_bits);
                const sd::Mask m_s4 = sd::mask_from_bits(s4_bits);
                const sd::Vf om = sd::sub(one, ea);
                const sd::Vf f2 = sd::sub(two, ea);
                const sd::Vf f4 = sd::mul(f2, sd::fmadd(om, om, one));
                const sd::Vf f =
                    sd::select(m_s2, f2, sd::select(m_s4, f4, one));
                er = sd::mul(er, f);
                eg = sd::mul(eg, f);
                eb = sd::mul(eb, f);
                ea = sd::mul(ea, f);
              }

              // Front-to-back compositing: each lane owns its accumulator,
              // so the cross-sample dependency is per-lane and fully
              // packed.
              const sd::Vf w =
                  sd::select(m_contrib, sd::sub(one, vacca), vzero);
              vaccr = sd::fmadd(er, w, vaccr);
              vaccg = sd::fmadd(eg, w, vaccg);
              vaccb = sd::fmadd(eb, w, vaccb);
              vacca = sd::fmadd(ea, w, vacca);
              n_composited += static_cast<u64>(sd::count(m_contrib));
              n_samples += static_cast<u64>(std::popcount(live_bits));

              // Masked lane retirement on early-out opacity termination.
              const sd::Mask m_done =
                  sd::mask_and(sd::cmp_ge(vacca, v_early), m_live);
              if (sd::any(m_done)) {
                const u32 db = sd::bits(m_done);
                for (u32 b = db; b != 0; b &= b - 1) {
                  Lane& ln = lanes[std::countr_zero(b)];
                  ln.k += (it + 1) * ln.stride;
                  ln.phase = Lane::Phase::kRetired;
                }
                live_bits &= ~db;
                if (live_bits == 0) break;
                m_live = sd::mask_from_bits(live_bits);
              }
            }
            if (live_bits == 0) break;
          }

          sd::store(sx_a, sx);
          sd::store(sy_a, sy);
          sd::store(sz_a, sz);
          sd::store(accr_a, vaccr);
          sd::store(accg_a, vaccg);
          sd::store(accb_a, vaccb);
          sd::store(acca_a, vacca);
          rs.samples += n_samples;
          rs.composited += n_composited;
        };

        if (same_base) {
          if (any_stride) {
            vec_loop(std::true_type{}, std::true_type{});
          } else {
            vec_loop(std::true_type{}, std::false_type{});
          }
        } else if (any_stride) {
          vec_loop(std::false_type{}, std::true_type{});
        } else {
          vec_loop(std::false_type{}, std::false_type{});
        }

        // Lanes retired mid-run (ET) are already out of live_bits; of the
        // rest, exhausted segments go back to the scalar phase and the
        // others keep sampling next run.
        u32 keep = 0;
        for (u32 b = live_bits; b != 0; b &= b - 1) {
          const u32 bit = b & (~b + 1);
          Lane& ln = lanes[std::countr_zero(b)];
          ln.k += n_run * ln.stride;
          if (ln.k >= ln.k_end) {
            ln.phase = Lane::Phase::kNeedSegment;
            need_bits |= bit;
          } else {
            keep |= bit;
          }
        }
        samp_bits = keep;
      }

      for (int l = 0; l < nlanes; ++l) {
        if ((hit_bits >> l) & 1u) {
          image.at(x0 + static_cast<usize>(l), y) = {accr_a[l], accg_a[l],
                                                     accb_a[l], acca_a[l]};
        }
      }
    }
  };

  for_each_row(params, pool, stats, render_row);
  return image;
}

}  // namespace vizcache
