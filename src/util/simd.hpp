#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "util/types.hpp"

/// Portable 8-wide SIMD lanes for the render hot path.
///
/// Two interchangeable implementations sit behind one fixed-width
/// (kLanes = 8) interface:
///
///  - native: AVX2 intrinsics, selected when the translation unit is
///    compiled with -mavx2 (the vizcache_simd CMake interface target adds
///    the flag when -DVIZCACHE_SIMD=ON, the default);
///  - fallback: plain float/int arrays with per-lane loops, selected on
///    non-AVX2 builds and forced by -DVIZCACHE_SIMD=OFF (which defines
///    VIZCACHE_SIMD_FORCE_SCALAR).
///
/// The width is a compile-time constant in BOTH implementations, and the
/// fallback reproduces the native conversion semantics (truncating
/// float->int with INT32_MIN for out-of-range/NaN inputs, IEEE single
/// arithmetic, fmadd rounded once), so callers, tests, and golden images
/// are identical regardless of which implementation is active.
///
/// ODR rule: include this header only from .cpp files (or test TUs built
/// with the same flags) — never from another public header. The lane types
/// differ between flag sets and must not leak across TU boundaries.

#if !defined(VIZCACHE_SIMD_FORCE_SCALAR) && defined(__AVX2__)
#include <immintrin.h>
#define VIZCACHE_SIMD_NATIVE 1
#else
#define VIZCACHE_SIMD_NATIVE 0
#endif

namespace vizcache::simd {

inline constexpr int kLanes = 8;

/// True when this TU compiled against the AVX2 implementation.
inline constexpr bool kNative = VIZCACHE_SIMD_NATIVE != 0;

#if VIZCACHE_SIMD_NATIVE

struct Vf {
  __m256 v;
};
struct Vi {
  __m256i v;
};
/// Per-lane predicate: all-ones (true) or all-zeros (false) float lanes.
struct Mask {
  __m256 v;
};

inline Vf set1(float x) { return {_mm256_set1_ps(x)}; }
inline Vf zero() { return {_mm256_setzero_ps()}; }
inline Vf load(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void store(float* p, Vf a) { _mm256_storeu_ps(p, a.v); }
inline Vf add(Vf a, Vf b) { return {_mm256_add_ps(a.v, b.v)}; }
inline Vf sub(Vf a, Vf b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline Vf mul(Vf a, Vf b) { return {_mm256_mul_ps(a.v, b.v)}; }
inline Vf min(Vf a, Vf b) { return {_mm256_min_ps(a.v, b.v)}; }
inline Vf max(Vf a, Vf b) { return {_mm256_max_ps(a.v, b.v)}; }

inline Vi iset1(i32 x) { return {_mm256_set1_epi32(x)}; }
inline Vi iload(const i32* p) {
  return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
}
inline void istore(i32* p, Vi a) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a.v);
}
inline Vi iadd(Vi a, Vi b) { return {_mm256_add_epi32(a.v, b.v)}; }
inline Vi isub(Vi a, Vi b) { return {_mm256_sub_epi32(a.v, b.v)}; }
inline Vi imullo(Vi a, Vi b) { return {_mm256_mullo_epi32(a.v, b.v)}; }
inline Vi imin(Vi a, Vi b) { return {_mm256_min_epi32(a.v, b.v)}; }
inline Vi imax(Vi a, Vi b) { return {_mm256_max_epi32(a.v, b.v)}; }
/// Lane-wise a > b, all-ones (-1) where true, 0 where false.
inline Vi icmp_gt(Vi a, Vi b) { return {_mm256_cmpgt_epi32(a.v, b.v)}; }
inline Vi iand(Vi a, Vi b) { return {_mm256_and_si256(a.v, b.v)}; }

/// Truncate toward zero; out-of-range and NaN lanes become INT32_MIN
/// (the x86 "integer indefinite" — the fallback mirrors this exactly).
inline Vi to_int(Vf a) { return {_mm256_cvttps_epi32(a.v)}; }
inline Vf to_float(Vi a) { return {_mm256_cvtepi32_ps(a.v)}; }

/// a*b + c, fused (rounded once). The packet raycaster compiles with
/// -ffp-contract=off, so this is where its multiply-adds fuse, in both
/// implementations. vizcache_simd pairs -mavx2 with -mfma; the unfused
/// branch exists only for a TU built with -mavx2 alone.
inline Vf fmadd(Vf a, Vf b, Vf c) {
#if defined(__FMA__)
  return {_mm256_fmadd_ps(a.v, b.v, c.v)};
#else
  return add(mul(a, b), c);
#endif
}

inline Mask cmp_lt(Vf a, Vf b) { return {_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ)}; }
inline Mask cmp_le(Vf a, Vf b) { return {_mm256_cmp_ps(a.v, b.v, _CMP_LE_OQ)}; }
inline Mask cmp_gt(Vf a, Vf b) { return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)}; }
inline Mask cmp_ge(Vf a, Vf b) { return {_mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ)}; }
inline Mask mask_and(Mask a, Mask b) { return {_mm256_and_ps(a.v, b.v)}; }
inline Mask mask_or(Mask a, Mask b) { return {_mm256_or_ps(a.v, b.v)}; }
/// keep & ~drop
inline Mask mask_andnot(Mask keep, Mask drop) {
  return {_mm256_andnot_ps(drop.v, keep.v)};
}

inline Mask mask_from_bits(u32 bits) {
  const __m256i lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i b = _mm256_set1_epi32(static_cast<i32>(bits));
  const __m256i hit =
      _mm256_cmpeq_epi32(_mm256_and_si256(b, lane_bit), lane_bit);
  return {_mm256_castsi256_ps(hit)};
}
inline u32 bits(Mask m) {
  return static_cast<u32>(_mm256_movemask_ps(m.v));
}

/// m ? a : b per lane.
inline Vf select(Mask m, Vf a, Vf b) {
  return {_mm256_blendv_ps(b.v, a.v, m.v)};
}

/// base[idx] per lane; inactive lanes yield 0 and are NOT dereferenced.
inline Vf gather(const float* base, Vi idx, Mask active) {
  return {_mm256_mask_i32gather_ps(_mm256_setzero_ps(), base, idx.v, active.v,
                                   4)};
}

/// base[idx] for EVERY lane — no mask, so every index must be in bounds.
/// Cheaper than the masked form (no mask register copy per gather); used
/// when the whole packet shares one brick and the window clamp already
/// guarantees in-bounds indices for live and retired lanes alike.
inline Vf gather(const float* base, Vi idx) {
  return {_mm256_i32gather_ps(base, idx.v, 4)};
}

/// bases[l][idx[l]] per lane; inactive lanes yield 0 and are NOT
/// dereferenced (their base pointer may be null). Used where a ray packet
/// spans several bricks and no single gather base exists.
inline Vf gather_lanes(const float* const* bases, Vi idx, Mask active) {
  alignas(32) i32 ix[kLanes];
  alignas(32) float out[kLanes];
  istore(ix, idx);
  const u32 m = bits(active);
  for (int l = 0; l < kLanes; ++l) {
    out[l] = (m >> l) & 1u ? bases[l][ix[l]] : 0.0f;
  }
  return load(out);
}

/// Two adjacent floats per lane: lo = base[idx], hi = base[idx + 1].
struct VfPair {
  Vf lo, hi;
};

/// gather_pairs(base, idx) = { base[idx], base[idx+1] } per lane — no
/// mask, so idx and idx+1 must be in bounds for EVERY lane. Plain 8-byte
/// loads instead of gather instructions: a hardware gather moves at most
/// one vector per instruction regardless of element size, while eight
/// independent loads dual-issue on the load ports.
inline VfPair gather_pairs(const float* base, Vi idx) {
  alignas(32) i32 ia[kLanes];
  istore(ia, idx);
  auto pair2 = [base](i32 i0, i32 i1) {
    // memcpy, not a double* cast: the pairs are only float-aligned, and a
    // typed misaligned load is UB even where movsd/movhpd would be fine.
    double d0, d1;
    std::memcpy(&d0, base + i0, sizeof d0);
    std::memcpy(&d1, base + i1, sizeof d1);
    return _mm_castpd_ps(_mm_setr_pd(d0, d1));
  };
  // Pack lane pairs so shuffle_ps (which picks [a0 a2 b0 b2] per 128-bit
  // half) emits the lo/hi columns directly in lane order — no lane-crossing
  // fixup needed afterwards:
  //   a = [l0 h0 l1 h1 | l4 h4 l5 h5], b = [l2 h2 l3 h3 | l6 h6 l7 h7]
  const __m256 a = _mm256_insertf128_ps(
      _mm256_castps128_ps256(pair2(ia[0], ia[1])), pair2(ia[4], ia[5]), 1);
  const __m256 b = _mm256_insertf128_ps(
      _mm256_castps128_ps256(pair2(ia[2], ia[3])), pair2(ia[6], ia[7]), 1);
  return {{_mm256_shuffle_ps(a, b, 0x88)}, {_mm256_shuffle_ps(a, b, 0xDD)}};
}

/// out[c].lane[l] = base[idx[l] + c] for c in [0, 8): one contiguous
/// 8-float load per lane, transposed into 8 column vectors. Every lane's
/// window must be readable — there is no mask. This is the structure-of-
/// arrays form of "each lane reads a small record": 8 loads plus a fixed
/// shuffle network instead of 8 gathers, and no per-column index vectors.
inline void load8_transpose(const float* base, const i32* idx, Vf out[8]) {
  // Each lane's record is read as two 16-byte halves dropped straight into
  // their final 128-bit positions (memory-form vinsertf128 runs on the
  // load ports, not the shuffle port), so no lane-crossing permutes are
  // needed afterwards — just two in-half 4x4 transposes.
  auto two = [base, idx](int l, int o) {
    return _mm256_insertf128_ps(
        _mm256_castps128_ps256(_mm_loadu_ps(base + idx[l] + o)),
        _mm_loadu_ps(base + idx[l + 4] + o), 1);
  };
  auto quad4 = [](__m256 a0, __m256 a1, __m256 a2, __m256 a3, Vf* o) {
    const __m256 t0 = _mm256_unpacklo_ps(a0, a1);
    const __m256 t1 = _mm256_unpackhi_ps(a0, a1);
    const __m256 t2 = _mm256_unpacklo_ps(a2, a3);
    const __m256 t3 = _mm256_unpackhi_ps(a2, a3);
    o[0] = {_mm256_shuffle_ps(t0, t2, 0x44)};
    o[1] = {_mm256_shuffle_ps(t0, t2, 0xEE)};
    o[2] = {_mm256_shuffle_ps(t1, t3, 0x44)};
    o[3] = {_mm256_shuffle_ps(t1, t3, 0xEE)};
  };
  quad4(two(0, 0), two(1, 0), two(2, 0), two(3, 0), out);
  quad4(two(0, 4), two(1, 4), two(2, 4), two(3, 4), out + 4);
}

#else  // ------------------------------------------------------------------

struct Vf {
  float lane[kLanes];
};
struct Vi {
  i32 lane[kLanes];
};
struct Mask {
  bool lane[kLanes];
};

inline Vf set1(float x) {
  Vf r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = x;
  return r;
}
inline Vf zero() { return set1(0.0f); }
inline Vf load(const float* p) {
  Vf r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = p[l];
  return r;
}
inline void store(float* p, Vf a) {
  for (int l = 0; l < kLanes; ++l) p[l] = a.lane[l];
}
inline Vf add(Vf a, Vf b) {
  Vf r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] + b.lane[l];
  return r;
}
inline Vf sub(Vf a, Vf b) {
  Vf r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] - b.lane[l];
  return r;
}
inline Vf mul(Vf a, Vf b) {
  Vf r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] * b.lane[l];
  return r;
}
inline Vf min(Vf a, Vf b) {
  Vf r;
  for (int l = 0; l < kLanes; ++l)
    r.lane[l] = b.lane[l] < a.lane[l] ? b.lane[l] : a.lane[l];
  return r;
}
inline Vf max(Vf a, Vf b) {
  Vf r;
  for (int l = 0; l < kLanes; ++l)
    r.lane[l] = b.lane[l] > a.lane[l] ? b.lane[l] : a.lane[l];
  return r;
}

inline Vi iset1(i32 x) {
  Vi r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = x;
  return r;
}
inline Vi iload(const i32* p) {
  Vi r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = p[l];
  return r;
}
inline void istore(i32* p, Vi a) {
  for (int l = 0; l < kLanes; ++l) p[l] = a.lane[l];
}
inline Vi iadd(Vi a, Vi b) {
  Vi r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] + b.lane[l];
  return r;
}
inline Vi isub(Vi a, Vi b) {
  Vi r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] - b.lane[l];
  return r;
}
inline Vi imullo(Vi a, Vi b) {
  Vi r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] * b.lane[l];
  return r;
}
inline Vi imin(Vi a, Vi b) {
  Vi r;
  for (int l = 0; l < kLanes; ++l)
    r.lane[l] = b.lane[l] < a.lane[l] ? b.lane[l] : a.lane[l];
  return r;
}
inline Vi imax(Vi a, Vi b) {
  Vi r;
  for (int l = 0; l < kLanes; ++l)
    r.lane[l] = b.lane[l] > a.lane[l] ? b.lane[l] : a.lane[l];
  return r;
}
/// Lane-wise a > b, all-ones (-1) where true, 0 where false.
inline Vi icmp_gt(Vi a, Vi b) {
  Vi r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] > b.lane[l] ? -1 : 0;
  return r;
}
inline Vi iand(Vi a, Vi b) {
  Vi r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] & b.lane[l];
  return r;
}

inline Vi to_int(Vf a) {
  Vi r;
  for (int l = 0; l < kLanes; ++l) {
    const float f = a.lane[l];
    // Mirror cvttps: out-of-range and NaN produce the integer indefinite.
    r.lane[l] = (f >= -2147483648.0f && f < 2147483648.0f)
                    ? static_cast<i32>(f)
                    : INT32_MIN;
  }
  return r;
}
inline Vf to_float(Vi a) {
  Vf r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = static_cast<float>(a.lane[l]);
  return r;
}

inline Mask cmp_lt(Vf a, Vf b) {
  Mask r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] < b.lane[l];
  return r;
}
inline Mask cmp_le(Vf a, Vf b) {
  Mask r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] <= b.lane[l];
  return r;
}
inline Mask cmp_gt(Vf a, Vf b) {
  Mask r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] > b.lane[l];
  return r;
}
inline Mask cmp_ge(Vf a, Vf b) {
  Mask r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] >= b.lane[l];
  return r;
}
inline Mask mask_and(Mask a, Mask b) {
  Mask r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] && b.lane[l];
  return r;
}
inline Mask mask_or(Mask a, Mask b) {
  Mask r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = a.lane[l] || b.lane[l];
  return r;
}
inline Mask mask_andnot(Mask keep, Mask drop) {
  Mask r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = keep.lane[l] && !drop.lane[l];
  return r;
}

inline Mask mask_from_bits(u32 b) {
  Mask r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = ((b >> l) & 1u) != 0;
  return r;
}
inline u32 bits(Mask m) {
  u32 b = 0;
  for (int l = 0; l < kLanes; ++l) b |= m.lane[l] ? (1u << l) : 0u;
  return b;
}

inline Vf select(Mask m, Vf a, Vf b) {
  Vf r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = m.lane[l] ? a.lane[l] : b.lane[l];
  return r;
}

inline Vf gather(const float* base, Vi idx, Mask active) {
  Vf r;
  for (int l = 0; l < kLanes; ++l)
    r.lane[l] = active.lane[l] ? base[idx.lane[l]] : 0.0f;
  return r;
}

inline Vf gather(const float* base, Vi idx) {
  Vf r;
  for (int l = 0; l < kLanes; ++l) r.lane[l] = base[idx.lane[l]];
  return r;
}

inline Vf gather_lanes(const float* const* bases, Vi idx, Mask active) {
  Vf r;
  for (int l = 0; l < kLanes; ++l)
    r.lane[l] = active.lane[l] ? bases[l][idx.lane[l]] : 0.0f;
  return r;
}

struct VfPair {
  Vf lo, hi;
};

inline VfPair gather_pairs(const float* base, Vi idx) {
  VfPair r;
  for (int l = 0; l < kLanes; ++l) {
    r.lo.lane[l] = base[idx.lane[l]];
    r.hi.lane[l] = base[idx.lane[l] + 1];
  }
  return r;
}

/// a*b + c, rounded once per lane like the native _mm256_fmadd_ps, so the
/// two implementations agree bit for bit. Without FMA instructions
/// std::fma is a software routine: the portable build trades speed for
/// identical results.
inline Vf fmadd(Vf a, Vf b, Vf c) {
  Vf r;
  for (int l = 0; l < kLanes; ++l)
    r.lane[l] = std::fma(a.lane[l], b.lane[l], c.lane[l]);
  return r;
}

inline void load8_transpose(const float* base, const i32* idx, Vf out[8]) {
  for (int c = 0; c < 8; ++c) {
    for (int l = 0; l < kLanes; ++l) out[c].lane[l] = base[idx[l] + c];
  }
}

#endif  // VIZCACHE_SIMD_NATIVE

inline bool any(Mask m) { return bits(m) != 0; }
inline int count(Mask m) { return std::popcount(bits(m)); }

/// a + (b - a) * t per lane — the lerp shape both trilinear sampling and
/// the LUT lookup use, with the multiply-add fused.
inline Vf lerp(Vf a, Vf b, Vf t) { return fmadd(sub(b, a), t, a); }

}  // namespace vizcache::simd
