// AVX-512 kernel: 8-wide int64 over the quartet planes — the AVX2
// backend's structure at twice the vector width (zmm position tiles
// for conv, 8-lane gathers for dense) plus the deeper register file
// (32 zmm) that makes taller row tiles profitable, plus lane masking
// for ragged row tails (no scalar remainder). Bit-identical to
// the scalar reference for the same reason the AVX2 kernel is: every
// operation (logical left shift, two's-complement negation, wrapping
// add) matches the scalar op exactly; only the commutative summation
// order differs. AVX-512VNNI is deliberately not used: it accelerates
// int8/int16 dot products, and the CSHM datapath is int64 shift-add —
// there is no multiply to fuse.
//
// Compile-time gate: this translation unit is built with -mavx512f
// -mavx512vl and MAN_HAVE_AVX512 only when the build enables it
// (MAN_ENABLE_AVX512, on by default, and the compiler supports the
// flags). Without it — or on a CPU whose CPUID lacks AVX-512F/VL at
// runtime — the backend stays registered and runs the portable plane
// loop (shared with the blocked backend), so MAN_BACKEND=avx512 is
// always safe and always bit-identical.
#include "man/backend/backend_impls.h"
#include "man/backend/planes_kernel.h"

#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)
#include <immintrin.h>
#endif

namespace man::backend::detail {

namespace {

#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)

/// int64 lanes of one 512-bit vector.
inline constexpr int kZmmLanes = 8;

bool cpu_has_avx512() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
#else
  return false;
#endif
}

std::int64_t hsum_epi64_256(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return _mm_extract_epi64(sum, 0) + _mm_extract_epi64(sum, 1);
}

void accumulate_planes_avx512(const DenseLayerPlan& plan,
                              const std::int64_t* multiples,
                              std::int64_t* out) {
  const std::size_t stride = plan.plane_stride();
  const std::uint32_t* idx = plan.idx.data();
  const std::int64_t* shifts = plan.shifts.data();
  const std::int64_t* signs = plan.sign_masks.data();
  for (int r = 0; r < plan.rows; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    __m512i acc8 = _mm512_setzero_si512();
    __m256i acc4 = _mm256_setzero_si256();
    const int main = plan.cols_padded / kZmmLanes * kZmmLanes;
    for (int c = 0; c < main; c += kZmmLanes) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      __m512i product = _mm512_setzero_si512();
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const __m256i vidx =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + pc));
        const __m512i m = _mm512_i32gather_epi64(vidx, multiples, 8);
        const __m512i sh = _mm512_loadu_si512(shifts + pc);
        product = _mm512_add_epi64(product, _mm512_sllv_epi64(m, sh));
      }
      const __m512i sign = _mm512_loadu_si512(signs + cell);
      product = _mm512_sub_epi64(_mm512_xor_si512(product, sign), sign);
      acc8 = _mm512_add_epi64(acc8, product);
    }
    // cols_padded is a multiple of kLaneWidth (4), not 8 — one ymm
    // pass covers the remainder.
    for (int c = main; c < plan.cols_padded; c += kLaneWidth) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      __m256i product = _mm256_setzero_si256();
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const __m128i vidx =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + pc));
        const __m256i m = _mm256_i32gather_epi64(
            reinterpret_cast<const long long*>(multiples), vidx, 8);
        const __m256i sh =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(shifts + pc));
        product = _mm256_add_epi64(product, _mm256_sllv_epi64(m, sh));
      }
      const __m256i sign =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(signs + cell));
      product = _mm256_sub_epi64(_mm256_xor_si256(product, sign), sign);
      acc4 = _mm256_add_epi64(acc4, product);
    }
    out[r] = plan.biases[static_cast<std::size_t>(r)] +
             _mm512_reduce_add_epi64(acc8) + hsum_epi64_256(acc4);
  }
}

/// The fixed conv tile: 6 output rows × one 8-lane vector — with 32
/// zmm registers a deeper row tile than the AVX2 kernel's pays off.
constexpr ConvTileShape kTile = ConvLayerPlan::tile_avx512;
static_assert(kTile.row_tile == 6 && kTile.col_vecs == 1,
              "conv_tile_rows_avx512 covers row tiles 1..6 of one vector");

/// One vectorized tile: RN output rows × one 8-lane column group
/// starting at (oy0, ox), every filter — conv_tile_avx2 at zmm width.
template <int RN>
void conv_tile_avx512(const ConvLayerPlan& plan,
                      const std::int64_t* multiples, std::int64_t* out,
                      int oy0, int ox) {
  const std::size_t stride = plan.plane_stride();
  const std::size_t positions = plan.positions();
  const std::uint32_t* idx = plan.idx.data();
  const std::int64_t* shifts = plan.shifts.data();
  const std::int64_t* signs = plan.sign_masks.data();
  const std::size_t ebase0 = static_cast<std::size_t>(oy0) * plan.iw + ox;
  for (int r = 0; r < plan.oc; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    __m512i acc[RN];
    const __m512i bias =
        _mm512_set1_epi64(plan.biases[static_cast<std::size_t>(r)]);
    for (int ty = 0; ty < RN; ++ty) acc[ty] = bias;
    for (int c = 0; c < plan.cols_padded; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      if (idx[cell] == plan.zero_base) continue;  // zero-step weight
      __m512i product[RN];
      for (int ty = 0; ty < RN; ++ty) product[ty] = _mm512_setzero_si512();
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const std::uint32_t cell_idx = idx[pc];
        if (cell_idx == plan.zero_base) break;  // steps are packed
        const __m128i sh = _mm_cvtsi32_si128(static_cast<int>(shifts[pc]));
        const std::int64_t* src = multiples + cell_idx + ebase0;
        for (int ty = 0; ty < RN; ++ty) {
          const __m512i m = _mm512_loadu_si512(
              src + static_cast<std::size_t>(ty) * plan.iw);
          product[ty] =
              _mm512_add_epi64(product[ty], _mm512_sll_epi64(m, sh));
        }
      }
      const __m512i sign = _mm512_set1_epi64(signs[cell]);
      for (int ty = 0; ty < RN; ++ty) {
        acc[ty] = _mm512_add_epi64(
            acc[ty],
            _mm512_sub_epi64(_mm512_xor_si512(product[ty], sign), sign));
      }
    }
    for (int ty = 0; ty < RN; ++ty) {
      _mm512_storeu_si512(
          out + static_cast<std::size_t>(r) * positions +
              static_cast<std::size_t>(oy0 + ty) * plan.ow + ox,
          acc[ty]);
    }
  }
}

/// Masked tail tile: RN output rows × one partial 8-lane column group
/// covering the final ow % 8 positions of each row — the arithmetic
/// of conv_tile_avx512<RN> with lane masking standing in for the
/// scalar tail the narrower ISAs need (the AVX2 kernel loses up to 3
/// positions per row to scalar code; lane masking loses none).
/// Bit-identity is untouched: masked-out lanes are neither read nor
/// written, and active lanes run the exact same ops.
template <int RN>
void conv_tile_tail_avx512(const ConvLayerPlan& plan,
                           const std::int64_t* multiples, std::int64_t* out,
                           int oy0, int ox, __mmask8 mask) {
  const std::size_t stride = plan.plane_stride();
  const std::size_t positions = plan.positions();
  const std::uint32_t* idx = plan.idx.data();
  const std::int64_t* shifts = plan.shifts.data();
  const std::int64_t* signs = plan.sign_masks.data();
  const std::size_t ebase0 = static_cast<std::size_t>(oy0) * plan.iw + ox;
  for (int r = 0; r < plan.oc; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    __m512i acc[RN];
    const __m512i bias =
        _mm512_set1_epi64(plan.biases[static_cast<std::size_t>(r)]);
    for (int ty = 0; ty < RN; ++ty) acc[ty] = bias;
    for (int c = 0; c < plan.cols_padded; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      if (idx[cell] == plan.zero_base) continue;  // zero-step weight
      __m512i product[RN];
      for (int ty = 0; ty < RN; ++ty) product[ty] = _mm512_setzero_si512();
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const std::uint32_t cell_idx = idx[pc];
        if (cell_idx == plan.zero_base) break;  // steps are packed
        const __m128i sh = _mm_cvtsi32_si128(static_cast<int>(shifts[pc]));
        const std::int64_t* src = multiples + cell_idx + ebase0;
        for (int ty = 0; ty < RN; ++ty) {
          const __m512i m = _mm512_maskz_loadu_epi64(
              mask, src + static_cast<std::size_t>(ty) * plan.iw);
          product[ty] =
              _mm512_add_epi64(product[ty], _mm512_sll_epi64(m, sh));
        }
      }
      const __m512i sign = _mm512_set1_epi64(signs[cell]);
      for (int ty = 0; ty < RN; ++ty) {
        acc[ty] = _mm512_add_epi64(
            acc[ty],
            _mm512_sub_epi64(_mm512_xor_si512(product[ty], sign), sign));
      }
    }
    for (int ty = 0; ty < RN; ++ty) {
      _mm512_mask_storeu_epi64(
          out + static_cast<std::size_t>(r) * positions +
              static_cast<std::size_t>(oy0 + ty) * plan.ow + ox,
          mask, acc[ty]);
    }
  }
}

/// Runtime row count (the last row tile may be partial) →
/// compile-time RN dispatch.
void conv_tile_rows_avx512(const ConvLayerPlan& plan,
                           const std::int64_t* multiples, std::int64_t* out,
                           int oy0, int ox, int rn) {
  switch (rn) {
    case 6: conv_tile_avx512<6>(plan, multiples, out, oy0, ox); break;
    case 5: conv_tile_avx512<5>(plan, multiples, out, oy0, ox); break;
    case 4: conv_tile_avx512<4>(plan, multiples, out, oy0, ox); break;
    case 3: conv_tile_avx512<3>(plan, multiples, out, oy0, ox); break;
    case 2: conv_tile_avx512<2>(plan, multiples, out, oy0, ox); break;
    default: conv_tile_avx512<1>(plan, multiples, out, oy0, ox); break;
  }
}

/// The same dispatch for the masked tail tile.
void conv_tile_tail_rows_avx512(const ConvLayerPlan& plan,
                                const std::int64_t* multiples,
                                std::int64_t* out, int oy0, int ox, int rn,
                                __mmask8 mask) {
  switch (rn) {
    case 6:
      conv_tile_tail_avx512<6>(plan, multiples, out, oy0, ox, mask);
      break;
    case 5:
      conv_tile_tail_avx512<5>(plan, multiples, out, oy0, ox, mask);
      break;
    case 4:
      conv_tile_tail_avx512<4>(plan, multiples, out, oy0, ox, mask);
      break;
    case 3:
      conv_tile_tail_avx512<3>(plan, multiples, out, oy0, ox, mask);
      break;
    case 2:
      conv_tile_tail_avx512<2>(plan, multiples, out, oy0, ox, mask);
      break;
    default:
      conv_tile_tail_avx512<1>(plan, multiples, out, oy0, ox, mask);
  }
}

void accumulate_conv_avx512(const ConvLayerPlan& plan,
                            const std::int64_t* multiples,
                            std::int64_t* out) {
  for (int oy0 = 0; oy0 < plan.oh; oy0 += kTile.row_tile) {
    const int rn = std::min(kTile.row_tile, plan.oh - oy0);
    int ox = 0;
    for (; ox + kZmmLanes <= plan.ow; ox += kZmmLanes) {
      conv_tile_rows_avx512(plan, multiples, out, oy0, ox, rn);
    }
    // Row tail (ow % 8 positions): one lane-masked partial vector.
    if (ox < plan.ow) {
      const __mmask8 mask =
          static_cast<__mmask8>((1u << (plan.ow - ox)) - 1u);
      conv_tile_tail_rows_avx512(plan, multiples, out, oy0, ox, rn, mask);
    }
  }
}

#endif  // MAN_HAVE_AVX512 && __AVX512F__ && __AVX512VL__

class Avx512Backend final : public KernelBackend {
 public:
  Avx512Backend() {
#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)
    avx512_ = cpu_has_avx512();
#endif
  }

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kAvx512;
  }
  [[nodiscard]] const char* name() const noexcept override {
    return "avx512";
  }
  [[nodiscard]] const char* description() const noexcept override {
#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)
    return avx512_ ? "AVX-512F/VL 8-lane position tiles over SoA planes"
                   : "portable fallback (CPU lacks AVX-512F/VL)";
#else
    return "portable fallback (built without AVX-512)";
#endif
  }
  [[nodiscard]] bool accelerated() const noexcept override {
    return avx512_;
  }

  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int64_t* multiples,
                        std::int64_t* out) const override {
#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)
    if (avx512_) {
      accumulate_planes_avx512(plan, multiples, out);
      return;
    }
#endif
    accumulate_planes(plan, multiples, out);
  }

  void exact_dense(const DenseLayerPlan& plan,
                   const std::int64_t* activations,
                   std::int64_t* out) const override {
    // 64-bit products need AVX-512DQ's vpmullq; gating on F/VL only,
    // the blocked loop is the right shape for the compiler here.
    exact_dense_blocked(plan, activations, out);
  }

  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int64_t* multiples,
                       std::int64_t* out) const override {
#if defined(MAN_HAVE_AVX512) && defined(__AVX512F__) && defined(__AVX512VL__)
    if (avx512_) {
      accumulate_conv_avx512(plan, multiples, out);
      return;
    }
#endif
    accumulate_conv_planes(plan, multiples, out);
  }

  void exact_conv(const ConvLayerPlan& plan,
                  const std::int64_t* activations,
                  std::int64_t* out) const override {
    // Same reasoning as exact_dense: no 64-bit multiplier without DQ.
    exact_conv_blocked(plan, activations, out);
  }

 private:
  bool avx512_ = false;
};

}  // namespace

const KernelBackend& avx512_backend() {
  static const Avx512Backend backend;
  return backend;
}

}  // namespace man::backend::detail
