// Explicit SIMD kernel: 4-wide int64 AVX2 over the quartet planes —
// gather the selected pre-computer multiples, variable-shift them into
// place, apply the sign masks with xor/sub, accumulate. Bit-identical
// to the scalar reference because every operation (logical left shift,
// two's-complement negation, wrapping add) matches the scalar op
// exactly; only the (commutative) summation order differs.
//
// Compile-time gate: this translation unit is built with -mavx2 and
// MAN_HAVE_AVX2 only when the build enables it (MAN_ENABLE_AVX2, on by
// default, and the compiler supports the flag). Without it — or on a
// CPU whose CPUID lacks AVX2 at runtime — the backend stays registered
// and runs the portable plane loop (shared with the blocked backend),
// so MAN_BACKEND=simd is always safe and always bit-identical.
#include "man/backend/backend_impls.h"
#include "man/backend/planes_kernel.h"

#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)
#include <immintrin.h>
#endif

namespace man::backend::detail {

namespace {

#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)

bool cpu_has_avx2() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

std::int64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return _mm_extract_epi64(sum, 0) + _mm_extract_epi64(sum, 1);
}

void accumulate_planes_avx2(const DenseLayerPlan& plan,
                            const std::int64_t* multiples,
                            std::int64_t* out) {
  const std::size_t stride = plan.plane_stride();
  const std::uint32_t* idx = plan.idx.data();
  const std::int64_t* shifts = plan.shifts.data();
  const std::int64_t* signs = plan.sign_masks.data();
  const auto* base = reinterpret_cast<const long long*>(multiples);
  for (int r = 0; r < plan.rows; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    __m256i acc = _mm256_setzero_si256();
    for (int c = 0; c < plan.cols_padded; c += kLaneWidth) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      __m256i product = _mm256_setzero_si256();
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const __m128i vidx = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(idx + pc));
        const __m256i m = _mm256_i32gather_epi64(base, vidx, 8);
        const __m256i sh = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(shifts + pc));
        product = _mm256_add_epi64(product, _mm256_sllv_epi64(m, sh));
      }
      const __m256i sign = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(signs + cell));
      product = _mm256_sub_epi64(_mm256_xor_si256(product, sign), sign);
      acc = _mm256_add_epi64(acc, product);
    }
    out[r] = plan.biases[static_cast<std::size_t>(r)] + hsum_epi64(acc);
  }
}

/// The fixed conv tile: 4 output rows × one 4-lane vector.
constexpr ConvTileShape kTile = ConvLayerPlan::tile_avx2;
static_assert(kTile.row_tile == 4 && kTile.col_vecs == 1,
              "conv_tile_rows_avx2 covers row tiles 1..4 of one vector");

// Conv kernel vectorized over output *positions*, not weight columns:
// a conv weight fires at every position with the same idx/shift/sign,
// so consecutive positions of one output row share one broadcast
// plan entry — and in the lane-major multiples layout their reads are
// *contiguous*, so the inner step is a plain 256-bit load plus one
// broadcast-count shift (_mm256_sll_epi64); no gather at all. Each
// plan entry additionally feeds a register-blocked column of RN
// output rows (one vector accumulator each) before the walk moves on,
// so the (often L1-exceeding) plan streams through RN·4 times less
// often. Packed quartet steps let whole absent planes (and zero-step
// weights) skip without touching memory. Positions left of a 4-lane
// row boundary run the same math scalar (conv_positions_scalar), so
// every output is bit-identical to the reference regardless of
// ow % 4.
/// One vectorized tile: RN output rows × one 4-lane column group
/// starting at (oy0, ox), every filter. RN is a compile-time
/// constant so the accumulator/product arrays live in ymm registers.
template <int RN>
void conv_tile_avx2(const ConvLayerPlan& plan,
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
    __m256i acc[RN];
    const __m256i bias =
        _mm256_set1_epi64x(plan.biases[static_cast<std::size_t>(r)]);
    for (int ty = 0; ty < RN; ++ty) acc[ty] = bias;
    for (int c = 0; c < plan.cols_padded; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      if (idx[cell] == plan.zero_base) continue;  // zero-step weight
      __m256i product[RN];
      for (int ty = 0; ty < RN; ++ty) product[ty] = _mm256_setzero_si256();
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const std::uint32_t cell_idx = idx[pc];
        if (cell_idx == plan.zero_base) break;  // steps are packed
        const __m128i sh = _mm_cvtsi32_si128(static_cast<int>(shifts[pc]));
        const std::int64_t* src = multiples + cell_idx + ebase0;
        for (int ty = 0; ty < RN; ++ty) {
          const __m256i m = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
              src + static_cast<std::size_t>(ty) * plan.iw));
          product[ty] = _mm256_add_epi64(product[ty], _mm256_sll_epi64(m, sh));
        }
      }
      const __m256i sign = _mm256_set1_epi64x(signs[cell]);
      for (int ty = 0; ty < RN; ++ty) {
        acc[ty] = _mm256_add_epi64(
            acc[ty],
            _mm256_sub_epi64(_mm256_xor_si256(product[ty], sign), sign));
      }
    }
    for (int ty = 0; ty < RN; ++ty) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(
              out + static_cast<std::size_t>(r) * positions +
              static_cast<std::size_t>(oy0 + ty) * plan.ow + ox),
          acc[ty]);
    }
  }
}

/// Runtime row count (the last row tile may be partial) →
/// compile-time RN dispatch.
void conv_tile_rows_avx2(const ConvLayerPlan& plan,
                         const std::int64_t* multiples, std::int64_t* out,
                         int oy0, int ox, int rn) {
  switch (rn) {
    case 4: conv_tile_avx2<4>(plan, multiples, out, oy0, ox); break;
    case 3: conv_tile_avx2<3>(plan, multiples, out, oy0, ox); break;
    case 2: conv_tile_avx2<2>(plan, multiples, out, oy0, ox); break;
    default: conv_tile_avx2<1>(plan, multiples, out, oy0, ox); break;
  }
}

void accumulate_conv_avx2(const ConvLayerPlan& plan,
                          const std::int64_t* multiples, std::int64_t* out) {
  for (int oy0 = 0; oy0 < plan.oh; oy0 += kTile.row_tile) {
    const int rn = std::min(kTile.row_tile, plan.oh - oy0);
    int ox = 0;
    for (; ox + kLaneWidth <= plan.ow; ox += kLaneWidth) {
      conv_tile_rows_avx2(plan, multiples, out, oy0, ox, rn);
    }
    // Row tail (ow % 4 positions): same walk, one position at a time.
    conv_positions_scalar(plan, multiples, out, oy0, rn, ox);
  }
}

#endif  // MAN_HAVE_AVX2 && __AVX2__

class SimdBackend final : public KernelBackend {
 public:
  SimdBackend() {
#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)
    avx2_ = cpu_has_avx2();
#endif
  }

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kSimd;
  }
  [[nodiscard]] const char* name() const noexcept override { return "simd"; }
  [[nodiscard]] const char* description() const noexcept override {
#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)
    return avx2_ ? "AVX2 gather/sllv over SoA quartet planes"
                 : "portable fallback (CPU lacks AVX2)";
#else
    return "portable fallback (built without AVX2)";
#endif
  }
  [[nodiscard]] bool accelerated() const noexcept override { return avx2_; }

  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int64_t* multiples,
                        std::int64_t* out) const override {
#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)
    if (avx2_) {
      accumulate_planes_avx2(plan, multiples, out);
      return;
    }
#endif
    accumulate_planes(plan, multiples, out);
  }

  void exact_dense(const DenseLayerPlan& plan,
                   const std::int64_t* activations,
                   std::int64_t* out) const override {
    // 64-bit products have no AVX2 multiplier; the blocked loop is
    // already the right shape for the compiler here.
    exact_dense_blocked(plan, activations, out);
  }

  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int64_t* multiples,
                       std::int64_t* out) const override {
#if defined(MAN_HAVE_AVX2) && defined(__AVX2__)
    if (avx2_) {
      accumulate_conv_avx2(plan, multiples, out);
      return;
    }
#endif
    accumulate_conv_planes(plan, multiples, out);
  }

  void exact_conv(const ConvLayerPlan& plan,
                  const std::int64_t* activations,
                  std::int64_t* out) const override {
    // Same reasoning as exact_dense: no 64-bit AVX2 multiplier.
    exact_conv_blocked(plan, activations, out);
  }

 private:
  bool avx2_ = false;
};

}  // namespace

const KernelBackend& simd_backend() {
  static const SimdBackend backend;
  return backend;
}

}  // namespace man::backend::detail
