// int8 quantized inference driver: owns quantization (weights at load,
// activations on the fly), the (m, n) tiling and thread fan-out, and the
// float dequant epilogue. Per-tile integer accumulation is delegated to
// the backend selected by simd::ActiveMode(). See quant.h for the scheme
// and determinism contract.

#include "tensor/quant.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/gemm.h"
#include "tensor/quant_internal.h"
#include "tensor/simd.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace cpdg::tensor {
namespace {

constexpr int64_t MR = kQuantMR;

thread_local const QuantizedParamSet* t_quant_set = nullptr;

quant_internal::QuantMicroKernelFn ActiveQuantMicroKernel() {
#ifdef CPDG_HAVE_AVX2_KERNELS
  if (simd::ActiveMode() == simd::Mode::kAvx2) {
    return quant_internal::Avx2QuantMicroKernel();
  }
#endif
  return quant_internal::ScalarQuantMicroKernel();
}

/// Quantizes one float row onto the int8 grid, stored pre-widened as
/// int16 (the kernel operand layout), and returns its scale. This TU is
/// compiled exactly once (baseline ISA) and shared by both weight-load and
/// activation paths, so quantized values never depend on the runtime SIMD
/// backend choice; the SSE2 body and the lrintf fallback/tail both round
/// to nearest-even under default rounding modes.
float QuantizeRowWide(const float* src, int64_t n, int16_t* dst) {
  float maxabs = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    maxabs = std::max(maxabs, std::fabs(src[i]));
  }
  if (maxabs == 0.0f) {
    std::fill(dst, dst + n, static_cast<int16_t>(0));
    return 0.0f;
  }
  const float inv = 127.0f / maxabs;
  int64_t i = 0;
#if defined(__SSE2__)
  // Activations are quantized on every forward, so the rounding loop is on
  // the serving hot path (unlike weights, quantized once at load). The
  // saturating pack cannot clip: |src*inv| <= 127(1+eps) rounds to 127.
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128i lo = _mm_set1_epi16(-127);
  const __m128i hi = _mm_set1_epi16(127);
  for (; i + 8 <= n; i += 8) {
    const __m128i q0 =
        _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(src + i), vinv));
    const __m128i q1 =
        _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(src + i + 4), vinv));
    __m128i q16 = _mm_packs_epi32(q0, q1);
    q16 = _mm_min_epi16(_mm_max_epi16(q16, lo), hi);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), q16);
  }
#endif
  for (; i < n; ++i) {
    const long q = std::lrintf(src[i] * inv);
    dst[i] = static_cast<int16_t>(std::clamp<long>(q, -127, 127));
  }
  return maxabs / 127.0f;
}

/// The same quantization in the vpdpbusd operand convention (quant.h):
/// u8 = q + 128 ∈ [1, 255] (a zero row encodes as all-128, the biased
/// zero). Identical grid integers — the rounding path matches
/// QuantizeRowWide op for op — so the packed backend stays bitwise
/// consistent with the signed ones.
float QuantizeRowBiasedU8(const float* src, int64_t n, uint8_t* dst) {
  float maxabs = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    maxabs = std::max(maxabs, std::fabs(src[i]));
  }
  if (maxabs == 0.0f) {
    std::fill(dst, dst + n, static_cast<uint8_t>(128));
    return 0.0f;
  }
  const float inv = 127.0f / maxabs;
  int64_t i = 0;
#if defined(__SSE2__)
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128i lo = _mm_set1_epi16(-127);
  const __m128i hi = _mm_set1_epi16(127);
  const __m128i vbias = _mm_set1_epi16(128);
  for (; i + 16 <= n; i += 16) {
    const __m128i q0 =
        _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(src + i), vinv));
    const __m128i q1 =
        _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(src + i + 4), vinv));
    const __m128i q2 =
        _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(src + i + 8), vinv));
    const __m128i q3 =
        _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(src + i + 12), vinv));
    __m128i a16 = _mm_packs_epi32(q0, q1);
    __m128i b16 = _mm_packs_epi32(q2, q3);
    a16 = _mm_add_epi16(_mm_min_epi16(_mm_max_epi16(a16, lo), hi), vbias);
    b16 = _mm_add_epi16(_mm_min_epi16(_mm_max_epi16(b16, lo), hi), vbias);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_packus_epi16(a16, b16));
  }
#endif
  for (; i < n; ++i) {
    const long q = std::lrintf(src[i] * inv);
    dst[i] = static_cast<uint8_t>(std::clamp<long>(q, -127, 127) + 128);
  }
  return maxabs / 127.0f;
}

}  // namespace

QuantizedMatrix QuantizeRowsInt8(const float* src, int64_t rows,
                                 int64_t cols) {
  QuantizedMatrix q;
  q.rows = rows;
  q.cols = cols;
  q.wide.resize(static_cast<size_t>(rows * cols));
  q.scales.resize(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    q.scales[static_cast<size_t>(r)] =
        QuantizeRowWide(src + r * cols, cols, q.wide.data() + r * cols);
  }
  // AVX-VNNI pack + bias (quant.h layout). Plain byte shuffling — built on
  // every platform so the layout itself is portable and testable; only the
  // kernel that consumes it is ISA-gated.
  q.kpad = (cols + 3) & ~int64_t{3};
  const int64_t nblk = (rows + 7) / 8;
  q.packed.assign(static_cast<size_t>(nblk * q.kpad * 8), 0);
  q.bias.resize(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    int32_t sum = 0;
    const int16_t* vrow = q.wide.data() + r * cols;
    int8_t* const blk = q.packed.data() + (r / 8) * q.kpad * 8 + (r % 8) * 4;
    for (int64_t c = 0; c < cols; ++c) {
      sum += vrow[c];
      // Every grid value is on [-127, 127] by construction.
      blk[(c / 4) * 32 + (c % 4)] = static_cast<int8_t>(vrow[c]);
    }
    q.bias[static_cast<size_t>(r)] = 128 * sum;
  }
  return q;
}

QuantizedMatrix QuantizeTransposeInt8(const float* src, int64_t rows,
                                      int64_t cols) {
  // Materialize the transpose once (load time only), then quantize its
  // rows — one scale per original column.
  std::vector<float> transposed(static_cast<size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      transposed[static_cast<size_t>(c * rows + r)] = src[r * cols + c];
    }
  }
  return QuantizeRowsInt8(transposed.data(), cols, rows);
}

#ifdef CPDG_HAVE_VNNI_KERNELS
/// vpdpbusd execution path: biased-u8 activations against the
/// lane-interleaved pack, bias subtracted in the epilogue (quant.h).
/// Bitwise identical to the strip path — same grid integers, same exact
/// int32 sums after correction, same epilogue float expression.
void QuantGemmPackedVnni(const float* a, int64_t m, int64_t k,
                         const QuantizedMatrix& bt, float* c) {
  const int64_t n = bt.rows;
  const int64_t kpad = bt.kpad;
  const int64_t nblk = (n + 7) / 8;
  const int64_t row_tiles = (m + MR - 1) / MR;

  // Activation rows at kpad stride, buffer padded to whole MR tiles: the
  // kernel always reads MR rows and full k-quads. Pad contents are never
  // zeroed — k-tail quads multiply packed zeros and pad rows' lanes are
  // skipped by the epilogue — but resize() zero-fills on growth anyway.
  // Each row tile quantizes its own rows inside the region.
  static thread_local std::vector<uint8_t> au_buf;
  static thread_local std::vector<float> ascale_buf;
  au_buf.resize(static_cast<size_t>(row_tiles * MR * kpad));
  ascale_buf.resize(static_cast<size_t>(m));

  const quant_internal::QuantPackedKernelFn micro =
      quant_internal::VnniPackedKernel();
  uint8_t* const aq = au_buf.data();
  float* const ascale = ascale_buf.data();
  const int8_t* const bq = bt.packed.data();
  const int32_t* const bbias = bt.bias.data();
  const float* const bscale = bt.scales.data();

  auto run_tiles = [=](int64_t t0, int64_t t1) {
    static thread_local std::vector<int32_t> acc_buf;
    acc_buf.resize(static_cast<size_t>(MR * nblk * 8));
    int32_t* const acc = acc_buf.data();
    const int64_t ldacc = nblk * 8;
    for (int64_t tr = t0; tr < t1; ++tr) {
      const int64_t i0 = tr * MR;
      const int64_t mvalid = std::min<int64_t>(MR, m - i0);
      for (int64_t i = i0; i < i0 + mvalid; ++i) {
        ascale[i] = QuantizeRowBiasedU8(a + i * k, k, aq + i * kpad);
      }
      micro(aq + i0 * kpad, kpad, bq, kpad, nblk, acc, ldacc);
      for (int64_t r = 0; r < mvalid; ++r) {
        const float sa = ascale[i0 + r];
        float* const crow = c + (i0 + r) * n;
        const int32_t* const accrow = acc + r * ldacc;
        for (int64_t j = 0; j < n; ++j) {
          crow[j] +=
              (sa * bscale[j]) * static_cast<float>(accrow[j] - bbias[j]);
        }
      }
    }
  };

  // Passed by one reference, so the region's std::function stays inside
  // its small-object buffer (no allocation per product).
  util::ThreadPool::Global().ParallelFor(
      0, row_tiles, /*grain=*/1,
      [&run_tiles](int64_t t0, int64_t t1) { run_tiles(t0, t1); },
      /*work_units=*/m * k * n / kGemmMinFlopsPerParticipant);
}
#endif  // CPDG_HAVE_VNNI_KERNELS

void QuantGemmTransposedB(const float* a, int64_t m, int64_t k,
                          const QuantizedMatrix& bt, float* c) {
  CPDG_CHECK_EQ(bt.cols, k);
  const int64_t n = bt.rows;
  if (m == 0 || n == 0 || k == 0) return;

#ifdef CPDG_HAVE_VNNI_KERNELS
  if (simd::ActiveMode() == simd::Mode::kAvx2 && simd::AvxVnniSupported() &&
      !bt.packed.empty()) {
    QuantGemmPackedVnni(a, m, k, bt, c);
    return;
  }
#endif

  // Activation quantization, row by row inside each row tile of the
  // region. Buffers are thread_local and reused across calls, like the
  // GEMM pack buffers. Quantized straight into the widened kernel layout;
  // the int8 form is never materialized for activations.
  static thread_local std::vector<int16_t> aq_buf;
  static thread_local std::vector<float> ascale_buf;
  aq_buf.resize(static_cast<size_t>(m * k));
  ascale_buf.resize(static_cast<size_t>(m));

  const quant_internal::QuantMicroKernelFn micro = ActiveQuantMicroKernel();
  // Hoisted pointers: the buffers are thread_local, so naming them inside
  // the worker lambda would resolve to each worker's own instance.
  int16_t* const aq = aq_buf.data();
  float* const ascale = ascale_buf.data();
  const int16_t* const bq = bt.wide.data();
  const float* const bscale = bt.scales.data();

  const int64_t row_tiles = (m + MR - 1) / MR;
  auto run_tiles = [=](int64_t t0, int64_t t1) {
    // Whole-strip accumulator, one backend call per row tile (the seam is
    // an indirect call; per-tile dispatch measurably dominated small
    // products). Per worker thread, reused across tiles.
    static thread_local std::vector<int32_t> acc_buf;
    acc_buf.resize(static_cast<size_t>(MR * n));
    int32_t* const acc = acc_buf.data();
    for (int64_t tr = t0; tr < t1; ++tr) {
      const int64_t i0 = tr * MR;
      const int64_t mvalid = std::min<int64_t>(MR, m - i0);
      for (int64_t i = i0; i < i0 + mvalid; ++i) {
        ascale[i] = QuantizeRowWide(a + i * k, k, aq + i * k);
      }
      micro(aq + i0 * k, k, bq, k, k, n, acc, n, mvalid);
      // Dequant epilogue: shared float code, one multiply order, so the
      // backend choice can never show in the output bits.
      for (int64_t r = 0; r < mvalid; ++r) {
        const float sa = ascale[i0 + r];
        float* const crow = c + (i0 + r) * n;
        const int32_t* const accrow = acc + r * n;
        for (int64_t j = 0; j < n; ++j) {
          crow[j] += (sa * bscale[j]) * static_cast<float>(accrow[j]);
        }
      }
    }
  };

  // Same fan-out rule as the fp32 GEMM (one participant per
  // kGemmMinFlopsPerParticipant multiply-adds); tile rows own disjoint C
  // slices and integer accumulation is exact, so any thread count is
  // bitwise identical. Passed by one reference, like the VNNI path.
  util::ThreadPool::Global().ParallelFor(
      0, row_tiles, /*grain=*/1,
      [&run_tiles](int64_t t0, int64_t t1) { run_tiles(t0, t1); },
      /*work_units=*/m * k * n / kGemmMinFlopsPerParticipant);
}

void QuantizedParamSet::AddWeight(const float* data, int64_t rows,
                                  int64_t cols) {
  CPDG_CHECK(data != nullptr);
  weights_.emplace(data, QuantizeTransposeInt8(data, rows, cols));
}

const QuantizedMatrix* QuantizedParamSet::Find(const float* data) const {
  if (weights_.empty()) return nullptr;
  auto it = weights_.find(data);
  return it == weights_.end() ? nullptr : &it->second;
}

int64_t QuantizedParamSet::quantized_bytes() const {
  int64_t total = 0;
  for (const auto& [ptr, q] : weights_) {
    total += static_cast<int64_t>(q.wide.size());
  }
  return total;
}

bool QuantModeEnabled() {
  return t_quant_set != nullptr && !t_quant_set->empty();
}

const QuantizedMatrix* ActiveQuantizedWeight(const float* data) {
  if (t_quant_set == nullptr) return nullptr;
  return t_quant_set->Find(data);
}

QuantModeGuard::QuantModeGuard(const QuantizedParamSet* set)
    : prev_(t_quant_set) {
  t_quant_set = set;
}

QuantModeGuard::~QuantModeGuard() { t_quant_set = prev_; }

}  // namespace cpdg::tensor
