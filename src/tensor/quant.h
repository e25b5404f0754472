#ifndef CPDG_TENSOR_QUANT_H_
#define CPDG_TENSOR_QUANT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace cpdg::tensor {

/// \file int8 quantized inference path for frozen encoders (DESIGN.md §14).
///
/// Scheme: symmetric per-row int8. Each row r of a float matrix gets one
/// scale s_r = maxabs_r / 127 (0 for an all-zero row) and is stored as
/// q = clamp(lrintf(v * (127 / maxabs_r)), -127, 127), so v ≈ q * s_r with
/// |v - q*s_r| <= s_r / 2. Frozen weights are quantized once at checkpoint
/// load as their *transpose* (QuantizeTransposeInt8), which makes the
/// per-row scale a per-output-column scale and turns the inference product
/// A[m,k] · B[k,n] into contiguous row-dot-row int8 products against
/// Bᵀ[n,k]. Activations are quantized per row on the fly inside
/// QuantGemmTransposedB.
///
/// Determinism contract: the int8×int8→int32 accumulation is exact integer
/// arithmetic, so it is associative and every backend / thread count /
/// tile order produces the same int32 accumulators by construction. The
/// only float steps — quantization and the dequant epilogue
/// c += (s_a * s_b) * float(acc) — live in shared driver code compiled
/// once, so the scalar, AVX2, and AVX-VNNI backends are bitwise identical,
/// as are runs at any thread count (pinned by QuantTest).
///
/// Storage vs compute layout: quantized values live on the int8 grid
/// [-127, 127] (that bound is what makes _mm256_madd_epi16 saturation-free
/// and the int32 accumulators exact), but the scalar/AVX2 kernel operands
/// are kept pre-sign-extended as int16. Widening int8 lanes inside the
/// inner loop costs a shuffle-port op per 16 lanes on AVX2 — measured, it
/// caps the kernel below fp32 GEMM throughput; pre-widened operands leave
/// the loop with nothing but loads and multiply-adds.
///
/// AVX-VNNI packed layout: vpdpbusd does 4 u8×s8 MACs per int32 lane —
/// double the int16 rate and 4x the fp32 FMA rate — but wants (a) an
/// unsigned left operand and (b) the 4 k-values of each output column
/// adjacent in one lane. So weights additionally carry a lane-interleaved
/// pack ([col-block of 8][k-quad][8 lanes][4 bytes], zero-padded) and a
/// per-column bias 128·Σ_p b[j][p]; activations are quantized as
/// u8 = q + 128 and the driver epilogue subtracts the bias:
/// Σ (q_a+128)·b = Σ q_a·b + 128·Σ b exactly in int32 for k < ~66k.
/// Lanes then hold whole column sums — no horizontal reductions at all.
/// The grid values are identical, so cross-backend bitwise parity holds.

/// \brief A per-row-scale symmetric int8-grid matrix: element (r, c) is
/// wide[r * cols + c] and dequantizes to wide[r*cols+c] * scales[r].
struct QuantizedMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t kpad = 0;  ///< cols rounded up to the dpbusd quad (4)
  /// Row-major [rows, cols] grid integers on [-127, 127], pre-sign-extended
  /// for the scalar/AVX2 microkernel (file comment).
  std::vector<int16_t> wide;
  /// AVX-VNNI lane-interleaved pack (file comment): ceil(rows/8) blocks of
  /// kpad*8 bytes; block jb, k-quad kb, lane l, byte t holds
  /// wide[(jb*8+l)*cols + kb*4+t], zero beyond rows/cols. Built
  /// unconditionally (load-time cost only) so its layout is testable on
  /// any machine.
  std::vector<int8_t> packed;
  std::vector<int32_t> bias;  ///< [rows]: 128 * Σ_c wide[r*cols+c]
  std::vector<float> scales;  ///< [rows]
};

/// \brief Per-row symmetric int8 quantization of a row-major float matrix.
QuantizedMatrix QuantizeRowsInt8(const float* src, int64_t rows,
                                 int64_t cols);

/// \brief Quantizes the *transpose* of a row-major [rows, cols] matrix:
/// the result has rows' = cols, cols' = rows and one scale per original
/// column. This is the storage layout for frozen weights (see file
/// comment).
QuantizedMatrix QuantizeTransposeInt8(const float* src, int64_t rows,
                                      int64_t cols);

/// \brief Quantized inference product: C[m, n] += dequant(Aq · Btqᵀ),
/// where `bt` holds Bᵀ as [n, k] int8 rows (QuantizeTransposeInt8 of a
/// [k, n] weight) and A's rows are quantized on the fly. C is row-major
/// with leading dimension n. Deterministic per the file contract: bitwise
/// identical across backends and thread counts.
void QuantGemmTransposedB(const float* a, int64_t m, int64_t k,
                          const QuantizedMatrix& bt, float* c);

/// \name Tile constants
/// kQuantMR rows per backend strip call (the driver's unit of thread
/// fan-out); kQuantNR is the B-panel width of the AVX2 register tile.
/// Integer accumulation is exact, so unlike the fp32 GEMM constants these
/// are tunable without recapturing goldens.
/// @{
inline constexpr int64_t kQuantMR = 4;
inline constexpr int64_t kQuantNR = 4;
/// @}

/// \brief Frozen-weight registry for one model: maps a parameter
/// tensor's float data pointer to its pre-quantized transpose. Built once
/// at checkpoint load; immutable afterwards, so concurrent readers need no
/// locking.
class QuantizedParamSet {
 public:
  /// Quantizes the transpose of the row-major [rows, cols] weight and
  /// registers it under its data pointer (the identity ops.cc MatMul uses
  /// to recognize a frozen weight as the rhs operand).
  void AddWeight(const float* data, int64_t rows, int64_t cols);

  /// The quantized transpose registered for `data`, or nullptr.
  const QuantizedMatrix* Find(const float* data) const;

  bool empty() const { return weights_.empty(); }
  int64_t weight_count() const {
    return static_cast<int64_t>(weights_.size());
  }
  /// Grid values held, one per weight element (the int8 payload size;
  /// scales and kernel layouts excluded); for logs and metrics.
  int64_t quantized_bytes() const;

 private:
  std::unordered_map<const float*, QuantizedMatrix> weights_;
};

/// \brief True while a QuantModeGuard with a non-empty set is active on
/// the calling thread.
bool QuantModeEnabled();

/// \brief The active set's quantized transpose for `data`, or nullptr when
/// no guard is active / the pointer is not a registered frozen weight.
const QuantizedMatrix* ActiveQuantizedWeight(const float* data);

/// \brief Scoped int8 execution mode, mirroring InferenceModeGuard: while
/// a guard is alive on the current thread, MatMul answers products whose
/// rhs is a registered frozen weight through the int8 path. Only consulted
/// inside inference mode (the quant path has no backward), and only on the
/// guarded thread — pool workers inside a kernel fan-out never re-dispatch.
/// Pass nullptr to run a scope explicitly in fp32. Guards nest; the
/// referenced set must outlive the guard.
class QuantModeGuard {
 public:
  explicit QuantModeGuard(const QuantizedParamSet* set);
  ~QuantModeGuard();

  QuantModeGuard(const QuantModeGuard&) = delete;
  QuantModeGuard& operator=(const QuantModeGuard&) = delete;

 private:
  const QuantizedParamSet* prev_;
};

}  // namespace cpdg::tensor

#endif  // CPDG_TENSOR_QUANT_H_
