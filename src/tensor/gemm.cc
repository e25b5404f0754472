// Packed, cache-blocked GEMM driver: owns the blocking loops, operand
// packing, the output tiling and the thread fan-out; per-tile arithmetic is
// delegated to the backend microkernel selected by simd::ActiveMode(). See
// gemm.h for the determinism contract.

#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#include "tensor/gemm_internal.h"
#include "tensor/simd.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace cpdg::tensor {
namespace {

using gemm_internal::MicroKernelFn;

constexpr int64_t MR = kGemmMR;
constexpr int64_t NR = kGemmNR;
constexpr int64_t KC = kGemmKC;
constexpr int64_t MC = kGemmMC;
static_assert(MC % MR == 0, "row blocks must hold whole microkernel tiles");

MicroKernelFn ActiveMicroKernel() {
#ifdef CPDG_HAVE_AVX2_KERNELS
  if (simd::ActiveMode() == simd::Mode::kAvx2) {
    return gemm_internal::Avx2MicroKernel();
  }
#endif
  return gemm_internal::ScalarMicroKernel();
}

gemm_internal::TinyGemmFn ActiveTinyGemm() {
#ifdef CPDG_HAVE_AVX2_KERNELS
  // Scalar arithmetic either way; the FMA-compiled copy just avoids a libm
  // call per element. Selected by hardware support, not by the forced test
  // mode, because both produce identical bits.
  if (simd::Avx2Supported()) return &gemm_internal::TinyGemmFma;
#endif
  return &gemm_internal::TinyGemmPortable;
}

/// Packs A block rows [i0, i0+mb) x cols [p0, p0+kb) into MR-interleaved
/// panels: apack[(ig*kb + p)*MR + r] = A[i0 + ig*MR + r][p0 + p], rows
/// beyond mb zero-padded so the microkernel never branches on row validity.
void PackA(const GemmView& a, int64_t i0, int64_t mb, int64_t p0, int64_t kb,
           float* apack) {
  const int64_t groups = (mb + MR - 1) / MR;
  for (int64_t ig = 0; ig < groups; ++ig) {
    const int64_t rvalid = std::min<int64_t>(MR, mb - ig * MR);
    float* panel = apack + ig * kb * MR;
    for (int64_t p = 0; p < kb; ++p) {
      const float* src =
          a.p + (i0 + ig * MR) * a.rstride + (p0 + p) * a.cstride;
      float* dst = panel + p * MR;
      for (int64_t r = 0; r < rvalid; ++r) dst[r] = src[r * a.rstride];
      for (int64_t r = rvalid; r < MR; ++r) dst[r] = 0.0f;
    }
  }
}

/// Packs B block rows [p0, p0+kb) x all n cols into NR-interleaved column
/// panels: bpack[(jg*kb + p)*NR + l] = B[p0 + p][jg*NR + l], cols beyond n
/// zero-padded.
void PackB(const GemmView& b, int64_t p0, int64_t kb, float* bpack) {
  const int64_t n = b.cols;
  const int64_t panels = (n + NR - 1) / NR;
  for (int64_t jg = 0; jg < panels; ++jg) {
    const int64_t lvalid = std::min<int64_t>(NR, n - jg * NR);
    float* panel = bpack + jg * kb * NR;
    for (int64_t p = 0; p < kb; ++p) {
      const float* src = b.p + (p0 + p) * b.rstride + jg * NR * b.cstride;
      float* dst = panel + p * NR;
      for (int64_t l = 0; l < lvalid; ++l) dst[l] = src[l * b.cstride];
      for (int64_t l = lvalid; l < NR; ++l) dst[l] = 0.0f;
    }
  }
}

/// Output tiling: tile_rows x tile_cols tiles, row-major. A function of
/// the shape only; the arithmetic per C element does not depend on it.
struct TileGrid {
  int64_t tile_rows = 0;  // multiple of MR, at most MC
  int64_t tile_cols = 0;  // multiple of NR
  int64_t row_tiles = 0;
  int64_t col_tiles = 0;
};

/// Column-tile width in NR panels: the B slice a tile sweeps per k-block
/// (KC x 128 floats) stays cache-resident.
constexpr int64_t kTilePanels = 8;
/// Grids with fewer tiles get shorter row tiles (down to MR), so products
/// with few rows — the weight gradients — still split.
constexpr int64_t kMinTiles = 8;

TileGrid MakeTileGrid(int64_t m, int64_t n) {
  const int64_t groups = (m + MR - 1) / MR;
  const int64_t panels = (n + NR - 1) / NR;
  TileGrid g;
  g.tile_cols = std::min(panels, kTilePanels) * NR;
  g.col_tiles = (n + g.tile_cols - 1) / g.tile_cols;
  int64_t tile_groups = std::min(groups, MC / MR);
  while (tile_groups > 1 &&
         (groups + tile_groups - 1) / tile_groups * g.col_tiles < kMinTiles) {
    tile_groups = (tile_groups + 1) / 2;
  }
  g.tile_rows = tile_groups * MR;
  g.row_tiles = (m + g.tile_rows - 1) / g.tile_rows;
  return g;
}

/// One product's tiles. Captured by a single reference, so the region's
/// std::function stays inside its small-object buffer (no allocation).
struct TileJob {
  MicroKernelFn micro;
  GemmView a;
  const float* bpack;  // all of B; k-block p0 at bpack + p0 * npad
  int64_t npad;
  int64_t n;
  float* c;
  TileGrid grid;

  /// Tile t, every k-block in ascending order: packs the tile's A slice
  /// per k-block and sweeps the microkernel over its (MR row group) x (NR
  /// column panel) register tiles.
  void Run(int64_t t) const {
    // Per-thread pack buffer: reused across tiles and calls; workers are
    // long-lived pool threads so the allocation amortizes away.
    static thread_local std::vector<float> apack;
    const int64_t i0 = t / grid.col_tiles * grid.tile_rows;
    const int64_t j0 = t % grid.col_tiles * grid.tile_cols;
    const int64_t mb = std::min(grid.tile_rows, a.rows - i0);
    const int64_t groups = (mb + MR - 1) / MR;
    const int64_t jg0 = j0 / NR;
    const int64_t jg1 = (std::min(j0 + grid.tile_cols, n) + NR - 1) / NR;
    apack.resize(static_cast<size_t>(groups * KC * MR));
    for (int64_t p0 = 0; p0 < a.cols; p0 += KC) {
      const int64_t kb = std::min(KC, a.cols - p0);
      PackA(a, i0, mb, p0, kb, apack.data());
      const float* bblock = bpack + p0 * npad;
      for (int64_t ig = 0; ig < groups; ++ig) {
        const int64_t mvalid = std::min<int64_t>(MR, mb - ig * MR);
        for (int64_t jg = jg0; jg < jg1; ++jg) {
          const int64_t nvalid = std::min<int64_t>(NR, n - jg * NR);
          micro(apack.data() + ig * kb * MR, bblock + jg * kb * NR, kb,
                c + (i0 + ig * MR) * n + jg * NR, n, mvalid, nvalid);
        }
      }
    }
  }
};

}  // namespace

void GemmAccumulate(const GemmView& a, const GemmView& b, float* c) {
  CPDG_CHECK_EQ(a.cols, b.rows);
  const int64_t m = a.rows, k = a.cols, n = b.cols;
  if (m == 0 || n == 0) return;
  if (k == 0) return;  // C += A·B adds nothing.

  const int64_t flops = m * k * n;
  if (flops < kGemmTinyFlops && k <= KC) {
    ActiveTinyGemm()(a, b, c);
    return;
  }

  // All of B, packed once on the calling thread and shared read-only by
  // every tile (ParallelFor blocks until the region completes). The job
  // holds the buffer's pointer: `bpack` is thread_local, so naming it in
  // a tile would resolve to the running worker's own (empty) instance.
  static thread_local std::vector<float> bpack;
  const int64_t npad = (n + NR - 1) / NR * NR;
  bpack.resize(static_cast<size_t>(k * npad));
  for (int64_t p0 = 0; p0 < k; p0 += KC) {
    PackB(b, p0, std::min(KC, k - p0), bpack.data() + p0 * npad);
  }

  const TileJob job{ActiveMicroKernel(), a, bpack.data(), npad, n, c,
                    MakeTileGrid(m, n)};
  util::ThreadPool::Global().ParallelFor(
      0, job.grid.row_tiles * job.grid.col_tiles, /*grain=*/1,
      [&job](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) job.Run(t);
      },
      /*work_units=*/flops / kGemmMinFlopsPerParticipant);
}

}  // namespace cpdg::tensor
