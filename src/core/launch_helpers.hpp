// Launch wrappers shared by the TTLG plan and the baseline libraries:
// they assemble the sim::LaunchConfig (including the block classifier
// used for sampled counting) and dispatch the right kernel.
#pragma once

#include "core/kernels.hpp"
#include "gpusim/device.hpp"

namespace ttlg {

/// A contiguous block-id window of one logical grid. Default = the
/// whole grid. The sharded executor runs disjoint windows of a single
/// planned grid on different devices; block ids stay absolute, so a
/// window executes exactly the blocks it would inside the full launch.
struct LaunchWindow {
  Index offset = 0;
  Index count = -1;  ///< -1 = through the end of the grid
  /// Optional per-launch texture-access capture (LaunchConfig::
  /// tex_capture): recorded in block order for cross-window replay.
  std::vector<std::int64_t>* tex_capture = nullptr;

  /// Rewrites a full-grid LaunchConfig into this window (call after
  /// cfg.grid_blocks has been set to the full grid size).
  void apply(sim::LaunchConfig& cfg) const {
    cfg.block_offset = offset;
    cfg.grid_blocks = count >= 0 ? count : cfg.grid_blocks - offset;
    cfg.tex_capture = tex_capture;
  }
};

/// Classifier over the two chunked grid slots (slot 0 and slot 1):
/// class = partial-A bit | partial-B bit. Called for every block of a
/// sampled sweep, so the slot split is captured as FastDivs.
inline std::function<std::int64_t(std::int64_t)> chunk_block_class(
    Index a_chunks, Index a_rem, Index b_chunks, Index b_rem) {
  const FastDiv a_div(a_chunks);
  const FastDiv b_div(b_chunks);
  return [=](std::int64_t bid) -> std::int64_t {
    const DivMod am = a_div.divmod(bid);
    const Index a = am.rem;
    const Index b = b_div.mod(am.quot);
    return (a_rem != 0 && a == a_chunks - 1 ? 1 : 0) +
           (b_rem != 0 && b == b_chunks - 1 ? 2 : 0);
  };
}

// Full-grid LaunchConfig builders, one per kernel. Shared between the
// launchers below and Plan's rung-1 dispatch, where the generic and the
// specialized kernel bodies (core/spec_exec.hpp) MUST present the
// identical config — same grid, block geometry, shared size, kernel
// name, classifier — so fault injection, sampling, windowing and
// telemetry behave the same regardless of which kernel body runs.
inline sim::LaunchConfig make_od_cfg(const OdConfig& k, int elem_size) {
  sim::LaunchConfig cfg;
  cfg.elem_size = elem_size;
  cfg.grid_blocks = k.grid_blocks;
  cfg.block_threads = k.block_threads;
  cfg.shared_elems = 32 * k.tile_pitch;
  cfg.kernel_name = "orthogonal_distinct";
  cfg.uses_texture = true;
  cfg.block_class = chunk_block_class(k.a_chunks, k.a_rem, k.b_chunks,
                                      k.b_rem);
  cfg.num_classes = 4;
  return cfg;
}

inline sim::LaunchConfig make_oa_cfg(const OaConfig& k, int elem_size) {
  sim::LaunchConfig cfg;
  cfg.elem_size = elem_size;
  cfg.grid_blocks = k.grid_blocks;
  cfg.block_threads = k.block_threads;
  cfg.shared_elems = k.smem_elems();
  cfg.kernel_name = "orthogonal_arbitrary";
  cfg.uses_texture = true;
  cfg.block_class = chunk_block_class(k.a_chunks, k.a_rem, k.b_chunks,
                                      k.b_rem);
  cfg.num_classes = 4;
  return cfg;
}

inline sim::LaunchConfig make_fvi_small_cfg(const FviSmallConfig& k,
                                            int elem_size) {
  sim::LaunchConfig cfg;
  cfg.elem_size = elem_size;
  cfg.grid_blocks = k.grid_blocks;
  cfg.block_threads = k.block_threads;
  cfg.shared_elems = k.smem_elems;
  cfg.kernel_name = "fvi_match_small";
  cfg.block_class = chunk_block_class(k.i1_chunks, k.i1_rem, k.ik_chunks,
                                      k.ik_rem);
  cfg.num_classes = 4;
  return cfg;
}

inline sim::LaunchConfig make_fvi_large_cfg(const FviLargeConfig& k,
                                            int elem_size) {
  sim::LaunchConfig cfg;
  cfg.elem_size = elem_size;
  cfg.grid_blocks = k.grid_blocks;
  cfg.block_threads = k.block_threads;
  cfg.shared_elems = 0;
  cfg.kernel_name = "fvi_match_large";
  cfg.block_class = chunk_block_class(k.segs, k.n0 % k.seg_len,
                                      k.batch_chunks, k.batch_rem);
  cfg.num_classes = 4;
  return cfg;
}

template <class T>
sim::LaunchResult launch_od(sim::Device& dev, const OdConfig& k,
                            sim::DeviceBuffer<T> in, sim::DeviceBuffer<T> out,
                            sim::DeviceBuffer<Index> in_offset,
                            sim::DeviceBuffer<Index> out_offset,
                            Epilogue<T> epi = {}) {
  const sim::LaunchConfig cfg = make_od_cfg(k, sizeof(T));
  return dev.launch(OdKernel<T>{k, in, out, in_offset, out_offset, epi},
                    cfg);
}

template <class T>
sim::LaunchResult launch_oa(sim::Device& dev, const OaConfig& k,
                            sim::DeviceBuffer<T> in, sim::DeviceBuffer<T> out,
                            sim::DeviceBuffer<Index> input_offset,
                            sim::DeviceBuffer<Index> output_offset,
                            sim::DeviceBuffer<Index> sm_out_offset,
                            Epilogue<T> epi = {}) {
  const sim::LaunchConfig cfg = make_oa_cfg(k, sizeof(T));
  return dev.launch(
      OaKernel<T>{k, in, out, input_offset, output_offset, sm_out_offset,
                  epi},
      cfg);
}

template <class T>
sim::LaunchResult launch_fvi_small(sim::Device& dev, const FviSmallConfig& k,
                                   sim::DeviceBuffer<T> in,
                                   sim::DeviceBuffer<T> out,
                                   Epilogue<T> epi = {}) {
  const sim::LaunchConfig cfg = make_fvi_small_cfg(k, sizeof(T));
  return dev.launch(FviSmallKernel<T>{k, in, out, epi}, cfg);
}

template <class T>
sim::LaunchResult launch_fvi_large(sim::Device& dev, const FviLargeConfig& k,
                                   sim::DeviceBuffer<T> in,
                                   sim::DeviceBuffer<T> out,
                                   Epilogue<T> epi = {}) {
  const sim::LaunchConfig cfg = make_fvi_large_cfg(k, sizeof(T));
  return dev.launch(FviLargeKernel<T>{k, in, out, epi}, cfg);
}

}  // namespace ttlg
