// Drives the DRAM substrate directly: stores a batch of 128 bp DNA
// fragments in a computational sub-array and finds which of them match a
// query fragment using the paper's PIM_XNOR flow — RowClone staging,
// single-cycle two-row XNOR, and the MAT-level DPU AND-reduction — then
// reports the exact AAP command mix, latency and energy the operation
// cost, next to what the same scan would cost with Ambit-style 7-cycle
// XNOR (platform model).
#include <cstdio>

#include "common/table.hpp"
#include "dna/genome.hpp"
#include "dram/device.hpp"
#include "dram/dpu.hpp"
#include "platforms/presets.hpp"

int main() {
  using namespace pima;

  dram::Geometry geom;  // one paper-shaped sub-array
  geom.rows = 1024;
  geom.compute_rows = 8;
  geom.columns = 256;
  geom.subarrays_per_mat = 1;
  geom.mats_per_bank = 1;
  geom.banks = 1;
  dram::Device device(geom);
  dram::Subarray& sa = device.subarray(0);

  // Fill 64 data rows with random 128 bp fragments.
  dna::GenomeParams gp;
  gp.length = 128 * 64;
  gp.repeat_count = 0;
  const auto pool = dna::generate_genome(gp);
  constexpr std::size_t kFragments = 64;
  for (std::size_t r = 0; r < kFragments; ++r)
    sa.write_row(r, pool.to_bits(r * 128, 128));

  // Query = fragment 17 (so exactly one row must match).
  const auto query = pool.subseq(17 * 128, 128);
  const dram::RowAddr temp = 100;
  sa.write_row(temp, query.to_bits(0, 128));
  sa.clear_stats();

  std::size_t matches = 0, match_row = 0;
  for (std::size_t r = 0; r < kFragments; ++r) {
    sa.compare_rows(temp, r, sa.compute_row(3));
    if (dram::Dpu::and_reduce(sa, sa.compute_row(3), 256)) {
      ++matches;
      match_row = r;
    }
  }
  std::printf("scanned %zu fragments, %zu match (row %zu)\n\n", kFragments,
              matches, match_row);

  const auto& st = sa.stats();
  TextTable table("PIM_XNOR scan cost (bit-accurate simulation)");
  table.set_header({"metric", "value"});
  table.add_row({"AAP copies (staging)",
                 std::to_string(st.counts[static_cast<std::size_t>(
                     dram::CommandKind::kAapCopy)])});
  table.add_row({"two-row XNOR cycles",
                 std::to_string(st.counts[static_cast<std::size_t>(
                     dram::CommandKind::kAapTwoRow)])});
  table.add_row({"DPU reductions",
                 std::to_string(st.counts[static_cast<std::size_t>(
                     dram::CommandKind::kDpuReduce)])});
  const dram::CommandCost cost = sa.cost();
  table.add_row({"latency", TextTable::num(cost.busy_ns / 1e3, 4) + " us"});
  table.add_row({"energy", TextTable::num(cost.energy_pj / 1e3, 4) + " nJ"});
  std::fputs(table.render().c_str(), stdout);

  // The same scan under Ambit's 7-cycle X(N)OR (per-row cycles from the
  // platform model), for contrast.
  const auto ambit = platforms::ambit();
  const auto pa = platforms::pim_assembler();
  const double pa_cycles = kFragments * (pa.xnor_cycles + 1.0);
  const double ambit_cycles = kFragments * (ambit.xnor_cycles +
                                            ambit.pim_aux_cycles + 1.0);
  std::printf(
      "\nplatform-model contrast: P-A %.0f row cycles vs Ambit-style %.0f "
      "(%.2fx) for the same scan\n",
      pa_cycles, ambit_cycles, ambit_cycles / pa_cycles);
  return matches == 1 ? 0 : 1;
}
