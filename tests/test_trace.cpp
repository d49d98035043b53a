#include "dram/trace.hpp"

#include <gtest/gtest.h>

#include "dram/isa.hpp"
#include "dram/subarray.hpp"

namespace pima::dram {
namespace {

Geometry tiny() {
  Geometry g;
  g.rows = 64;
  g.compute_rows = 8;
  g.columns = 32;
  return g;
}

TEST(Trace, RecordsEveryCommandInOrder) {
  Subarray sa(tiny(), circuit::default_technology());
  TraceSink sink;
  sa.attach_trace(&sink);
  sa.write_row(1, BitVector(32));
  sa.aap_copy(1, 2);
  sa.compare_rows(1, 2, 10);
  ASSERT_EQ(sink.size(), 5u);  // write, copy, 2 staging copies, xnor
  const Program& p = sink.program();
  EXPECT_EQ(p[0].op, Opcode::kRowWrite);
  EXPECT_EQ(p[1].op, Opcode::kAapCopy);
  EXPECT_EQ(p[1].src1, 1u);
  EXPECT_EQ(p[1].dst, 2u);
  EXPECT_EQ(kind_of(p[4].op), CommandKind::kAapTwoRow);
  EXPECT_EQ(p[4].dst, 10u);
}

TEST(Trace, InstructionsCarryTheSinkFlatIndex) {
  Subarray sa(tiny(), circuit::default_technology());
  TraceSink sink(7);
  sa.attach_trace(&sink);
  sa.aap_copy(0, 1);
  (void)sa.dpu_fetch(1);
  ASSERT_EQ(sink.size(), 2u);
  for (const auto& inst : sink.program()) {
    EXPECT_EQ(inst.subarray, 7u);
    EXPECT_EQ(inst.size, 1u);
  }
  // A DPU fetch replays as a full-width popcount of the fetched row.
  EXPECT_EQ(sink.program()[1].op, Opcode::kDpuPopcount);
  EXPECT_EQ(sink.program()[1].src1, 1u);
  EXPECT_EQ(sink.program()[1].width, tiny().columns);
}

TEST(Trace, DetachStopsRecording) {
  Subarray sa(tiny(), circuit::default_technology());
  TraceSink sink;
  sa.attach_trace(&sink);
  sa.aap_copy(0, 1);
  sa.attach_trace(nullptr);
  sa.aap_copy(0, 1);
  EXPECT_EQ(sink.size(), 1u);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(Trace, BreakdownFromStatsMatchesTrace) {
  Subarray sa(tiny(), circuit::default_technology());
  TraceSink sink;
  sa.attach_trace(&sink);
  sa.compare_rows(0, 1, 10);
  sa.write_row(5, BitVector(32));
  CommandStats traced;
  for (const auto& inst : sink.program())
    ++traced.counts[static_cast<std::size_t>(kind_of(inst.op))];
  EXPECT_EQ(traced, sa.stats());
  const auto from_stats = breakdown_from_stats(
      sa.stats(), sa.geometry().columns, circuit::default_technology());
  ASSERT_EQ(from_stats.rows.size(), 3u);  // copies, XNOR, write
  for (const auto& row : from_stats.rows)
    EXPECT_EQ(row.count, traced.counts[static_cast<std::size_t>(row.kind)]);
  EXPECT_DOUBLE_EQ(from_stats.total_energy_pj, sa.cost().energy_pj);
  EXPECT_DOUBLE_EQ(from_stats.total_time_ns, sa.cost().busy_ns);
}
TEST(Trace, EntriesCarryReplayExactOpcodes) {
  // XNOR and XOR share CommandKind::kAapTwoRow (same cost class) but must
  // stay distinguishable in the trace for exact replay.
  Subarray sa(tiny(), circuit::default_technology());
  TraceSink sink;
  sa.attach_trace(&sink);
  const auto x1 = sa.compute_row(0), x2 = sa.compute_row(1);
  sa.aap_xnor(x1, x2, 5);
  sa.aap_xor(x1, x2, 6);
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(kind_of(sink.program()[0].op), CommandKind::kAapTwoRow);
  EXPECT_EQ(kind_of(sink.program()[1].op), CommandKind::kAapTwoRow);
  EXPECT_EQ(sink.program()[0].op, Opcode::kAapXnor);
  EXPECT_EQ(sink.program()[1].op, Opcode::kAapXor);
}

TEST(Trace, LatchResetIsTraceOnlyAndUncosted) {
  Subarray sa(tiny(), circuit::default_technology());
  TraceSink sink;
  sa.attach_trace(&sink);
  sa.reset_latch();
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.program()[0].op, Opcode::kResetLatch);
  EXPECT_EQ(kind_of(sink.program()[0].op), CommandKind::kLatchReset);
  // The Rst pulse rides the surrounding AAP envelope: no command counted,
  // no time, no energy.
  EXPECT_EQ(sa.stats().total_commands(), 0u);
  EXPECT_DOUBLE_EQ(sa.cost().busy_ns, 0.0);
}

TEST(Trace, RowWritePayloadIsCaptured) {
  Subarray sa(tiny(), circuit::default_technology());
  TraceSink sink;
  sa.attach_trace(&sink);
  BitVector bits(32);
  bits.set(0, true);
  bits.set(31, true);
  sa.write_row(4, bits);
  sa.aap_copy(4, 5);
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.program()[0].payload, bits);
  EXPECT_TRUE(sink.program()[1].payload.empty());  // only writes carry data
}

TEST(Trace, ProgramFromTraceReplaysIdenticalState) {
  const auto g = tiny();
  Subarray sa(g, circuit::default_technology());
  TraceSink sink;
  sa.attach_trace(&sink);
  BitVector bits(32);
  for (std::size_t i = 0; i < 32; i += 2) bits.set(i, true);
  sa.write_row(1, bits);
  sa.aap_copy(1, sa.compute_row(0));
  sa.aap_copy(1, sa.compute_row(1));
  sa.aap_copy(1, sa.compute_row(2));
  sa.aap_tra_carry(sa.compute_row(0), sa.compute_row(1), sa.compute_row(2), 2);
  sa.sum_cycle(sa.compute_row(0), sa.compute_row(1), 3);
  sa.reset_latch();
  (void)sa.read_row(3);

  const Program& program = sink.program();
  Device replay(g);
  execute(replay, program);
  auto& rsa = replay.subarray(std::size_t{0});
  for (RowAddr r = 0; r < g.rows; ++r)
    ASSERT_EQ(rsa.peek_row(r), sa.peek_row(r)) << "row " << r;
  EXPECT_EQ(rsa.peek_latch(), sa.peek_latch());
}

TEST(Trace, RenderContainsShares) {
  Subarray sa(tiny(), circuit::default_technology());
  TraceSink sink;
  sa.attach_trace(&sink);
  sa.aap_copy(0, 1);
  const auto text = breakdown_from_stats(sa.stats(), sa.geometry().columns,
                                         circuit::default_technology())
                        .render("demo");
  EXPECT_NE(text.find("AAP_COPY"), std::string::npos);
  EXPECT_NE(text.find("100%"), std::string::npos);
}

}  // namespace
}  // namespace pima::dram
