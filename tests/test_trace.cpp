#include "dram/trace.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
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
  EXPECT_EQ(sink.entries()[0].kind, CommandKind::kRowWrite);
  EXPECT_EQ(sink.entries()[1].kind, CommandKind::kAapCopy);
  EXPECT_EQ(sink.entries()[1].row_a, 1u);
  EXPECT_EQ(sink.entries()[1].dst, 2u);
  EXPECT_EQ(sink.entries()[4].kind, CommandKind::kAapTwoRow);
  EXPECT_EQ(sink.entries()[4].dst, 10u);
}

TEST(Trace, TimestampsAreMonotone) {
  Subarray sa(tiny(), circuit::default_technology());
  TraceSink sink;
  sa.attach_trace(&sink);
  for (int i = 0; i < 5; ++i) sa.aap_copy(0, 1);
  double prev = -1.0;
  for (const auto& e : sink.entries()) {
    EXPECT_GT(e.start_ns, prev);
    EXPECT_GT(e.latency_ns, 0.0);
    EXPECT_GT(e.energy_pj, 0.0);
    prev = e.start_ns;
  }
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

TEST(Trace, CsvHasHeaderAndRows) {
  Subarray sa(tiny(), circuit::default_technology());
  TraceSink sink;
  sa.attach_trace(&sink);
  sa.aap_copy(3, 7);
  const auto csv = sink.to_csv();
  EXPECT_NE(csv.find("kind,row_a"), std::string::npos);
  EXPECT_NE(csv.find("AAP_COPY,3,0,0,7"), std::string::npos);
}

TEST(Trace, CsvRoundTripsExactly) {
  Subarray sa(tiny(), circuit::default_technology());
  TraceSink sink;
  sa.attach_trace(&sink);
  BitVector bits(32);
  bits.set(7, true);
  sa.write_row(1, bits);
  sa.aap_copy(1, 2);
  sa.compare_rows(1, 2, 10);
  sa.aap_tra_carry(sa.compute_row(0), sa.compute_row(1), sa.compute_row(2), 3);
  const auto csv = sink.to_csv();
  const auto parsed = TraceSink::parse_csv(csv);
  ASSERT_EQ(parsed.size(), sink.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const auto& a = sink.entries()[i];
    const auto& b = parsed[i];
    EXPECT_EQ(a.kind, b.kind) << "entry " << i;
    EXPECT_EQ(a.row_a, b.row_a);
    EXPECT_EQ(a.row_b, b.row_b);
    EXPECT_EQ(a.row_c, b.row_c);
    EXPECT_EQ(a.dst, b.dst);
    // %.6f fixes the granularity; the model's values are exact at ns/fJ
    // scale, so the round trip is equality, not approximation.
    EXPECT_DOUBLE_EQ(a.start_ns, b.start_ns);
    EXPECT_DOUBLE_EQ(a.latency_ns, b.latency_ns);
    EXPECT_DOUBLE_EQ(a.energy_pj, b.energy_pj);
  }
  // Re-serializing the parsed entries is byte-identical (op/payload are
  // not part of the CSV contract).
  TraceSink again;
  for (const auto& e : parsed) again.record(e);
  EXPECT_EQ(again.to_csv(), csv);
}

TEST(Trace, CsvParseRejectsMalformedInput) {
  EXPECT_THROW(TraceSink::parse_csv("not,a,trace\n"), InputFormatError);
  std::string csv(TraceSink::kCsvHeader);
  csv += "\nNO_SUCH_KIND,0,0,0,0,1.0,1.0,1.0\n";
  EXPECT_THROW(TraceSink::parse_csv(csv), InputFormatError);
  std::string truncated(TraceSink::kCsvHeader);
  truncated += "\nAAP_COPY,3,0\n";
  EXPECT_THROW(TraceSink::parse_csv(truncated), InputFormatError);
}

TEST(Trace, BreakdownFromTraceAggregates) {
  Subarray sa(tiny(), circuit::default_technology());
  TraceSink sink;
  sa.attach_trace(&sink);
  sa.aap_copy(0, 1);
  sa.aap_copy(1, 2);
  sa.write_row(3, BitVector(32));
  const auto b = breakdown_from_trace(sink.entries());
  ASSERT_EQ(b.rows.size(), 2u);  // copies and writes
  double total = 0.0;
  for (const auto& row : b.rows) {
    EXPECT_GT(row.count, 0u);
    total += row.energy_pj;
  }
  EXPECT_DOUBLE_EQ(total, b.total_energy_pj);
  EXPECT_DOUBLE_EQ(b.total_energy_pj, sa.cost().energy_pj);
  EXPECT_DOUBLE_EQ(b.total_time_ns, sa.cost().busy_ns);
}

TEST(Trace, BreakdownFromStatsMatchesTrace) {
  Subarray sa(tiny(), circuit::default_technology());
  TraceSink sink;
  sa.attach_trace(&sink);
  sa.compare_rows(0, 1, 10);
  sa.write_row(5, BitVector(32));
  const auto from_trace = breakdown_from_trace(sink.entries());
  const auto from_stats = breakdown_from_stats(
      sa.stats(), sa.geometry().columns, circuit::default_technology());
  EXPECT_DOUBLE_EQ(from_trace.total_energy_pj, from_stats.total_energy_pj);
  EXPECT_DOUBLE_EQ(from_trace.total_time_ns, from_stats.total_time_ns);
  EXPECT_EQ(from_trace.rows.size(), from_stats.rows.size());
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
  EXPECT_EQ(sink.entries()[0].kind, CommandKind::kAapTwoRow);
  EXPECT_EQ(sink.entries()[1].kind, CommandKind::kAapTwoRow);
  EXPECT_EQ(sink.entries()[0].op, Opcode::kAapXnor);
  EXPECT_EQ(sink.entries()[1].op, Opcode::kAapXor);
}

TEST(Trace, LatchResetIsTraceOnlyAndUncosted) {
  Subarray sa(tiny(), circuit::default_technology());
  TraceSink sink;
  sa.attach_trace(&sink);
  sa.reset_latch();
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.entries()[0].kind, CommandKind::kLatchReset);
  EXPECT_EQ(sink.entries()[0].op, Opcode::kResetLatch);
  EXPECT_DOUBLE_EQ(sink.entries()[0].latency_ns, 0.0);
  EXPECT_DOUBLE_EQ(sink.entries()[0].energy_pj, 0.0);
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
  EXPECT_EQ(sink.entries()[0].payload, bits);
  EXPECT_TRUE(sink.entries()[1].payload.empty());  // only writes carry data
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

  const auto program = program_from_trace(sink.entries(), 0, g.columns);
  ASSERT_EQ(program.size(), sink.size());
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
  const auto text = breakdown_from_trace(sink.entries()).render("demo");
  EXPECT_NE(text.find("AAP_COPY"), std::string::npos);
  EXPECT_NE(text.find("100%"), std::string::npos);
}

}  // namespace
}  // namespace pima::dram
