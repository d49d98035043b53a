// Tests of the multi-channel PIM runtime: bounded-queue backpressure,
// engine routing/drain semantics, deterministic stats reduction, and the
// headline contract — pipeline results bit-identical for any channel count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "assembly/gfa.hpp"
#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "dna/genome.hpp"
#include "runtime/bounded_queue.hpp"
#include "runtime/engine.hpp"
#include "runtime/recovery.hpp"
#include "runtime/scheduler.hpp"

namespace pima::runtime {
namespace {

dram::Geometry small_geometry() {
  dram::Geometry g;
  g.rows = 512;
  g.compute_rows = 8;
  g.columns = 256;
  g.subarrays_per_mat = 16;
  g.mats_per_bank = 4;
  g.banks = 2;
  return g;
}

// ---- BoundedQueue ----

TEST(BoundedQueue, FifoAndCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: backpressure point
  EXPECT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.try_push(3));
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

TEST(BoundedQueue, BlockingPushResumesWhenConsumerDrains) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(0));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.push(1));  // blocks until the consumer pops
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop(), 0);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop(), 1);
}

TEST(BoundedQueue, CloseDrainsThenEnds) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(7));
  q.close();
  EXPECT_FALSE(q.push(8));
  EXPECT_EQ(q.pop(), 7);
  EXPECT_EQ(q.pop(), std::nullopt);
}

// ---- Scheduler ----

TEST(Scheduler, InterleavedChannelOwnership) {
  Scheduler s(128, 4);
  EXPECT_EQ(s.channel_of(0), 0u);
  EXPECT_EQ(s.channel_of(5), 1u);
  EXPECT_EQ(s.channel_of(127), 3u);
  // The block placement matches the degree kernel's historical layout.
  EXPECT_EQ(s.block_subarray(2, 3, 5), (2 * 5 + 3) % 128u);
  EXPECT_EQ(s.block_subarray(3, 2, 5, 25), (3 * 5 + 2 + 25) % 128u);
  EXPECT_EQ(block_subarray(128, 2, 3, 5), s.block_subarray(2, 3, 5));
}

TEST(Scheduler, SplitPreservesPerSubarrayOrder) {
  Scheduler s(8, 3);
  dram::Program p;
  for (std::size_t i = 0; i < 20; ++i) {
    dram::Instruction inst;
    inst.op = dram::Opcode::kRowRead;
    inst.subarray = i % 8;
    inst.src1 = i;  // encodes submission order
    p.push_back(inst);
  }
  const auto parts = s.split(p);
  ASSERT_EQ(parts.size(), 3u);
  std::size_t total = 0;
  for (std::size_t c = 0; c < parts.size(); ++c) {
    dram::RowAddr last_per_sa[8] = {};
    for (const auto& inst : parts[c]) {
      EXPECT_EQ(s.channel_of(inst.subarray), c);
      EXPECT_GE(inst.src1, last_per_sa[inst.subarray]);
      last_per_sa[inst.subarray] = inst.src1;
      ++total;
    }
  }
  EXPECT_EQ(total, p.size());
}

// ---- Engine ----

TEST(Engine, BackpressuredSubmissionRetiresEverything) {
  dram::Device device(small_geometry());
  EngineOptions opt;
  opt.channels = 2;
  opt.queue_capacity = 2;  // tiny: producer must block and resume
  Engine engine(device, opt);
  std::atomic<int> retired{0};
  for (int i = 0; i < 500; ++i)
    engine.submit(static_cast<std::size_t>(i) % 2, [&] { ++retired; });
  engine.drain();
  EXPECT_EQ(retired.load(), 500);
}

TEST(Engine, TaskExceptionSurfacesOnDrain) {
  dram::Device device(small_geometry());
  EngineOptions opt;
  opt.channels = 2;
  Engine engine(device, opt);
  engine.submit(0, [] { throw SimulationError("channel fault"); });
  EXPECT_THROW(engine.drain(), SimulationError);
  // The engine survives a task failure and keeps executing.
  std::atomic<int> retired{0};
  engine.submit(0, [&] { ++retired; });
  engine.drain();
  EXPECT_EQ(retired.load(), 1);
}

TEST(Engine, FailFastRejectsSubmissionAfterChannelFailure) {
  dram::Device device(small_geometry());
  Engine engine(device, {.channels = 2, .queue_capacity = 4});
  engine.submit(0, [] { throw SimulationError("channel fault"); });
  while (!engine.channel_failed(0))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // New work on the dead channel is rejected immediately...
  EXPECT_THROW(engine.submit(0, [] {}), SimulationError);
  // ...while the healthy channel keeps accepting.
  std::atomic<int> retired{0};
  engine.submit(1, [&] { ++retired; });
  // drain() collects the original failure without hanging, then resets.
  EXPECT_THROW(engine.drain(), SimulationError);
  engine.drain();
  EXPECT_EQ(retired.load(), 1);
  engine.submit(0, [&] { ++retired; });
  engine.drain();
  EXPECT_EQ(retired.load(), 2);
}

TEST(Engine, DrainResetsEveryChannelAfterMultiChannelFailure) {
  // Regression: drain() used to stop at the first failed channel, leaving
  // later channels' failure flags set — the next submit()/drain() cycle on
  // them was rejected forever. One drain() must reset ALL channels.
  dram::Device device(small_geometry());
  Engine engine(device, {.channels = 3, .queue_capacity = 4});
  engine.submit(0, [] { throw SimulationError("fault on channel 0"); });
  engine.submit(1, [] { throw SimulationError("fault on channel 1"); });
  // One drain throws exactly one error (channel 0's — lowest wins)…
  try {
    engine.drain();
    FAIL() << "expected drain() to rethrow the channel failure";
  } catch (const SimulationError& e) {
    EXPECT_NE(std::string(e.what()).find("channel 0"), std::string::npos);
  }
  // …and afterwards every channel, including channel 1, accepts work again.
  EXPECT_FALSE(engine.channel_failed(0));
  EXPECT_FALSE(engine.channel_failed(1));
  std::atomic<int> retired{0};
  engine.submit(0, [&] { ++retired; });
  engine.submit(1, [&] { ++retired; });
  engine.submit(2, [&] { ++retired; });
  engine.drain();
  EXPECT_EQ(retired.load(), 3);
}

TEST(Engine, WatchdogSurfacesStalledChannel) {
  dram::Device device(small_geometry());
  EngineOptions opt;
  opt.channels = 2;
  opt.queue_capacity = 4;
  opt.stall_timeout_ms = 50.0;
  std::atomic<bool> release{false};
  std::atomic<bool> task_done{false};
  const auto started = std::chrono::steady_clock::now();
  {
    Engine engine(device, opt);
    // Wedge channel 1's worker inside a task; the watchdog must convert the
    // hang into a typed error instead of letting drain() block forever.
    engine.submit_to_subarray(1, [&] {
      while (!release.load()) std::this_thread::yield();
      task_done = true;
    });
    try {
      engine.drain();
      FAIL() << "expected EngineStalledError";
    } catch (const EngineStalledError& e) {
      EXPECT_EQ(e.channel(), engine.channel_of(1));
      EXPECT_EQ(e.subarray(), 1u);
      EXPECT_EQ(e.last_retired(), 0u);
    }
    const auto waited = std::chrono::steady_clock::now() - started;
    // Detection is prompt: well under 20x the 50 ms deadline even on a
    // loaded CI machine, nowhere near an indefinite hang.
    EXPECT_LT(waited, std::chrono::seconds(5));
    EXPECT_TRUE(engine.stalled());
    // The poisoned engine refuses further work.
    EXPECT_THROW(engine.submit(0, [] {}), SimulationError);
    EXPECT_THROW(engine.drain(), SimulationError);
    // Un-wedge the worker before destruction so the test leaks nothing
    // (the destructor only abandons workers that are still stuck).
    release = true;
    while (!task_done.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

TEST(Engine, WatchdogLeavesHealthyRunAlone) {
  dram::Device device(small_geometry());
  EngineOptions opt;
  opt.channels = 2;
  opt.stall_timeout_ms = 200.0;
  Engine engine(device, opt);
  std::atomic<int> retired{0};
  for (int i = 0; i < 100; ++i)
    engine.submit(static_cast<std::size_t>(i) % 2, [&] { ++retired; });
  engine.drain();
  EXPECT_EQ(retired.load(), 100);
  EXPECT_FALSE(engine.stalled());
}

TEST(RecoveryBackoff, ExponentialClampedAtCap) {
  RecoveryOptions opt;
  opt.backoff_base_ns = 100;
  opt.backoff_cap_ns = 1'000'000;
  EXPECT_EQ(recovery_backoff_ns(opt, 0), 100u);
  EXPECT_EQ(recovery_backoff_ns(opt, 1), 200u);
  EXPECT_EQ(recovery_backoff_ns(opt, 10), 102400u);
  // At the boundary: 100 * 2^13 = 819200 < cap, 100 * 2^14 = 1638400 > cap.
  EXPECT_EQ(recovery_backoff_ns(opt, 13), 819200u);
  EXPECT_EQ(recovery_backoff_ns(opt, 14), 1'000'000u);
  // A plain `base << attempt` overflows past attempt 63; the clamped
  // shift stays capped for any attempt count.
  EXPECT_EQ(recovery_backoff_ns(opt, 63), 1'000'000u);
  EXPECT_EQ(recovery_backoff_ns(opt, 64), 1'000'000u);
  EXPECT_EQ(recovery_backoff_ns(opt, 100000), 1'000'000u);
}

TEST(Engine, TasksQueuedBehindFailureAreDroppedNotExecuted) {
  dram::Device device(small_geometry());
  Engine engine(device, {.channels = 2, .queue_capacity = 8});
  // Gate the worker so the failure and its followers are all enqueued
  // before anything runs.
  std::atomic<bool> gate{false};
  std::atomic<int> ran{0};
  engine.submit(0, [&] {
    while (!gate.load()) std::this_thread::yield();
    throw SimulationError("dead task stream");
  });
  engine.submit(0, [&] { ++ran; });
  engine.submit(0, [&] { ++ran; });
  gate = true;
  EXPECT_THROW(engine.drain(), SimulationError);
  // The queued followers were dropped, not silently executed after the
  // failure — and drain() returned instead of hanging on them.
  EXPECT_EQ(ran.load(), 0);
}

TEST(Engine, ProgramSubmissionMatchesInlineExecution) {
  auto build_program = [] {
    dram::Program p;
    for (std::size_t i = 0; i < 64; ++i) {
      dram::Instruction inst;
      inst.op = dram::Opcode::kRowWrite;
      inst.subarray = i % 8;
      inst.src1 = i / 8;
      inst.payload = BitVector(256);
      inst.payload.set(i % 256, true);
      p.push_back(std::move(inst));
    }
    return p;
  };

  dram::Device serial_dev(small_geometry());
  {
    Engine serial(serial_dev, {.channels = 1, .queue_capacity = 4});
    serial.submit_program(build_program());
    serial.drain();
  }
  dram::Device parallel_dev(small_geometry());
  {
    Engine parallel(parallel_dev,
                    {.channels = 4, .queue_capacity = 4, .program_chunk = 8});
    parallel.submit_program(build_program());
    parallel.drain();
  }
  for (std::size_t sa = 0; sa < 8; ++sa) {
    const auto* a = serial_dev.subarray_if(sa);
    const auto* b = parallel_dev.subarray_if(sa);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    for (std::size_t r = 0; r < 8; ++r)
      EXPECT_EQ(a->peek_row(r).to_string(), b->peek_row(r).to_string());
    EXPECT_EQ(a->stats(), b->stats());
  }
}

// ---- Pipeline-level contracts ----

struct PipelineRun {
  core::PipelineResult result;
  std::string gfa;
};

PipelineRun run_with_threads(std::size_t threads, std::size_t queue_capacity =
                                                      core::PipelineOptions{}
                                                          .queue_capacity) {
  dna::GenomeParams gp;
  gp.length = 1500;
  gp.repeat_count = 0;
  const auto genome = dna::generate_genome(gp);
  dna::ReadSamplerParams rp;
  rp.coverage = 8.0;
  rp.read_length = 70;
  const auto reads = dna::sample_reads(genome, rp);

  dram::Device device(small_geometry());
  core::PipelineOptions opt;
  opt.k = 17;
  opt.hash_shards = 8;
  opt.threads = threads;
  opt.queue_capacity = queue_capacity;
  PipelineRun run{core::run_pipeline(device, reads, opt), ""};
  std::ostringstream gfa;
  assembly::write_gfa(gfa, assembly::build_gfa(run.result.graph));
  run.gfa = gfa.str();
  return run;
}

void expect_identical(const PipelineRun& a, const PipelineRun& b) {
  EXPECT_EQ(a.result.distinct_kmers, b.result.distinct_kmers);
  EXPECT_EQ(a.result.graph_nodes, b.result.graph_nodes);
  EXPECT_EQ(a.result.graph_edges, b.result.graph_edges);
  ASSERT_EQ(a.result.contigs.size(), b.result.contigs.size());
  for (std::size_t i = 0; i < a.result.contigs.size(); ++i)
    EXPECT_EQ(a.result.contigs[i].to_string(), b.result.contigs[i].to_string());
  EXPECT_EQ(a.gfa, b.gfa);
  // DeviceStats are bit-identical, not merely close: per-sub-array command
  // sequences are unchanged, so every double accumulates in the same order.
  EXPECT_EQ(a.result.hashmap.device, b.result.hashmap.device);
  EXPECT_EQ(a.result.debruijn.device, b.result.debruijn.device);
  EXPECT_EQ(a.result.traverse.device, b.result.traverse.device);
  EXPECT_EQ(a.result.total(), b.result.total());
}

TEST(RuntimePipeline, SerialAndParallelAreBitIdentical) {
  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(4);
  expect_identical(serial, parallel);
}

TEST(RuntimePipeline, RepeatedParallelRunsAreDeterministic) {
  const auto first = run_with_threads(4);
  const auto second = run_with_threads(4);
  expect_identical(first, second);
}

TEST(RuntimePipeline, TinyQueueCapacityStillCompletes) {
  const auto roomy = run_with_threads(3);
  const auto tight = run_with_threads(3, /*queue_capacity=*/2);
  expect_identical(roomy, tight);
}

}  // namespace
}  // namespace pima::runtime
