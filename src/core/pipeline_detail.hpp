// Internals of run_pipeline that code outside the controller also uses
// (perfbench/driver.cpp): the graph partition choice and the checkpoint
// fingerprint. The controller computes both the same way whichever shard
// backend (shard_backend.hpp) runs the stages, which is what lets a resume
// cross the isolation boundary.
#pragma once

#include "core/graph_map.hpp"
#include "core/pipeline.hpp"
#include "runtime/checkpoint.hpp"

namespace pima::core::detail {

/// Picks the number of vertex intervals so every interval fits the column
/// width of a sub-array row (hash distribution is near-uniform; retry with
/// more intervals if an outlier interval overflows).
GraphPartition partition_fitting(const assembly::DeBruijnGraph& g,
                                 const dram::Geometry& geom,
                                 std::uint32_t requested);

/// The run configuration the stages' command streams depend on — what a
/// snapshot pins and a resume must match. Identical for the in-process and
/// the isolated path: isolation changes where commands execute, never
/// which commands run.
runtime::CheckpointFingerprint make_fingerprint(const dram::Geometry& geom,
                                                const PipelineOptions& o);

}  // namespace pima::core::detail
