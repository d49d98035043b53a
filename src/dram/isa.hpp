// The AAP instruction set (paper §II.B "Software Support").
//
// PIM-Assembler is programmed with ACTIVATE-ACTIVATE-PRECHARGE primitives;
// the paper defines three instruction types that differ only in the number
// of activated source rows:
//
//   type-1  AAP(src, des, size)               — RowClone copy
//   type-2  AAP(src1, src2, des, size)        — two-row activation (X(N)OR)
//   type-3  AAP(src1, src2, src3, des, size)  — Ambit-TRA (MAJ3 carry)
//
// plus ordinary row reads/writes, the sum cycle, DPU reductions and latch
// reset as host-visible operations. `size` is in row units: "the size of
// input vectors for in-memory computation must be a multiple of DRAM row
// size, otherwise the application must pad it with dummy data" — an
// instruction with size = n expands to n consecutive-row operations.
//
// This module gives the command stream a concrete form: a tiny
// assembler/disassembler for the Instruction value type (command.hpp) in a
// human-readable text format, and an executor that runs programs against a
// dram::Device. The higher-level kernels drive Subarray directly for speed;
// the ISA layer is the documented contract. A traced sub-array records
// each command as the Instruction that replays it, so a captured trace is a
// program as it stands.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "dram/device.hpp"

namespace pima::dram {

/// Renders one instruction in the text format, e.g.
///   `AAP2_XNOR sa=3 src1=1016 src2=1017 dst=42 size=1`
std::string to_text(const Instruction& inst);

/// Parses one text line (inverse of to_text). Throws PreconditionError on
/// malformed input. Blank lines and '#' comments yield std::nullopt.
std::optional<Instruction> parse_instruction(const std::string& line);

/// Serializes / parses whole programs.
std::string to_text(const Program& program);
Program parse_program(std::istream& in);

/// Result values produced by the read/reduce instructions, in program
/// order.
struct ExecutionResults {
  std::vector<BitVector> rows_read;        ///< one per ROW_READ
  std::vector<bool> reductions;            ///< one per DPU_AND / DPU_OR
  std::vector<std::size_t> popcounts;      ///< one per DPU_POPCOUNT
};

/// Executes a program against a device. Each instruction expands its
/// `size` consecutive-row repetitions. Costs accrue on the touched
/// sub-arrays exactly as if the kernels had issued the commands directly.
ExecutionResults execute(Device& device, const Program& program);

// ---- Trace replay (the oracle's capture path) ----------------------------
//
// Any production run executed with Device::enable_tracing() captures its
// commands as an ISA program that replays them — e.g. through the golden
// model for differential verification (`pima_asm pim-run --dump-trace` →
// `pima_fuzz --replay`).

/// A device's capture: every traced sub-array's instructions in flat-index
/// order. Sub-arrays share no state, so any interleaving that preserves
/// per-sub-array order is an exact replay; flat order is the canonical one.
Program captured_program(const Device& device);

/// Merges per-device captures (each in flat order, every flat
/// owned by one device) into logical flat order: byte-identical to the
/// captured_program() of one device that ran the same commands.
Program merge_by_flat(std::vector<Program> parts);

}  // namespace pima::dram
