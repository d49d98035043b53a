#include "dram/isa.hpp"

#include <algorithm>
#include <istream>
#include <iterator>
#include <sstream>

#include "dram/dpu.hpp"

namespace pima::dram {
namespace {

struct OpcodeName {
  Opcode op;
  const char* name;
};

constexpr OpcodeName kOpcodeNames[] = {
    {Opcode::kAapCopy, "AAP_COPY"},   {Opcode::kAapXnor, "AAP2_XNOR"},
    {Opcode::kAapXor, "AAP2_XOR"},    {Opcode::kAapTra, "AAP3_TRA"},
    {Opcode::kSum, "SUM"},            {Opcode::kResetLatch, "RST_LATCH"},
    {Opcode::kRowWrite, "ROW_WRITE"}, {Opcode::kRowRead, "ROW_READ"},
    {Opcode::kDpuAnd, "DPU_AND"},     {Opcode::kDpuOr, "DPU_OR"},
    {Opcode::kDpuPopcount, "DPU_POPCOUNT"},
};

const char* name_of(Opcode op) {
  for (const auto& e : kOpcodeNames)
    if (e.op == op) return e.name;
  throw PreconditionError("unknown opcode");
}

std::optional<Opcode> opcode_of(const std::string& name) {
  for (const auto& e : kOpcodeNames)
    if (name == e.name) return e.op;
  return std::nullopt;
}

// Field sets by opcode: which operands the text format carries.
bool has_src2(Opcode op) {
  return op == Opcode::kAapXnor || op == Opcode::kAapXor ||
         op == Opcode::kAapTra || op == Opcode::kSum;
}
bool has_src3(Opcode op) { return op == Opcode::kAapTra; }
bool has_dst(Opcode op) {
  switch (op) {
    case Opcode::kAapCopy:
    case Opcode::kAapXnor:
    case Opcode::kAapXor:
    case Opcode::kAapTra:
    case Opcode::kSum:
      return true;
    default:
      return false;
  }
}
bool has_src1(Opcode op) {
  switch (op) {
    case Opcode::kResetLatch:
      return false;
    case Opcode::kRowWrite:
    case Opcode::kRowRead:
    case Opcode::kDpuAnd:
    case Opcode::kDpuOr:
    case Opcode::kDpuPopcount:
      return true;  // src1 = the addressed row
    default:
      return true;
  }
}
bool has_width(Opcode op) {
  return op == Opcode::kDpuAnd || op == Opcode::kDpuOr ||
         op == Opcode::kDpuPopcount;
}

}  // namespace

std::string to_text(const Instruction& inst) {
  std::ostringstream out;
  out << name_of(inst.op) << " sa=" << inst.subarray;
  if (has_src1(inst.op)) out << " src1=" << inst.src1;
  if (has_src2(inst.op)) out << " src2=" << inst.src2;
  if (has_src3(inst.op)) out << " src3=" << inst.src3;
  if (has_dst(inst.op)) out << " dst=" << inst.dst;
  out << " size=" << inst.size;
  if (has_width(inst.op)) out << " width=" << inst.width;
  if (inst.op == Opcode::kRowWrite) out << " data=" << inst.payload.to_string();
  return out.str();
}

std::optional<Instruction> parse_instruction(const std::string& line) {
  std::istringstream in(line);
  std::string mnemonic;
  if (!(in >> mnemonic)) return std::nullopt;   // blank line
  if (mnemonic[0] == '#') return std::nullopt;  // comment

  const auto op = opcode_of(mnemonic);
  PIMA_CHECK(op.has_value(), "unknown mnemonic: " + mnemonic);
  Instruction inst;
  inst.op = *op;

  std::string field;
  while (in >> field) {
    const auto eq = field.find('=');
    PIMA_CHECK(eq != std::string::npos, "malformed field: " + field);
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "data") {
      inst.payload = BitVector::from_string(value);
      continue;
    }
    std::size_t num = 0;
    try {
      num = std::stoul(value);
    } catch (const std::exception&) {
      throw PreconditionError("non-numeric field value: " + field);
    }
    if (key == "sa")
      inst.subarray = num;
    else if (key == "src1")
      inst.src1 = num;
    else if (key == "src2")
      inst.src2 = num;
    else if (key == "src3")
      inst.src3 = num;
    else if (key == "dst")
      inst.dst = num;
    else if (key == "size")
      inst.size = num;
    else if (key == "width")
      inst.width = num;
    else
      throw PreconditionError("unknown field: " + key);
  }
  PIMA_CHECK(inst.size >= 1, "instruction size must be >= 1");
  return inst;
}

std::string to_text(const Program& program) {
  std::string out;
  for (const auto& inst : program) out += to_text(inst) + "\n";
  return out;
}

Program parse_program(std::istream& in) {
  Program program;
  std::string line;
  while (std::getline(in, line)) {
    if (auto inst = parse_instruction(line)) program.push_back(std::move(*inst));
  }
  return program;
}

Program captured_program(const Device& device) {
  PIMA_CHECK(device.tracing(), "device is not capturing a trace");
  const std::size_t total = device.geometry().total_subarrays();
  std::size_t commands = 0;
  for (std::size_t flat = 0; flat < total; ++flat)
    if (const TraceSink* sink = device.trace_if(flat)) commands += sink->size();
  Program program;
  program.reserve(commands);
  for (std::size_t flat = 0; flat < total; ++flat)
    if (const TraceSink* sink = device.trace_if(flat))
      program.insert(program.end(), sink->program().begin(),
                     sink->program().end());
  return program;
}

Program merge_by_flat(std::vector<Program> parts) {
  if (parts.size() == 1) return std::move(parts.front());
  // A stable sort of the joined parts on the flat index, done on runs: each
  // run is one flat's consecutive instructions within a part, and moves
  // whole.
  struct Run {
    std::size_t flat;
    Program::iterator begin, end;
  };
  std::vector<Run> runs;
  std::size_t commands = 0;
  for (auto& part : parts) {
    commands += part.size();
    for (auto it = part.begin(); it != part.end();) {
      const std::size_t flat = it->subarray;
      const auto end = std::find_if(it, part.end(), [&](const Instruction& i) {
        return i.subarray != flat;
      });
      runs.push_back({flat, it, end});
      it = end;
    }
  }
  std::stable_sort(runs.begin(), runs.end(),
                   [](const Run& a, const Run& b) { return a.flat < b.flat; });
  Program program;
  program.reserve(commands);
  for (const Run& run : runs)
    program.insert(program.end(), std::make_move_iterator(run.begin),
                   std::make_move_iterator(run.end));
  return program;
}

ExecutionResults execute(Device& device, const Program& program) {
  ExecutionResults results;
  for (const auto& inst : program) {
    Subarray& sa = device.subarray(inst.subarray);
    // Multi-row activations destroy their operand rows, so a bulk op over
    // size > 1 rows is not expressible as one instruction — the controller
    // re-stages operands between ops (that is what the kernels do).
    PIMA_CHECK(inst.size == 1 || inst.op == Opcode::kAapCopy ||
                   inst.op == Opcode::kRowWrite ||
                   inst.op == Opcode::kRowRead ||
                   inst.op == Opcode::kDpuAnd || inst.op == Opcode::kDpuOr ||
                   inst.op == Opcode::kDpuPopcount,
               "multi-row size only valid on copy/read/write/reduce");
    for (std::size_t r = 0; r < inst.size; ++r) {
      switch (inst.op) {
        case Opcode::kAapCopy:
          sa.aap_copy(inst.src1 + r, inst.dst + r);
          break;
        case Opcode::kAapXnor:
          sa.aap_xnor(inst.src1, inst.src2, inst.dst + r);
          break;
        case Opcode::kAapXor:
          sa.aap_xor(inst.src1, inst.src2, inst.dst + r);
          break;
        case Opcode::kAapTra:
          sa.aap_tra_carry(inst.src1, inst.src2, inst.src3, inst.dst + r);
          break;
        case Opcode::kSum:
          sa.sum_cycle(inst.src1, inst.src2, inst.dst + r);
          break;
        case Opcode::kResetLatch:
          sa.reset_latch();
          break;
        case Opcode::kRowWrite: {
          PIMA_CHECK(inst.payload.size() == sa.geometry().columns,
                     "ROW_WRITE payload width mismatch");
          sa.write_row(inst.src1 + r, inst.payload);
          break;
        }
        case Opcode::kRowRead:
          results.rows_read.push_back(sa.read_row(inst.src1 + r));
          break;
        case Opcode::kDpuAnd:
          results.reductions.push_back(
              Dpu::and_reduce(sa, inst.src1 + r, inst.width));
          break;
        case Opcode::kDpuOr:
          results.reductions.push_back(
              Dpu::or_reduce(sa, inst.src1 + r, inst.width));
          break;
        case Opcode::kDpuPopcount:
          results.popcounts.push_back(
              Dpu::popcount(sa, inst.src1 + r, inst.width));
          break;
      }
    }
  }
  return results;
}

}  // namespace pima::dram
