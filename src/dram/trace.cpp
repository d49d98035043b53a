#include "dram/trace.hpp"

#include <cstdio>
#include <sstream>

#include "common/error.hpp"
#include "common/table.hpp"

namespace pima::dram {

std::string TraceSink::to_csv() const {
  // Column order is part of the format (kCsvHeader); floats are rendered at
  // fixed %.6f so the export is byte-stable across ostream state and
  // locale, and parse_csv can round-trip it exactly at ns/fJ granularity.
  std::ostringstream out;
  out << kCsvHeader << '\n';
  char num[3 * 32];
  for (const auto& e : entries_) {
    std::snprintf(num, sizeof num, "%.6f,%.6f,%.6f", e.start_ns, e.latency_ns,
                  e.energy_pj);
    out << to_string(e.kind) << ',' << e.row_a << ',' << e.row_b << ','
        << e.row_c << ',' << e.dst << ',' << num << '\n';
  }
  return out.str();
}

std::vector<TraceEntry> TraceSink::parse_csv(const std::string& csv) {
  // Malformed input is a data error (InputFormatError), not a caller bug:
  // the CSV typically comes from disk, not from this process.
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line) || line != kCsvHeader)
    throw InputFormatError("trace CSV header mismatch");
  std::vector<TraceEntry> entries;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos)
      throw InputFormatError("malformed trace CSV row: " + line);
    const std::string kind_name = line.substr(0, comma);
    TraceEntry e;
    bool known = false;
    for (std::size_t k = 0; k < kCommandKindCount; ++k) {
      if (kind_name == to_string(static_cast<CommandKind>(k))) {
        e.kind = static_cast<CommandKind>(k);
        known = true;
        break;
      }
    }
    if (!known)
      throw InputFormatError("unknown command kind in trace CSV: " +
                             kind_name);
    unsigned long row_a = 0, row_b = 0, row_c = 0, dst = 0;
    double start_ns = 0.0, latency_ns = 0.0, energy_pj = 0.0;
    const int got =
        std::sscanf(line.c_str() + comma + 1, "%lu,%lu,%lu,%lu,%lf,%lf,%lf",
                    &row_a, &row_b, &row_c, &dst, &start_ns, &latency_ns,
                    &energy_pj);
    if (got != 7) throw InputFormatError("malformed trace CSV row: " + line);
    e.row_a = row_a;
    e.row_b = row_b;
    e.row_c = row_c;
    e.dst = dst;
    e.start_ns = start_ns;
    e.latency_ns = latency_ns;
    e.energy_pj = energy_pj;
    entries.push_back(std::move(e));
  }
  return entries;
}

std::string EnergyBreakdown::render(const std::string& title) const {
  TextTable table(title);
  table.set_header({"command", "count", "time (ns)", "energy (pJ)",
                    "energy share"});
  for (const auto& row : rows) {
    const double share =
        total_energy_pj > 0.0 ? row.energy_pj / total_energy_pj : 0.0;
    table.add_row({std::string(to_string(row.kind)),
                   std::to_string(row.count), TextTable::num(row.time_ns, 5),
                   TextTable::num(row.energy_pj, 5),
                   TextTable::num(share * 100.0, 3) + "%"});
  }
  table.add_row({"total", "", TextTable::num(total_time_ns, 5),
                 TextTable::num(total_energy_pj, 5), "100%"});
  return table.render();
}

namespace {

EnergyBreakdown finish(std::vector<EnergyBreakdown::Row> acc) {
  EnergyBreakdown b;
  for (auto& row : acc) {
    if (row.count == 0) continue;
    b.total_energy_pj += row.energy_pj;
    b.total_time_ns += row.time_ns;
    b.rows.push_back(row);
  }
  return b;
}

}  // namespace

EnergyBreakdown breakdown_from_trace(const std::vector<TraceEntry>& trace) {
  std::vector<EnergyBreakdown::Row> acc(kCommandKindCount);
  for (std::size_t k = 0; k < kCommandKindCount; ++k)
    acc[k].kind = static_cast<CommandKind>(k);
  for (const auto& e : trace) {
    auto& row = acc[static_cast<std::size_t>(e.kind)];
    ++row.count;
    row.energy_pj += e.energy_pj;
    row.time_ns += e.latency_ns;
  }
  return finish(std::move(acc));
}

EnergyBreakdown breakdown_from_stats(const CommandStats& stats,
                                     std::size_t columns,
                                     const circuit::Technology& tech) {
  // Each row is command_cost() of that kind alone, and finish() sums the
  // rows in kind order — the order command_cost() sums them — so the total
  // equals command_cost(stats).energy_pj bit for bit.
  std::vector<EnergyBreakdown::Row> acc(kCommandKindCount);
  for (std::size_t k = 0; k < kCommandKindCount; ++k) {
    CommandStats one;
    one.counts[k] = stats.counts[k];
    const CommandCost cost = command_cost(one, columns, tech);
    acc[k] = {static_cast<CommandKind>(k), stats.counts[k], cost.energy_pj,
              cost.busy_ns};
  }
  return finish(std::move(acc));
}

}  // namespace pima::dram
