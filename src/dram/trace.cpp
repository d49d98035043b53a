#include "dram/trace.hpp"

#include "common/table.hpp"

namespace pima::dram {

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

EnergyBreakdown breakdown_from_stats(const CommandStats& stats,
                                     std::size_t columns,
                                     const circuit::Technology& tech) {
  // Each row is command_cost() of that kind alone, and the rows are summed
  // in kind order — the order command_cost() sums them — so the total
  // equals command_cost(stats).energy_pj bit for bit.
  EnergyBreakdown b;
  for (std::size_t k = 0; k < kCommandKindCount; ++k) {
    if (stats.counts[k] == 0) continue;
    CommandStats one;
    one.counts[k] = stats.counts[k];
    const CommandCost cost = command_cost(one, columns, tech);
    b.rows.push_back({static_cast<CommandKind>(k), stats.counts[k],
                      cost.energy_pj, cost.busy_ns});
    b.total_energy_pj += cost.energy_pj;
    b.total_time_ns += cost.busy_ns;
  }
  return b;
}

}  // namespace pima::dram
