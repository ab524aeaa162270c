#include "soc/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace lbist::soc {

double TestSchedule::peakPower() const {
  double peak = 0.0;
  for (const ScheduleGroup& g : groups) peak = std::max(peak, g.power);
  return peak;
}

double peakSessionPower(std::span<const CoreSession> sessions) {
  double peak = 0.0;
  for (const CoreSession& s : sessions) peak = std::max(peak, s.power);
  return peak;
}

double totalSessionPower(std::span<const CoreSession> sessions) {
  double total = 0.0;
  for (const CoreSession& s : sessions) total += s.power;
  return total;
}

uint64_t sessionTcks(const core::BistReadyCore& core,
                     const core::SessionOptions& opts) {
  const auto shift_cycles =
      static_cast<uint64_t>(core.shiftCyclesPerPattern());
  const auto patterns = static_cast<uint64_t>(opts.patterns);
  const bist::AtSpeedTimingConfig& timing =
      opts.timing_override ? *opts.timing_override : core.config.timing;
  const uint64_t pulses_per_domain = timing.double_capture ? 2 : 1;

  // Every pattern's shift window plus the final unload window.
  uint64_t tcks = (patterns + 1) * shift_cycles;
  tcks += patterns * pulses_per_domain *
          static_cast<uint64_t>(core.netlist.numDomains());
  return tcks;
}

robust::Result<TestSchedule> Scheduler::tryBuild(
    std::vector<CoreSession> sessions) const {
  TestSchedule sched;
  sched.power_budget = budget_;

  for (const CoreSession& s : sessions) {
    if (s.power > budget_) {
      return robust::Status::error(
          robust::ErrorCode::kInvalidArgument,
          "core '" + s.name + "' exceeds the power budget on its own");
    }
  }

  // Longest session first; ties break on input position so the schedule
  // is a pure function of the session list.
  std::vector<size_t> order(sessions.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (sessions[a].test_tcks != sessions[b].test_tcks) {
      return sessions[a].test_tcks > sessions[b].test_tcks;
    }
    return a < b;
  });

  for (size_t idx : order) {
    const CoreSession& s = sessions[idx];
    ScheduleGroup* placed = nullptr;
    for (ScheduleGroup& g : sched.groups) {
      if (g.power + s.power <= budget_) {
        placed = &g;
        break;
      }
    }
    if (placed == nullptr) {
      sched.groups.emplace_back();
      placed = &sched.groups.back();
    }
    placed->members.push_back(idx);
    placed->power += s.power;
    placed->duration_tcks = std::max(placed->duration_tcks, s.test_tcks);
  }

  uint64_t t = 0;
  for (ScheduleGroup& g : sched.groups) {
    g.start_tck = t;
    t += g.duration_tcks;
  }
  sched.total_tcks = t;

  uint64_t longest = 0;
  double power_area = 0.0;
  for (const CoreSession& s : sessions) {
    sched.serial_tcks += s.test_tcks;
    longest = std::max(longest, s.test_tcks);
    power_area += s.power * static_cast<double>(s.test_tcks);
  }
  const auto area_bound = budget_ <= 0.0
                              ? uint64_t{0}
                              : static_cast<uint64_t>(
                                    std::ceil(power_area / budget_));
  sched.lower_bound_tcks = std::max(longest, area_bound);

  sched.sessions = std::move(sessions);
  return sched;
}

TestSchedule Scheduler::build(std::vector<CoreSession> sessions) const {
  robust::Result<TestSchedule> result = tryBuild(std::move(sessions));
  if (!result.ok()) throw std::invalid_argument(result.status().message());
  return std::move(result).value();
}

}  // namespace lbist::soc
