#include "robust/robust.hpp"

#include <algorithm>
#include <mutex>

#include "obs/obs.hpp"

namespace lbist::robust {
namespace detail {

std::atomic<bool> g_plan_active{false};

}  // namespace detail

namespace {

// Runtime state of one armed rule: the immutable trigger plus its
// mutable hit/fire counters (reset by setFaultPlan).
struct RuleState {
  FaultRule rule;
  uint64_t hits = 0;
  uint64_t fires = 0;
};

// All registry + plan state behind one mutex. Sites only take it when
// a plan is active (consult) or on first execution (pointId), so the
// lock is never on a hot uninjected path.
struct Registry {
  std::mutex mu;
  std::vector<PointInfo> points;           // index == point id
  std::vector<RuleState> rules;            // armed plan, empty when none
  std::vector<uint64_t> fires_per_point;   // same index as points
  uint64_t total_fires = 0;
};

Registry& registry() {
  static Registry r;
  return r;
}

// Per-action injection counters keep the differential tests honest:
// every fire is visible in the obs snapshot the campaign report embeds.
void countFire(FaultAction action) {
  OBS_COUNT("robust.injections", 1);
  switch (action) {
    case FaultAction::kIoError:
      OBS_COUNT("robust.injections_io_error", 1);
      break;
    case FaultAction::kTornWrite:
      OBS_COUNT("robust.injections_torn_write", 1);
      break;
    case FaultAction::kBitFlip:
      OBS_COUNT("robust.injections_bit_flip", 1);
      break;
    case FaultAction::kThrow:
      OBS_COUNT("robust.injections_throw", 1);
      break;
    case FaultAction::kHang:
      OBS_COUNT("robust.injections_hang", 1);
      break;
    case FaultAction::kNone:
      break;
  }
}

}  // namespace

const char* errorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "Ok";
    case ErrorCode::kIoError:
      return "IoError";
    case ErrorCode::kCorruptCheckpoint:
      return "CorruptCheckpoint";
    case ErrorCode::kBudgetExceeded:
      return "BudgetExceeded";
    case ErrorCode::kJobFailed:
      return "JobFailed";
    case ErrorCode::kInvalidArgument:
      return "InvalidArgument";
  }
  return "Unknown";
}

Status Status::error(ErrorCode code, std::string message) {
  return Status(code, std::move(message));
}

std::string Status::toString() const {
  if (ok()) return "Ok";
  return std::string(errorCodeName(code_)) + ": " + message_;
}

const char* actionName(FaultAction action) {
  switch (action) {
    case FaultAction::kNone:
      return "none";
    case FaultAction::kIoError:
      return "io_error";
    case FaultAction::kTornWrite:
      return "torn_write";
    case FaultAction::kBitFlip:
      return "bit_flip";
    case FaultAction::kThrow:
      return "throw";
    case FaultAction::kHang:
      return "hang";
  }
  return "unknown";
}

uint32_t actionBit(FaultAction action) {
  switch (action) {
    case FaultAction::kNone:
      return 0;
    case FaultAction::kIoError:
      return kCanIoError;
    case FaultAction::kTornWrite:
      return kCanTornWrite;
    case FaultAction::kBitFlip:
      return kCanBitFlip;
    case FaultAction::kThrow:
      return kCanThrow;
    case FaultAction::kHang:
      return kCanHang;
  }
  return 0;
}

void setFaultPlan(FaultPlan plan) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.rules.clear();
  r.rules.reserve(plan.rules.size());
  for (FaultRule& rule : plan.rules) {
    r.rules.push_back(RuleState{std::move(rule), 0, 0});
  }
  r.total_fires = 0;
  std::fill(r.fires_per_point.begin(), r.fires_per_point.end(), 0u);
  detail::g_plan_active.store(true, std::memory_order_relaxed);
}

void clearFaultPlan() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  detail::g_plan_active.store(false, std::memory_order_relaxed);
  r.rules.clear();
  r.total_fires = 0;
  std::fill(r.fires_per_point.begin(), r.fires_per_point.end(), 0u);
}

uint32_t pointId(std::string_view name, uint32_t supported) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (uint32_t i = 0; i < r.points.size(); ++i) {
    if (r.points[i].name == name) {
      r.points[i].supported |= supported;
      return i;
    }
  }
  r.points.push_back(PointInfo{std::string(name), supported});
  r.fires_per_point.push_back(0);
  return static_cast<uint32_t>(r.points.size() - 1);
}

FaultAction consult(uint32_t id, std::string_view key) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (id >= r.points.size()) return FaultAction::kNone;
  const PointInfo& point = r.points[id];
  for (RuleState& state : r.rules) {
    const FaultRule& rule = state.rule;
    if (rule.point != point.name) continue;
    if (!rule.key.empty() && rule.key != key) continue;
    ++state.hits;
    if (state.hits < rule.nth_hit) continue;
    const uint64_t since = state.hits - rule.nth_hit;
    if (since != 0 && (rule.every_kth == 0 || since % rule.every_kth != 0)) {
      continue;
    }
    if (rule.max_fires != 0 && state.fires >= rule.max_fires) continue;
    // A rule arming an action the site never honors would silently
    // no-op the whole experiment; fail the fire instead of the test's
    // assumptions.
    if ((point.supported & actionBit(rule.action)) == 0) continue;
    ++state.fires;
    ++r.total_fires;
    ++r.fires_per_point[id];
    countFire(rule.action);
    if (obs::eventsEnabled()) {
      // commitShared: injection sites fire from pool workers, and the
      // content (point, key, action) is deterministic per plan while
      // the cross-thread interleaving is not. No fire ordinal for the
      // same reason.
      obs::Event("inject")
          .field("point", point.name)
          .field("key", key)
          .field("action", actionName(rule.action))
          .commitShared();
    }
    return rule.action;
  }
  return FaultAction::kNone;
}

std::vector<PointInfo> registeredPoints() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<PointInfo> out = r.points;
  std::sort(out.begin(), out.end(),
            [](const PointInfo& a, const PointInfo& b) {
              return a.name < b.name;
            });
  return out;
}

uint64_t planFires() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.total_fires;
}

uint64_t planFiresAt(std::string_view point) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (uint32_t i = 0; i < r.points.size(); ++i) {
    if (r.points[i].name == point) return r.fires_per_point[i];
  }
  return 0;
}

}  // namespace lbist::robust
