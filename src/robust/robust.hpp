// Failure-handling layer: a stable error taxonomy, deterministic retry
// budgets, and a deterministic fault-injection harness
// (ARCHITECTURE.md contract 6, "failures are deterministic and
// recoverable").
//
// Three pieces:
//
//  * robust::Status / robust::Result<T> — structured errors with stable
//    codes at the boundaries that used to throw (campaign runner,
//    checkpoint I/O, scheduler, top-up), so callers can distinguish
//    retryable failures (IoError, JobFailed) from fatal ones
//    (CorruptCheckpoint, InvalidArgument) without parsing messages.
//    The pre-existing throwing entry points survive as thin wrappers.
//
//  * robust::RetryPolicy — a deterministic attempt budget with backoff
//    counted in simulated ticks, never wall-clock sleeps, so retried
//    runs stay bit-exact and testable. Mapping ticks to real delays is
//    a deployment concern, not an engine concern.
//
//  * ROBUST_POINT — named fault-injection sites compiled into the
//    production code paths (checkpoint writes, campaign jobs, fsim
//    blocks, ATPG targets) and driven by a robust::FaultPlan. A plan
//    fires actions (I/O error, torn write, bit flip, job exception,
//    simulated hang) on counted nth-hit / every-kth triggers, never
//    sampled ones, optionally keyed (e.g. by core name) so multi-threaded
//    runs stay deterministic. With no plan installed a site costs one
//    relaxed atomic load; -DLBIST_ROBUST_OFF compiles every site out
//    entirely (the obs-macro cost model).
//
// Injection-point naming convention (mirrors the obs counter
// convention): lowercase dotted "<subsystem>.<component>.<operation>"
// naming the operation the site guards — campaign.checkpoint.append,
// campaign.job.run, fsim.block.simulate, atpg.target.generate. Sites
// register themselves (name + the actions they honor) on first
// execution; robust::registeredPoints() enumerates them so the
// differential injection suite can prove every site recovers.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lbist::robust {

/// Stable error codes. Codes are API: callers branch on them, tests pin
/// them, and messages stay free to improve.
enum class ErrorCode : uint8_t {
  kOk = 0,
  /// The OS refused a read/write/rename. Retryable: the same call may
  /// succeed later (full disk drained, transient EIO).
  kIoError,
  /// A checkpoint failed validation beyond what record-level recovery
  /// can heal (well-formed header for a different campaign). Not
  /// retryable — resuming would silently mix campaigns.
  kCorruptCheckpoint,
  /// A deterministic budget (watchdog attempt budget, PODEM backtrack
  /// budget) was exhausted. Not retryable under the same budget.
  kBudgetExceeded,
  /// A worker job failed (exception captured at the merge point).
  /// Retryable: jobs are pure, so a re-run is safe.
  kJobFailed,
  /// A precondition on the call itself failed (mismatched golden
  /// characterization, unschedulable session). Not retryable.
  kInvalidArgument,
};

/// Stable identifier string for `code` (e.g. "CorruptCheckpoint").
[[nodiscard]] const char* errorCodeName(ErrorCode code);

/// An error code plus a human-actionable message. Default-constructed
/// Status is OK; error statuses always carry a message.
class Status {
 public:
  /// OK status.
  Status() = default;

  /// Builds an error status. `code` must not be kOk.
  [[nodiscard]] static Status error(ErrorCode code, std::string message);

  /// True when no error occurred.
  [[nodiscard]] bool ok() const { return code_ == ErrorCode::kOk; }
  /// The stable code (kOk for success).
  [[nodiscard]] ErrorCode code() const { return code_; }
  /// The message (empty for success).
  [[nodiscard]] const std::string& message() const { return message_; }
  /// True for codes where retrying the same operation is sound
  /// (kIoError, kJobFailed).
  [[nodiscard]] bool retryable() const {
    return code_ == ErrorCode::kIoError || code_ == ErrorCode::kJobFailed;
  }
  /// "Ok" or "<CodeName>: <message>" — the rendering the throwing
  /// wrappers and reports use.
  [[nodiscard]] std::string toString() const;

 private:
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

/// A value or an error Status — the return type of the try* entry
/// points (Scheduler::tryBuild, CampaignRunner::tryRun). Exactly one of
/// value()/status() is meaningful; value() must only be called when
/// ok().
template <typename T>
class Result {
 public:
  /// Success result holding `value`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Error result; `status` must not be OK (enforced by assert-grade
  /// check: an OK status without a value would be unusable).
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  /// True when a value is present.
  [[nodiscard]] bool ok() const { return value_.has_value(); }
  /// The error (OK when a value is present).
  [[nodiscard]] const Status& status() const { return status_; }
  /// The held value; only valid when ok().
  [[nodiscard]] T& value() & { return *value_; }
  /// The held value; only valid when ok().
  [[nodiscard]] const T& value() const& { return *value_; }
  /// Moves the held value out; only valid when ok().
  [[nodiscard]] T&& value() && { return *std::move(value_); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Deterministic retry budget: total attempts plus exponential backoff
/// measured in simulated ticks (never wall-clock sleeps), so retried
/// runs are bit-exact for any machine speed. A runner records the ticks
/// (obs counter) instead of sleeping; a deployment maps ticks to
/// milliseconds outside the engine.
struct RetryPolicy {
  /// Total tries per job, including the first (1 disables retry).
  uint32_t max_attempts = 2;
  /// Backoff before retry k (k >= 2) is base << (k - 2) ticks.
  uint32_t backoff_base_ticks = 1;

  /// Simulated ticks charged before attempt `attempt` (1-based; 0 for
  /// the first attempt).
  [[nodiscard]] uint64_t backoffTicks(uint32_t attempt) const {
    if (attempt <= 1) return 0;
    return static_cast<uint64_t>(backoff_base_ticks) << (attempt - 2);
  }
};

/// What a fired injection site does to the guarded operation.
enum class FaultAction : uint8_t {
  kNone = 0,   // site proceeds normally
  kIoError,    // the I/O operation reports failure without running
  kTornWrite,  // only a prefix of the bytes reaches the file
  kBitFlip,    // one bit of the payload is flipped before writing
  kThrow,      // the site throws (a worker-job exception)
  kHang,       // the operation "hangs": its watchdog/backtrack budget
               // is charged as exhausted (simulated, tick-based)
};

/// Bitmask values naming the actions a site honors; ored together as
/// the `supported` argument of ROBUST_POINT and surfaced through
/// registeredPoints() so tests can enumerate site x action pairs.
enum SupportedActions : uint32_t {
  kCanIoError = 1u << 0,
  kCanTornWrite = 1u << 1,
  kCanBitFlip = 1u << 2,
  kCanThrow = 1u << 3,
  kCanHang = 1u << 4,
};

/// Short identifier for `action` (e.g. "torn_write"), used in counter
/// names and injected-failure messages.
[[nodiscard]] const char* actionName(FaultAction action);

/// The SupportedActions bit corresponding to `action` (0 for kNone).
[[nodiscard]] uint32_t actionBit(FaultAction action);

/// One deterministic trigger: fire `action` at injection point `point`
/// on chosen hits. Hits are counted per rule, in site execution order;
/// keyed rules only count hits whose site key matches, which is what
/// keeps triggers deterministic when sites run on worker threads.
struct FaultRule {
  /// Exact injection-point name the rule arms.
  std::string point;
  /// Site key to match ("" matches every key). Job-level sites pass a
  /// stable key (core name, fault description) precisely so plans stay
  /// deterministic under thread-racing hit orders.
  std::string key;
  /// Action to fire.
  FaultAction action = FaultAction::kNone;
  /// First matching hit (1-based) that fires.
  uint64_t nth_hit = 1;
  /// 0: fire only on hit nth_hit. k > 0: fire on nth_hit, nth_hit + k,
  /// nth_hit + 2k, ...
  uint64_t every_kth = 0;
  /// Stop after this many fires (0 = unlimited).
  uint64_t max_fires = 1;
};

/// A set of FaultRules. Installing a plan resets all hit/fire counters,
/// so the same plan against the same workload always fires at the same
/// sites — injection runs are reproducible by construction. Triggers
/// are counted, not sampled, and payloads are fixed (a bit flip always
/// hits the last content byte), so a plan has no seed.
struct FaultPlan {
  /// The armed triggers.
  std::vector<FaultRule> rules;
};

/// One registered injection site.
struct PointInfo {
  /// Site name (see the file-comment naming convention).
  std::string name;
  /// Ored SupportedActions bits the site honors.
  uint32_t supported = 0;
};

namespace detail {
/// Backing flag for the inline planActive() read; relaxed is enough
/// because plans are installed at quiescent points (no site mid-flight).
extern std::atomic<bool> g_plan_active;
}  // namespace detail

/// Installs `plan` and resets every rule's hit/fire counters and the
/// fire tallies. Pass an empty plan (no rules) to exercise site
/// registration without firing anything.
void setFaultPlan(FaultPlan plan);

/// Removes the installed plan; every site returns to kNone cost.
void clearFaultPlan();

/// True while a plan is installed — the single relaxed load every
/// enabled-but-unarmed site pays.
[[nodiscard]] inline bool planActive() {
  return detail::g_plan_active.load(std::memory_order_relaxed);
}

/// Interns an injection point (ors `supported` into its mask) and
/// returns its stable id. Called once per site via the macro's
/// function-local static.
[[nodiscard]] uint32_t pointId(std::string_view name, uint32_t supported);

/// Consults the installed plan for a hit at point `id` with `key`.
/// Counts the hit on every matching rule and returns the first firing
/// rule's action (kNone otherwise). Thread-safe; cold by design.
[[nodiscard]] FaultAction consult(uint32_t id, std::string_view key);

/// Every injection point interned so far, sorted by name. Sites
/// register on first execution (even with no plan installed), so run
/// the workload once before enumerating.
[[nodiscard]] std::vector<PointInfo> registeredPoints();

/// Total rule fires since the last setFaultPlan.
[[nodiscard]] uint64_t planFires();

/// Rule fires at one named point since the last setFaultPlan.
[[nodiscard]] uint64_t planFiresAt(std::string_view point);

}  // namespace lbist::robust

// ROBUST_POINT(point, key, supported) evaluates to the FaultAction the
// installed plan fires for this hit (kNone when no plan is installed or
// no rule matches). `key` is only evaluated when a plan is active, so
// building key strings costs nothing in normal runs. Sites must honor
// exactly the actions they declare in `supported` and ignore the rest.
#ifndef LBIST_ROBUST_OFF

#define ROBUST_POINT(point, key, supported)                      \
  ([&]() -> ::lbist::robust::FaultAction {                       \
    static const uint32_t robust_point_id_ =                     \
        ::lbist::robust::pointId(point, supported);              \
    if (!::lbist::robust::planActive()) {                        \
      return ::lbist::robust::FaultAction::kNone;                \
    }                                                            \
    return ::lbist::robust::consult(robust_point_id_, (key));    \
  }())

#else  // LBIST_ROBUST_OFF

// The arguments stay syntactically alive (unevaluated sizeof) so a
// site's inputs never become unused-variable warnings in OFF builds.
#define ROBUST_POINT(point, key, supported)                    \
  ((void)sizeof(point), (void)sizeof(key),                     \
   (void)sizeof(supported), ::lbist::robust::FaultAction::kNone)

#endif  // LBIST_ROBUST_OFF
