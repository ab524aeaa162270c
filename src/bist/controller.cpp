#include "bist/controller.hpp"

#include <stdexcept>

namespace lbist::bist {

std::string_view controllerStateName(ControllerState s) {
  switch (s) {
    case ControllerState::kIdle:
      return "idle";
    case ControllerState::kSeedLoad:
      return "seed-load";
    case ControllerState::kShift:
      return "shift";
    case ControllerState::kCaptureGap:
      return "capture-gap";
    case ControllerState::kCapture:
      return "capture";
    case ControllerState::kUnloadGap:
      return "unload-gap";
    case ControllerState::kCompare:
      return "compare";
    case ControllerState::kDone:
      return "done";
  }
  return "?";
}

namespace {

[[noreturn]] void illegal(ControllerState s, std::string_view what) {
  throw std::logic_error("BIST controller: illegal " + std::string(what) +
                         " in state " +
                         std::string(controllerStateName(s)));
}

}  // namespace

void BistController::start() {
  if (state_ != ControllerState::kIdle) illegal(state_, "Start");
  state_ = ControllerState::kSeedLoad;
  se_ = true;
  patterns_done_ = 0;
  shift_pulses_ = 0;
  capture_pulses_ = 0;
  signatures_match_ = false;
  match_provided_ = false;
  checkpoint_due_ = false;
}

void BistController::seedsLoaded() {
  if (state_ != ControllerState::kSeedLoad) illegal(state_, "seedsLoaded");
  state_ = ControllerState::kShift;
}

void BistController::onEvent(const ScheduleEvent& ev) {
  using Kind = ScheduleEvent::Kind;
  checkpoint_due_ = false;
  switch (ev.kind) {
    case Kind::kShiftPulse:
      if (state_ != ControllerState::kShift) illegal(state_, "shift pulse");
      ++shift_pulses_;
      return;
    case Kind::kSeFall:
      if (state_ != ControllerState::kShift) illegal(state_, "SE fall");
      se_ = false;
      state_ = ControllerState::kCaptureGap;
      return;
    case Kind::kLaunchPulse:
    case Kind::kCapturePulse:
      if (state_ == ControllerState::kCaptureGap) {
        state_ = ControllerState::kCapture;
      }
      if (state_ != ControllerState::kCapture) {
        illegal(state_, "capture pulse");
      }
      if (se_) illegal(state_, "capture pulse with SE high");
      ++capture_pulses_;
      return;
    case Kind::kSeRise:
      if (state_ != ControllerState::kCapture) illegal(state_, "SE rise");
      se_ = true;
      state_ = ControllerState::kUnloadGap;
      return;
    case Kind::kPatternEnd:
      if (state_ != ControllerState::kUnloadGap) {
        illegal(state_, "pattern end");
      }
      ++patterns_done_;
      if (signature_interval_ > 0 &&
          patterns_done_ % signature_interval_ == 0) {
        checkpoint_due_ = true;
      }
      state_ = ControllerState::kShift;
      return;
    case Kind::kSessionEnd:
      if (state_ != ControllerState::kShift) illegal(state_, "session end");
      state_ = ControllerState::kCompare;
      if (match_provided_) state_ = ControllerState::kDone;
      return;
  }
}

void BistController::setSignatureMatch(bool match) {
  signatures_match_ = match;
  match_provided_ = true;
  if (state_ == ControllerState::kCompare) state_ = ControllerState::kDone;
}

}  // namespace lbist::bist
