#include "sim/waveform.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>

namespace lbist::sim {

namespace {

char valueChar(WireValue v) {
  switch (v) {
    case WireValue::kLow:
      return '0';
    case WireValue::kHigh:
      return '1';
    case WireValue::kX:
      return 'x';
  }
  return 'x';
}

}  // namespace

Waveform::SignalId Waveform::addSignal(std::string_view name,
                                       WireValue initial) {
  names_.emplace_back(name);
  events_.push_back({Event{0, initial}});
  return static_cast<SignalId>(names_.size() - 1);
}

void Waveform::change(SignalId sig, uint64_t time_ps, WireValue value) {
  assert(sig < events_.size());
  auto& ev = events_[sig];
  // Common case: monotone appends.
  if (!ev.empty() && ev.back().time_ps <= time_ps) {
    if (ev.back().time_ps == time_ps) {
      ev.back().value = value;
    } else if (ev.back().value != value) {
      ev.push_back({time_ps, value});
    }
    return;
  }
  auto it = std::lower_bound(
      ev.begin(), ev.end(), time_ps,
      [](const Event& e, uint64_t t) { return e.time_ps < t; });
  if (it != ev.end() && it->time_ps == time_ps) {
    it->value = value;
  } else {
    ev.insert(it, Event{time_ps, value});
  }
}

void Waveform::pulse(SignalId sig, uint64_t t_ps, uint64_t width_ps) {
  change(sig, t_ps, WireValue::kHigh);
  change(sig, t_ps + width_ps, WireValue::kLow);
}

const std::vector<Waveform::Event>& Waveform::sorted(SignalId sig) const {
  return events_[sig];
}

WireValue Waveform::valueAt(SignalId sig, uint64_t time_ps) const {
  const auto& ev = sorted(sig);
  auto it = std::upper_bound(
      ev.begin(), ev.end(), time_ps,
      [](uint64_t t, const Event& e) { return t < e.time_ps; });
  if (it == ev.begin()) return WireValue::kX;
  return std::prev(it)->value;
}

std::vector<uint64_t> Waveform::risingEdges(SignalId sig) const {
  std::vector<uint64_t> rises;
  const auto& ev = sorted(sig);
  for (size_t i = 1; i < ev.size(); ++i) {
    if (ev[i].value == WireValue::kHigh && ev[i - 1].value == WireValue::kLow) {
      rises.push_back(ev[i].time_ps);
    }
  }
  return rises;
}

uint64_t Waveform::endTime() const {
  uint64_t end = 0;
  for (const auto& ev : events_) {
    if (!ev.empty()) end = std::max(end, ev.back().time_ps);
  }
  return end;
}

void Waveform::writeVcd(std::ostream& os, std::string_view module_name) const {
  os << "$timescale 1ps $end\n";
  os << "$scope module " << module_name << " $end\n";
  for (size_t i = 0; i < names_.size(); ++i) {
    os << "$var wire 1 " << static_cast<char>('!' + i) << " " << names_[i]
       << " $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";

  // Merge all events by time.
  struct Item {
    uint64_t time;
    size_t sig;
    WireValue value;
  };
  std::vector<Item> items;
  for (size_t s = 0; s < events_.size(); ++s) {
    for (const Event& e : events_[s]) {
      items.push_back({e.time_ps, s, e.value});
    }
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) {
                     return a.time < b.time;
                   });
  uint64_t current = ~uint64_t{0};
  for (const Item& it : items) {
    if (it.time != current) {
      os << "#" << it.time << "\n";
      current = it.time;
    }
    os << valueChar(it.value) << static_cast<char>('!' + it.sig) << "\n";
  }
  os << "#" << endTime() + 1 << "\n";
}

std::string Waveform::renderAscii(size_t cols) const {
  const uint64_t end = endTime() + 1;
  const uint64_t step = std::max<uint64_t>(1, end / cols);
  size_t name_width = 0;
  for (const auto& n : names_) name_width = std::max(name_width, n.size());

  std::ostringstream os;
  for (size_t s = 0; s < names_.size(); ++s) {
    os << names_[s] << std::string(name_width - names_[s].size(), ' ')
       << " | ";
    WireValue prev = valueAt(static_cast<SignalId>(s), 0);
    for (uint64_t t = 0; t < end; t += step) {
      // Did any change land inside this bucket?
      const WireValue now = valueAt(static_cast<SignalId>(s), t + step - 1);
      bool rose = false;
      bool fell = false;
      {
        const auto& ev = events_[s];
        auto lo = std::lower_bound(
            ev.begin(), ev.end(), t,
            [](const Event& e, uint64_t tt) { return e.time_ps < tt; });
        for (auto it = lo; it != ev.end() && it->time_ps < t + step; ++it) {
          if (it->time_ps == 0) continue;  // initial value, not an edge
          if (it->value == WireValue::kHigh) rose = true;
          if (it->value == WireValue::kLow) fell = true;
        }
      }
      char c;
      if (rose && fell) {
        c = '|';
      } else if (rose) {
        c = '/';
      } else if (fell) {
        c = '\\';
      } else {
        c = now == WireValue::kHigh ? '#' : (now == WireValue::kX ? 'x' : '_');
      }
      os << c;
      prev = now;
    }
    (void)prev;
    os << "\n";
  }
  return os.str();
}

}  // namespace lbist::sim
