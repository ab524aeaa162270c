// Test point insertion — the paper's key coverage technique.
//
// Two selectors are provided:
//
//  * selectObservePointsFaultSim — the paper's method (section 2.1):
//    observation points are chosen from *fault simulation* results.
//    After a warm-up random-pattern phase with fault dropping, the
//    effects of every still-undetected fault are traced through the
//    circuit; the nets reached by the most undetected faults are chosen
//    by greedy set cover, so every inserted point is guaranteed to make
//    actually-undetected faults observable under the actual PRPG-style
//    stimulus distribution.
//
//  * selectObservePointsCop — the prior-art baseline the paper argues
//    against: nets ranked by static COP observability estimates.
//
// Only observation points are ever inserted — no control points — because
// control points add gates (delay) to functional paths and IP cores have
// strict performance requirements (paper section 2.1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/netlist.hpp"

namespace lbist::dft {

struct TpiConfig {
  size_t max_points = 64;
  /// Random patterns (with fault dropping) before guidance: detectable
  /// faults drop out so selection targets the random-resistant residue.
  int64_t warmup_patterns = 2048;
  /// Patterns over which undetected-fault effects are traced.
  int64_t guidance_patterns = 512;
};

struct TpiResult {
  std::vector<GateId> points;
  /// Undetected faults the greedy cover expects the points to expose.
  size_t predicted_new_detections = 0;
  /// Coverage after the warm-up phase (before insertion).
  fault::Coverage warmup_coverage;
};

/// Fault-simulation-guided selection (paper). Non-mutating: returns the
/// nets to observe; insert them with insertObservePoints *before* scan
/// insertion so the new cells get stitched into chains.
[[nodiscard]] TpiResult selectObservePointsFaultSim(const Netlist& nl,
                                                    const TpiConfig& cfg);

/// COP-observability baseline: the k nets with the lowest observability
/// (ties broken toward larger fan-in cones).
[[nodiscard]] std::vector<GateId> selectObservePointsCop(const Netlist& nl,
                                                         size_t k);

struct ObservePointOptions {
  /// Nets XOR-ed together per observation flip-flop (1 = one FF per net;
  /// larger groups trade a little masking risk for area).
  int group_size = 1;
};

/// Adds observation flip-flops capturing the given nets; returns the new
/// cells. Each cell is a plain scannable DFF flagged kFlagObservePoint —
/// run insertScan afterwards to stitch them into chains.
std::vector<GateId> insertObservePoints(Netlist& nl,
                                        std::span<const GateId> nets,
                                        const ObservePointOptions& opts = {});

/// Clock domain heuristic shared by wrapper and observe cells: the domain
/// of the nearest flip-flop downstream of `net` (fallback: domain 0).
[[nodiscard]] DomainId nearestDomain(const Netlist& nl, GateId net,
                                     const Netlist::FanoutMap& fanout);

}  // namespace lbist::dft
