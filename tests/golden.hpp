#pragma once

// Golden fingerprints of fleet runs. The replay contract — the same
// (seed, fault plan, membership plan) gives byte-identical sim-time
// exports at every thread count — is pinned against recorded files in
// tests/golden/ rather than against a second implementation of the loop.
// A fingerprint is one line: the FNV-1a 64 hash of each include_wall=false
// export, every integer of the fleet telemetry, and the bit patterns of
// the two floating-point totals. A golden file holds '#' comment lines
// describing the scenario, then exactly one fingerprint line.
//
// A golden is never re-baselined to make a test pass: a mismatch means
// the change altered observable fleet behaviour. The failing test prints
// the actual line so a deliberate behaviour change can be recorded.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "obs/export.hpp"
#include "obs/observability.hpp"
#include "runtime/fleet.hpp"

#ifndef PFM_GOLDEN_DIR
#error "PFM_GOLDEN_DIR must name the tests/golden directory"
#endif

namespace pfm::golden {

inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Everything observable about a finished fleet run except wall time.
inline std::string fingerprint(const obs::Observability& hub,
                               const runtime::FleetTelemetry& t) {
  std::string out;
  auto field = [&out](const char* key, const std::string& value) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += value;
  };
  auto num = [&field](const char* key, auto value) {
    field(key, std::to_string(value));
  };
  field("prometheus",
        hex(fnv1a64(obs::prometheus_text(hub.metrics(), false))));
  field("trace", hex(fnv1a64(obs::chrome_trace_json(hub.trace(), false))));
  field("json", hex(fnv1a64(obs::metrics_json_line(hub.metrics(), false))));
  num("nodes", t.nodes);
  num("rounds", t.rounds);
  num("epochs", t.epochs);
  num("node_steps", t.node_steps);
  num("scores", t.scores_computed);
  num("warnings", t.warnings_raised);
  num("node_faults", t.resilience.node_faults);
  num("quarantined", t.resilience.nodes_quarantined);
  num("stalls", t.resilience.stall_detections);
  num("predictor_faults", t.resilience.predictor_faults);
  num("breaker_trips", t.resilience.breaker_trips);
  num("breakers_open", t.resilience.breakers_open);
  num("sanitized", t.resilience.scores_sanitized);
  num("joined", t.membership.nodes_joined);
  num("left", t.membership.nodes_left);
  num("handoffs", t.membership.handoffs);
  num("scale_ups", t.membership.scale_ups);
  num("drains", t.membership.drains);
  num("evaluations", t.mea.evaluations);
  num("node_warnings", t.mea.warnings);
  num("actions", t.mea.total_actions());
  num("action_faults", t.mea.action_faults);
  num("action_retries", t.mea.action_retries);
  num("actions_abandoned", t.mea.actions_abandoned);
  num("requests", t.system.total_requests);
  num("violations", t.system.violations);
  num("failures", t.system.failures);
  num("shed", t.system.shed_requests);
  num("preventive_restarts", t.system.preventive_restarts);
  num("prepared_repairs", t.system.prepared_repairs);
  num("unprepared_repairs", t.system.unprepared_repairs);
  field("downtime", hex(std::bit_cast<std::uint64_t>(t.system.downtime)));
  field("simulated", hex(std::bit_cast<std::uint64_t>(t.system.simulated)));
  return out;
}

/// The fingerprint line of tests/golden/<name>.txt ("" when missing).
inline std::string load(const std::string& name) {
  std::ifstream in(std::string(PFM_GOLDEN_DIR) + "/" + name + ".txt");
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() != '#') return line;
  }
  return {};
}

/// Checks a run against its golden; a mismatch prints the actual line.
inline void expect_matches(const std::string& name,
                           const std::string& actual) {
  EXPECT_EQ(load(name), actual)
      << "golden " << name << " differs; actual fingerprint line:\n"
      << actual;
}

}  // namespace pfm::golden
