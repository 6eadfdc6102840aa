#include "spider/verification.hpp"

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/timers.hpp"

namespace spider::proto {

bool VerificationReport::clean() const {
  if (equivocation || !root_matches) return false;
  for (const auto& verdict : verdicts) {
    if (!verdict.clean()) return false;
  }
  return true;
}

std::vector<std::string> VerificationReport::findings() const {
  std::vector<std::string> out;
  if (!root_matches) out.push_back("elector's replayed root does not match its commitment");
  if (equivocation) out.push_back("equivocation: " + equivocation->detail);
  for (const auto& verdict : verdicts) {
    const std::string who = "AS" + std::to_string(verdict.neighbor);
    if (verdict.as_producer) {
      out.push_back(who + " (producer): " + core::fault_kind_name(verdict.as_producer->kind) +
                    " — " + verdict.as_producer->detail);
    }
    if (verdict.as_consumer) {
      out.push_back(who + " (consumer): " + core::fault_kind_name(verdict.as_consumer->kind) +
                    " — " + verdict.as_consumer->detail);
    }
    if (verdict.extended) {
      out.push_back(who + " (extended): " + verdict.extended->detail);
    }
  }
  return out;
}

}  // namespace spider::proto
