// End-to-end concurrency-attack records: a verified race, its bug-to-attack
// propagation, and the dynamic confirmation that the attack is realizable.
#pragma once

#include <string>

#include "race/report.hpp"
#include "verify/vuln_verifier.hpp"
#include "vuln/analyzer.hpp"

namespace owl::core {

struct ConcurrencyAttack {
  std::string program;        ///< workload name (e.g. "ssdb-1.9.2")
  race::RaceReport race;      ///< the underlying (verified) data race
  vuln::ExploitReport exploit;///< Algorithm 1's bug-to-attack propagation
  verify::VulnVerifyResult verification;  ///< §6.2 outcome

  /// The site was reached dynamically and a security event fired.
  bool confirmed() const noexcept {
    return verification.site_reached && verification.attack_realized;
  }

  /// The race, its hint and the verification outcome; instructions are
  /// quoted through `names`.
  std::string to_string(ir::NameTable& names) const;
};

}  // namespace owl::core
