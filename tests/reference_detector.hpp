// The reference detection substrate: TsanDetector's original hash-map hot
// path, kept as the test oracle for the product substrate (DESIGN.md §2.1).
//
// It shares everything downstream of the hot path with TsanDetector — the
// report index, dedup, watch lists, prescreen accounting, counters and the
// metrics flush — and replaces only on_access/on_sync: hash-map shadow and
// clock tables, eager call-stack capture on every access.
// tests/detector_differential_test.cpp feeds both substrates the same
// machines and requires field-identical reports; bench/micro_perf measures
// the gap (BM_Detector*/impl:0). Do not optimize this path.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "race/tsan_detector.hpp"

namespace owl::race {

class ReferenceDetector : public TsanDetector {
 public:
  /// Same arguments as TsanDetector; ski_watch_mode = true is the
  /// reference for SkiDetector.
  using TsanDetector::TsanDetector;

  void on_access(const Access& access,
                 const interp::Machine& machine) override;
  void on_sync(const Sync& sync, const interp::Machine& machine) override;

 private:
  struct ShadowAccess {
    ThreadId tid = 0;
    std::uint64_t epoch = 0;
    AccessRecord rec;
  };
  struct Shadow {
    std::optional<ShadowAccess> write;
    std::vector<ShadowAccess> reads;  ///< reads since the last write
  };

  VectorClock& clock(ThreadId tid) { return clocks_[tid]; }
  AccessRecord make_record(const Access& access,
                           const interp::Machine& machine) const;

  std::unordered_map<ThreadId, VectorClock> clocks_;
  std::unordered_map<interp::Address, VectorClock> lock_clocks_;
  std::unordered_map<interp::Address, VectorClock> sync_clocks_;
  std::unordered_map<ThreadId, VectorClock> finished_clocks_;
  std::unordered_map<interp::Address, Shadow> shadow_;
};

}  // namespace owl::race
