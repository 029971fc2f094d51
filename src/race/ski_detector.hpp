// SKI substrate: systematic kernel-schedule exploration (paper §3, §6.3).
//
// SKI finds kernel races by running the same workload under many controlled
// schedules. Our equivalent is the pipeline's detection stage with a PCT
// scheduler per schedule (core::Pipeline::detect_once), merging the per-run
// reports. The per-run detector is the happens-before core in SKI
// watch-list mode: after a race, the racy address stays watched and the
// call stack of every subsequent read is logged until a write sanitizes the
// value — the §6.3 policy modification that gives Algorithm 1 precise
// corrupted-read stacks in kernel code.
#pragma once

#include <functional>
#include <memory>

#include "race/tsan_detector.hpp"

namespace owl::race {

class SkiDetector final : public TsanDetector {
 public:
  explicit SkiDetector(const AnnotationSet* annotations = nullptr,
                       PrescreenView prescreen = {})
      : TsanDetector(annotations, /*ski_watch_mode=*/true, prescreen) {}
};

/// Builds one fresh, ready-to-run machine per schedule (threads spawned,
/// inputs set). The factory owns nothing after returning.
using MachineFactory = std::function<std::unique_ptr<interp::Machine>()>;

}  // namespace owl::race
