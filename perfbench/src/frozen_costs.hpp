// Cost table frozen from core::MeasuredCostModel.
//
// MeasuredCostModel times the real codecs on the host at start-up, so two
// runs of one seed get slightly different service times and every modeled
// statistic (PCT quantiles, event and window counts) drifts from run to
// run. The simulator workloads instead load a snapshot of its public
// answers, committed next to the benchmark: simulated outputs then repeat
// exactly and host noise moves only host-time metrics.
#pragma once

#include <string>
#include <vector>

#include "core/cost_model.hpp"

namespace perfbench {

/// Every MsgKind the core defines, in enum order. Enumerated through
/// core::to_string, so a kind appended to the enum shows up here (and
/// then as a missing table entry) without editing the benchmark.
std::vector<neutrino::core::MsgKind> all_msg_kinds();

class FrozenCostModel final : public neutrino::core::CostModel {
 public:
  /// Parses the table at `path`. Throws std::runtime_error when the file
  /// cannot be read, a line is malformed, an entry is duplicated, or the
  /// (format, kind) set differs in any way from the formats and kinds the
  /// core defines — a missing entry is never read as zero.
  explicit FrozenCostModel(const std::string& path);

  [[nodiscard]] neutrino::SimTime processing_time(
      neutrino::ser::WireFormat format,
      neutrino::core::MsgKind kind) const override;
  [[nodiscard]] std::size_t encoded_size(
      neutrino::ser::WireFormat format,
      neutrino::core::MsgKind kind) const override;
  [[nodiscard]] neutrino::SimTime state_serialize_time(
      neutrino::ser::WireFormat format) const override;
  [[nodiscard]] std::size_t state_encoded_size(
      neutrino::ser::WireFormat format) const override;

 private:
  struct Entry {
    std::int64_t ns = 0;
    std::size_t bytes = 0;
  };
  [[nodiscard]] const Entry& msg(neutrino::ser::WireFormat format,
                                 neutrino::core::MsgKind kind) const;

  std::size_t kinds_ = 0;
  std::vector<Entry> msgs_;   // [format * kinds_ + kind]
  std::vector<Entry> states_; // [format]
};

/// Snapshot `model` into the table format FrozenCostModel reads. `host`
/// names the machine the model was measured on (written as a comment).
bool write_cost_table(const std::string& path,
                      const neutrino::core::CostModel& model,
                      const std::string& host);

}  // namespace perfbench
