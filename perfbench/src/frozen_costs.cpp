#include "frozen_costs.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

using neutrino::SimTime;
using neutrino::core::MsgKind;
using neutrino::ser::WireFormat;
using neutrino::ser::kAllWireFormats;

namespace {

std::size_t format_index(WireFormat f) { return static_cast<std::size_t>(f); }

int find_format(const std::string& name) {
  for (const WireFormat f : kAllWireFormats) {
    if (neutrino::ser::to_string(f) == name) {
      return static_cast<int>(format_index(f));
    }
  }
  return -1;
}

int find_kind(const std::vector<MsgKind>& kinds, const std::string& name) {
  for (const MsgKind k : kinds) {
    if (neutrino::core::to_string(k) == name) return static_cast<int>(k);
  }
  return -1;
}

}  // namespace

std::vector<MsgKind> all_msg_kinds() {
  std::vector<MsgKind> kinds;
  for (int k = 0; k < 256; ++k) {
    const auto kind = static_cast<MsgKind>(k);
    if (neutrino::core::to_string(kind) == "?") break;
    kinds.push_back(kind);
  }
  return kinds;
}

FrozenCostModel::FrozenCostModel(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read cost table " + path);
  const std::vector<MsgKind> kinds = all_msg_kinds();
  kinds_ = kinds.size();
  const std::size_t formats = kAllWireFormats.size();
  msgs_.assign(formats * kinds_, Entry{});
  states_.assign(formats, Entry{});
  std::vector<bool> seen_msg(msgs_.size(), false);
  std::vector<bool> seen_state(formats, false);

  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& why) {
    throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " +
                             why);
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string type, format, kind;
    long long ns = -1;
    long long bytes = -1;
    std::string rest;
    if (!std::getline(fields, type, '\t') ||
        !std::getline(fields, format, '\t') ||
        !std::getline(fields, kind, '\t') || !(fields >> ns >> bytes) ||
        (fields >> rest) || ns < 0 || bytes < 0) {
      fail("malformed line '" + line + "'");
    }
    const int f = find_format(format);
    if (f < 0) fail("unknown wire format '" + format + "'");
    if (type == "state") {
      if (kind != "-") fail("state entries take '-' as their kind");
      if (seen_state[f]) fail("duplicate state entry for " + format);
      seen_state[f] = true;
      states_[f] = {ns, static_cast<std::size_t>(bytes)};
    } else if (type == "msg") {
      const int k = find_kind(kinds, kind);
      if (k < 0) fail("unknown message kind '" + kind + "'");
      const std::size_t idx = static_cast<std::size_t>(f) * kinds_ + k;
      if (seen_msg[idx]) fail("duplicate entry " + format + "/" + kind);
      seen_msg[idx] = true;
      msgs_[idx] = {ns, static_cast<std::size_t>(bytes)};
    } else {
      fail("unknown entry type '" + type + "'");
    }
  }
  for (const WireFormat f : kAllWireFormats) {
    const std::string fname{neutrino::ser::to_string(f)};
    if (!seen_state[format_index(f)]) {
      throw std::runtime_error(path + ": missing state entry for " + fname);
    }
    for (const MsgKind k : kinds) {
      if (!seen_msg[format_index(f) * kinds_ + static_cast<std::size_t>(k)]) {
        throw std::runtime_error(path + ": missing entry " + fname + "/" +
                                 std::string{neutrino::core::to_string(k)});
      }
    }
  }
}

const FrozenCostModel::Entry& FrozenCostModel::msg(WireFormat format,
                                                   MsgKind kind) const {
  const auto k = static_cast<std::size_t>(kind);
  if (k >= kinds_) throw std::out_of_range("message kind outside the table");
  return msgs_[format_index(format) * kinds_ + k];
}

SimTime FrozenCostModel::processing_time(WireFormat format,
                                         MsgKind kind) const {
  return SimTime::nanoseconds(msg(format, kind).ns);
}

std::size_t FrozenCostModel::encoded_size(WireFormat format,
                                          MsgKind kind) const {
  return msg(format, kind).bytes;
}

SimTime FrozenCostModel::state_serialize_time(WireFormat format) const {
  return SimTime::nanoseconds(states_[format_index(format)].ns);
}

std::size_t FrozenCostModel::state_encoded_size(WireFormat format) const {
  return states_[format_index(format)].bytes;
}

bool write_cost_table(const std::string& path,
                      const neutrino::core::CostModel& model,
                      const std::string& host) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# Frozen core::MeasuredCostModel snapshot (perfbench/README.md).\n"
         "# Measured on: "
      << host
      << "\n"
         "# Regenerate: python3 perfbench/run.py --regen-cost-table\n"
         "# type\tformat\tkind\tprocessing_ns\tencoded_bytes\n";
  for (const WireFormat f : kAllWireFormats) {
    const std::string fname{neutrino::ser::to_string(f)};
    for (const MsgKind k : all_msg_kinds()) {
      out << "msg\t" << fname << '\t' << neutrino::core::to_string(k) << '\t'
          << model.processing_time(f, k).ns() << '\t'
          << model.encoded_size(f, k) << '\n';
    }
    out << "state\t" << fname << "\t-\t" << model.state_serialize_time(f).ns()
        << '\t' << model.state_encoded_size(f) << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
