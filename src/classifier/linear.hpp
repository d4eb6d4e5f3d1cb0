// Linear-scan classifier: the semantic reference model of a TCAM. A real
// TCAM answers in one cycle; in simulation the *semantics* are a priority
// scan.
#pragma once

#include "flowspace/rule_table.hpp"

namespace difane {

class LinearClassifier {
 public:
  LinearClassifier() = default;
  explicit LinearClassifier(RuleTable table) : table_(std::move(table)) {}

  const Rule* classify(const BitVec& packet) const { return table_.match(packet); }

  const RuleTable& table() const { return table_; }
  RuleTable& table() { return table_; }

 private:
  RuleTable table_;
};

}  // namespace difane
