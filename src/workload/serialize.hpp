// Plain-text serialization for policies and traffic traces, so experiments
// can be pinned to files and replayed across builds (and policies from
// external tools can be imported). Formats are line-oriented and versioned:
//
//   policy v1
//   rule <id> <priority> <action> <weight> [<field>=<bits>]...
//
//   trace v1
//   flow <id> <start> <packets> <gap> <ingress> <header-hex-64>
//
// where <action> is drop | fwd:<port> | encap:<switch> | ctrl (<port> and
// <switch> are 32-bit unsigned), <bits> is the field's ternary pattern
// MSB-first over {0,1,x}, and <header-hex-64> is the 256-bit packet header in
// hex (low word first). Rule ids within a policy are distinct. Loaders
// validate eagerly and throw std::runtime_error with a line number on
// malformed input.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "flowspace/rule_table.hpp"
#include "workload/trafficgen.hpp"

namespace difane {

void save_policy(std::ostream& os, const RuleTable& table);
RuleTable load_policy(std::istream& is);

void save_policy_file(const std::string& path, const RuleTable& table);
RuleTable load_policy_file(const std::string& path);

void save_trace(std::ostream& os, const std::vector<FlowSpec>& flows);
std::vector<FlowSpec> load_trace(std::istream& is);

void save_trace_file(const std::string& path, const std::vector<FlowSpec>& flows);
std::vector<FlowSpec> load_trace_file(const std::string& path);

}  // namespace difane
