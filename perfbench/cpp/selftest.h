#pragma once

#include <string>
#include <vector>

namespace perfbench {

// Runs the arithmetic self-checks; returns the number of failed checks
// (each printed to stderr). `metric_names` are checked against the name rule.
int run_selftest(const std::vector<std::string>& metric_names);

}  // namespace perfbench
