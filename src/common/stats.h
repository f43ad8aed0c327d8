// Small statistics helpers shared by benches and tests.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace gpudpf {

// Percentile of an (unsorted) sample vector; p in [0,100].
double Percentile(std::vector<double> samples, double p);

// Formats a byte count with binary units ("1.5 MiB").
std::string FormatBytes(double bytes);

// Formats a count with SI units ("3.6 M").
std::string FormatCount(double count);

}  // namespace gpudpf
