/**
 * @file
 * Lightweight statistics: scalar counters, distributions, and the
 * aggregate math (geometric means) used throughout the evaluation.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace h2 {

/** Running min/max/mean over a stream of samples. */
class Distribution
{
  public:
    void
    sample(double v)
    {
        if (n == 0 || v < lo)
            lo = v;
        if (n == 0 || v > hi)
            hi = v;
        total += v;
        ++n;
    }

    u64 count() const { return n; }
    double min() const { return n ? lo : 0.0; }
    double max() const { return n ? hi : 0.0; }
    double mean() const { return n ? total / n : 0.0; }
    double sum() const { return total; }

    void
    reset()
    {
        n = 0;
        lo = hi = total = 0.0;
    }

  private:
    u64 n = 0;
    double lo = 0.0;
    double hi = 0.0;
    double total = 0.0;
};

/** Geometric mean of strictly positive values; 0 for an empty vector. */
double geomean(const std::vector<double> &values);

/**
 * num / den, or 0 when the quotient has no finite value (@p den zero,
 * or either operand non-finite). Normalized-metric reports use this so
 * a degenerate baseline (e.g. a zero-traffic workload with zero
 * baseline energy) yields a renderable 0 instead of inf/NaN — JSON and
 * CSV have no representation for either (cf. JsonWriter::formatDouble).
 */
double ratioOrZero(double num, double den);

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &values);

/**
 * A named bag of scalar statistics with hierarchical dotted names,
 * e.g. "fm.bytesRead". Designs expose their counters through this so the
 * runner and the bench harness can extract them uniformly.
 */
class StatSet
{
  public:
    void add(const std::string &name, double value);
    void increment(const std::string &name, double delta = 1.0);
    bool has(const std::string &name) const;
    double get(const std::string &name) const;
    /** All entries in name order. */
    const std::map<std::string, double> &entries() const { return vals; }
    std::string toString() const;

    bool operator==(const StatSet &) const = default;

  private:
    std::map<std::string, double> vals;
};

} // namespace h2
